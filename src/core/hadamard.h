// Fast Walsh–Hadamard Transform and the Randomized Hadamard Transform (RHT).
//
// §3.2: the RHT-based encoding rotates each gradient row with R_s(V) = H·D_s·V
// where H is the (orthonormal) Hadamard matrix and D_s a diagonal of random
// ±1 signs derived from a shared seed s. After rotation the coordinates are
// symmetrically concentrated around zero, which is what makes a 1-bit sign
// head an accurate standalone compression (DRIVE). The paper splits each
// collective message into rows of 2^15 entries so each row fits in GPU L1
// shared memory; we keep the same row size as the default so the scale
// metadata volume and numerical behaviour match.
//
// This is the CPU substitute for the `fast-hadamard-transform` CUDA library
// the paper's prototype uses (see DESIGN.md, substitutions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/prng.h"

namespace trimgrad::core {

/// Default RHT row length (2^15 entries), following the paper's choice.
inline constexpr std::size_t kDefaultRhtRow = std::size_t{1} << 15;

/// True iff n is a nonzero power of two.
constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n (n must be >= 1).
constexpr std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// In-place unnormalized fast Walsh–Hadamard transform. data.size() must be
/// a power of two. O(n log n) adds/subs, no allocation.
void fwht_inplace(std::span<float> data) noexcept;

/// In-place *orthonormal* FWHT: fwht_inplace followed by scaling with
/// 1/sqrt(n), so the transform is its own inverse and preserves L2 norms.
void fwht_orthonormal_inplace(std::span<float> data) noexcept;

/// Randomized Hadamard Transform of one row, in place:
///   data <- H_norm · D · data
/// where D is the ±1 diagonal generated from `rng` (one sign per entry,
/// consumed in index order). data.size() must be a power of two.
void rht_inplace(std::span<float> data, Xoshiro256& rng) noexcept;

/// Inverse RHT, in place: data <- D · H_norm · data, with D regenerated
/// from an identically-seeded rng. Exact inverse of rht_inplace up to
/// floating-point rounding.
void irht_inplace(std::span<float> data, Xoshiro256& rng) noexcept;

/// Splits a flat buffer into power-of-two rows for RHT processing:
/// full rows of `row_len` entries, and (if the tail is shorter) one final
/// row zero-padded up to the next power of two. Mirrors the paper's
/// row-splitting of the 25 MB DDP bucket into 2^15-entry rows.
struct RowSplit {
  std::size_t row_len;      ///< nominal full-row length (power of two)
  std::size_t total;        ///< original element count
  std::size_t n_rows;       ///< number of rows including the padded tail row
  std::size_t tail_padded;  ///< padded length of the final row (0 if none)

  /// Length of row r after padding.
  std::size_t padded_len(std::size_t r) const noexcept {
    return (tail_padded != 0 && r + 1 == n_rows) ? tail_padded : row_len;
  }
  /// Number of *real* (unpadded) elements in row r.
  std::size_t real_len(std::size_t r) const noexcept {
    if (r + 1 < n_rows || total % row_len == 0) return row_len;
    return total % row_len;
  }
  /// Offset of row r in the original buffer.
  std::size_t offset(std::size_t r) const noexcept { return r * row_len; }
};

/// Compute the row split for `total` elements with nominal rows of
/// `row_len` (must be a power of two, defaults to 2^15).
RowSplit make_row_split(std::size_t total, std::size_t row_len = kDefaultRhtRow) noexcept;

/// Copy one row out of a flat buffer, zero-padding to its power-of-two
/// padded length.
std::vector<float> extract_padded_row(std::span<const float> flat,
                                      const RowSplit& split, std::size_t row);

}  // namespace trimgrad::core
