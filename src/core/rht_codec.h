// RHT-based 1-bit trimmable encoding (paper §3.2, adapted from DRIVE).
//
// Encoding of one row V (power-of-two padded, default 2^15 entries):
//   1. rotate: R = H·D_s·V (randomized Hadamard transform, shared seed s);
//   2. head bit i  = sign(r_i) — after rotation the coordinates are
//      symmetrically distributed around zero, so the sign is an efficient
//      standalone 1-bit code;
//   3. tail i      = the remaining 31 bits (exponent + mantissa) of r_i, so
//      an untrimmed packet reconstructs r_i bit-exactly — zero overhead;
//   4. scale f     = ‖V‖₂² / ‖R‖₁, sent in a small reliable packet, makes
//      the trimmed decode unbiased.
//
// Decoding of a row: r̂_i = r_i where the tail survived, f·sign(r_i) where
// trimmed; then V̂ = IRHT(r̂).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/prng.h"

namespace trimgrad::core {

/// One RHT-encoded row as per-coordinate arrays: the readable reference
/// form of a row encode (tests, benches). The message codec packs straight
/// from the rotated row instead (rht_rotate_rows).
struct RhtEncodedRow {
  std::vector<std::uint8_t> heads;   ///< sign bits, 0/1 per coordinate
  std::vector<std::uint32_t> tails;  ///< 31-bit exponent+mantissa per coord
  float scale_f = 0.0f;              ///< unbiased decode scale f
};

/// Encode one padded row. `row.size()` must be a power of two. The rotation
/// signs are derived from `key`, which both sides construct from
/// (seed, epoch, message, row) — see prng.h.
RhtEncodedRow rht_encode_row(std::span<const float> row, const StreamKey& key);

/// Decode one row. `trimmed[i] != 0` marks coordinates whose 31-bit tail was
/// trimmed away; for those only the sign head is used, scaled by f. Returns
/// the reconstructed row of heads.size() coordinates (caller slices away any
/// padding).
std::vector<float> rht_decode_row(std::span<const std::uint8_t> heads,
                                  std::span<const std::uint32_t> tails,
                                  std::span<const std::uint8_t> trimmed,
                                  float scale_f, const StreamKey& key);

/// Encode-side rotation of `count` (1..4) rows of n = 2^k floats:
/// out[r] = H·D_r·in[r] with D_r drawn from keys[r], and
/// scales[r] = f = ‖in[r]‖₂² / ‖out[r]‖₁ (0 when that L1 norm is 0).
/// Four rows run the lockstep kernels of core/simd.h; fewer rows take the
/// per-row scalar reference. The results are bit-identical either way.
/// out[r] may equal in[r].
void rht_rotate_rows(const float* const* in, float* const* out,
                     std::size_t count, std::size_t n, const StreamKey* keys,
                     float* scales) noexcept;

/// Decode-side inverse rotation of `count` (1..4) rows of n = 2^k floats,
/// in place: rows[r] = D_r·H·rows[r] with D_r drawn from keys[r].
void rht_unrotate_rows(float* const* rows, std::size_t count, std::size_t n,
                       const StreamKey* keys) noexcept;

/// Reassemble the rotated coordinate r_i from its head/tail split
/// (bit-exact inverse of the encoder's split).
float rht_coord_from_parts(bool head, std::uint32_t tail) noexcept;

/// The trimmed-decode estimate f·sign for a single coordinate.
float rht_coord_trimmed(bool head, float scale_f) noexcept;

}  // namespace trimgrad::core
