#include "core/hadamard.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>

#include "core/simd.h"

namespace trimgrad::core {

namespace {

/// data[i] *= the sign stream's ±1 (simd.h's scalar reference kernel; a
/// lone row has no lockstep partners).
void scale_by_random_signs(std::span<float> data, Xoshiro256& rng) noexcept {
  std::array<std::uint64_t, 4> s = rng.state();
  simd::random_signs(data.data(), data.data(), data.size(), s.data());
  rng.set_state(s);
}

}  // namespace

void fwht_inplace(std::span<float> data) noexcept {
  assert(is_pow2(data.size()));
  simd::fwht(data.data(), data.size());
}

void fwht_orthonormal_inplace(std::span<float> data) noexcept {
  assert(is_pow2(data.size()));
  if (data.size() == 1) return;  // H is identity and scale is exactly 1
  // The 1/√n scale is fused into the final butterfly stage inside the
  // kernel — same multiply a separate scaling pass would do, one fewer
  // sweep over the row, bit-identical results.
  simd::fwht_orthonormal(data.data(), data.size());
}

void rht_inplace(std::span<float> data, Xoshiro256& rng) noexcept {
  scale_by_random_signs(data, rng);
  fwht_orthonormal_inplace(data);
}

void irht_inplace(std::span<float> data, Xoshiro256& rng) noexcept {
  // (H·D)⁻¹ = D⁻¹·H⁻¹ = D·H for orthonormal H and ±1 diagonal D.
  fwht_orthonormal_inplace(data);
  scale_by_random_signs(data, rng);
}

RowSplit make_row_split(std::size_t total, std::size_t row_len) noexcept {
  assert(is_pow2(row_len));
  RowSplit s{};
  s.row_len = row_len;
  s.total = total;
  if (total == 0) {
    s.n_rows = 0;
    s.tail_padded = 0;
    return s;
  }
  const std::size_t full = total / row_len;
  const std::size_t rem = total % row_len;
  s.n_rows = full + (rem != 0 ? 1 : 0);
  s.tail_padded = rem != 0 ? next_pow2(rem) : 0;
  return s;
}

std::vector<float> extract_padded_row(std::span<const float> flat,
                                      const RowSplit& split, std::size_t row) {
  assert(row < split.n_rows);
  const std::size_t off = split.offset(row);
  std::vector<float> out(split.padded_len(row), 0.0f);
  std::copy_n(flat.begin() + off, split.real_len(row), out.begin());
  return out;
}

}  // namespace trimgrad::core
