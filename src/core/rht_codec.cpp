#include "core/rht_codec.h"

#include <algorithm>
#include <cassert>

#include "core/bitpack.h"
#include "core/hadamard.h"
#include "core/metrics.h"
#include "core/simd.h"
#include "core/stats.h"

namespace trimgrad::core {

namespace {
constexpr std::uint32_t kSignMask = 0x80000000u;
constexpr std::uint32_t kMagMask = 0x7fffffffu;

// Row codecs run inside parallel_for workers — counter increments go to
// per-thread shards, whose integer reduction keeps snapshots bit-identical
// for any pool size.
struct RhtTelemetry {
  Counter rows_encoded, rows_decoded;

  static const RhtTelemetry& get() {
    static const RhtTelemetry t{
        MetricsRegistry::global().counter("codec.rht.rows_encoded"),
        MetricsRegistry::global().counter("codec.rht.rows_decoded"),
    };
    return t;
  }
};

}  // namespace

float rht_coord_from_parts(bool head, std::uint32_t tail) noexcept {
  // head = 1 means non-negative; tail carries exponent+mantissa.
  return bits_float((head ? 0u : kSignMask) | (tail & kMagMask));
}

float rht_coord_trimmed(bool head, float scale_f) noexcept {
  return head ? scale_f : -scale_f;
}

RhtEncodedRow rht_encode_row(std::span<const float> row, const StreamKey& key) {
  assert(is_pow2(row.size()));
  std::vector<float> rotated(row.size());
  const float* in = row.data();
  float* out = rotated.data();
  RhtEncodedRow enc;
  rht_rotate_rows(&in, &out, 1, row.size(), &key, &enc.scale_f);
  enc.heads.resize(row.size());
  enc.tails.resize(row.size());
  simd::split_sign_mag(out, row.size(), enc.heads.data(), enc.tails.data());
  return enc;
}

std::vector<float> rht_decode_row(std::span<const std::uint8_t> heads,
                                  std::span<const std::uint32_t> tails,
                                  std::span<const std::uint8_t> trimmed,
                                  float scale_f, const StreamKey& key) {
  assert(heads.size() == tails.size());
  assert(heads.size() == trimmed.size());
  assert(is_pow2(heads.size()));
  std::vector<float> r_hat(heads.size());
  // scale_f = ‖V‖₂²/‖R‖₁ >= 0, so the kernel's sign-bit composition of
  // ±scale is bit-identical to rht_coord_trimmed's arithmetic negate.
  simd::join_sign_mag(heads.data(), tails.data(), trimmed.data(), scale_f,
                      r_hat.data(), heads.size());
  float* row = r_hat.data();
  rht_unrotate_rows(&row, 1, heads.size(), &key);
  return r_hat;
}

void rht_rotate_rows(const float* const* in, float* const* out,
                     std::size_t count, std::size_t n, const StreamKey* keys,
                     float* scales) noexcept {
  assert(count >= 1 && count <= 4);
  assert(is_pow2(n));
  std::uint64_t s[4][4];
  for (std::size_t r = 0; r < count; ++r) {
    const SharedRng rng(keys[r]);
    std::copy(rng.state().begin(), rng.state().end(), s[r]);
  }
  // ‖V‖₂² before the rotation (out may alias in). The rotation is
  // orthonormal so ‖V‖₂² = ‖R‖₂²; using the pre-rotation norm follows the
  // paper exactly.
  double l2[4], l1[4];
  if (count == 4) {
    simd::sum_sq4(in, n, l2);
    simd::random_signs4(in, out, n, s);
  } else {
    for (std::size_t r = 0; r < count; ++r) {
      l2[r] = l2_norm_sq({in[r], n});
      simd::random_signs(in[r], out[r], n, s[r]);
    }
  }
  for (std::size_t r = 0; r < count; ++r) fwht_orthonormal_inplace({out[r], n});
  // Unbiased scale f = ‖V‖₂² / ‖R‖₁.
  if (count == 4) {
    simd::sum_abs4(out, n, l1);
  } else {
    for (std::size_t r = 0; r < count; ++r) l1[r] = l1_norm({out[r], n});
  }
  for (std::size_t r = 0; r < count; ++r)
    scales[r] = l1[r] > 0.0 ? static_cast<float>(l2[r] / l1[r]) : 0.0f;
  RhtTelemetry::get().rows_encoded.add(count);
}

void rht_unrotate_rows(float* const* rows, std::size_t count, std::size_t n,
                       const StreamKey* keys) noexcept {
  assert(count >= 1 && count <= 4);
  assert(is_pow2(n));
  // (H·D)⁻¹ = D⁻¹·H⁻¹ = D·H for orthonormal H and ±1 diagonal D.
  std::uint64_t s[4][4];
  for (std::size_t r = 0; r < count; ++r) {
    fwht_orthonormal_inplace({rows[r], n});
    const SharedRng rng(keys[r]);
    std::copy(rng.state().begin(), rng.state().end(), s[r]);
  }
  if (count == 4) {
    simd::random_signs4(rows, rows, n, s);
  } else {
    for (std::size_t r = 0; r < count; ++r)
      simd::random_signs(rows[r], rows[r], n, s[r]);
  }
  RhtTelemetry::get().rows_decoded.add(count);
}

}  // namespace trimgrad::core
