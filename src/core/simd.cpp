#include "core/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/prng.h"

#if defined(__x86_64__) || defined(_M_X64)
#define TRIMGRAD_SIMD_X86 1
#include <immintrin.h>
// Per-function target attribute so the vector kernels are compiled even in
// builds without -mavx2; they are only called after the runtime cpuid check.
#if defined(__AVX2__)
#define TG_AVX2
#else
#define TG_AVX2 __attribute__((target("avx2")))
#endif
#endif

#if defined(__aarch64__) && defined(__ARM_NEON)
#define TRIMGRAD_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace trimgrad::core::simd {

namespace {

constexpr std::uint32_t kSignMask = 0x80000000u;
constexpr std::uint32_t kMagMask = 0x7fffffffu;

// Spread masks for the 8-bool-bytes <-> 8-bits tricks (see bitpack.cpp for
// the derivation; the multiply sums non-colliding shifted copies).
constexpr std::uint64_t kLsbSpread = 0x8040201008040201ull;
constexpr std::uint64_t kByteOnes = 0x0101010101010101ull;

inline std::uint32_t f2b(float v) noexcept {
  std::uint32_t b;
  std::memcpy(&b, &v, 4);
  return b;
}

inline float b2f(std::uint32_t b) noexcept {
  float v;
  std::memcpy(&v, &b, 4);
  return v;
}

// ---- scalar reference kernels --------------------------------------------

void fwht_scalar(float* d, std::size_t n) noexcept {
  for (std::size_t len = 1; len < n; len <<= 1) {
    for (std::size_t i = 0; i < n; i += len << 1) {
      for (std::size_t j = i; j < i + len; ++j) {
        const float a = d[j];
        const float b = d[j + len];
        d[j] = a + b;
        d[j + len] = a - b;
      }
    }
  }
}

void fwht_orthonormal_scalar(float* d, std::size_t n) noexcept {
  if (n <= 1) return;  // H is identity and the scale is exactly 1
  const float scale = 1.0f / std::sqrt(static_cast<float>(n));
  for (std::size_t len = 1; len < n >> 1; len <<= 1) {
    for (std::size_t i = 0; i < n; i += len << 1) {
      for (std::size_t j = i; j < i + len; ++j) {
        const float a = d[j];
        const float b = d[j + len];
        d[j] = a + b;
        d[j + len] = a - b;
      }
    }
  }
  const std::size_t half = n >> 1;
  for (std::size_t j = 0; j < half; ++j) {
    const float a = d[j];
    const float b = d[j + half];
    d[j] = (a + b) * scale;
    d[j + half] = (a - b) * scale;
  }
}

void split_scalar(const float* r, std::size_t n, std::uint8_t* heads,
                  std::uint32_t* mags) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t b = f2b(r[i]);
    heads[i] = (b & kSignMask) == 0 ? 1 : 0;
    mags[i] = b & kMagMask;
  }
}

void join_scalar(const std::uint8_t* heads, const std::uint32_t* tails,
                 const std::uint8_t* trimmed, float scale, float* out,
                 std::size_t n) noexcept {
  const std::uint32_t scale_mag = f2b(scale) & kMagMask;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t sign = heads[i] != 0 ? 0u : kSignMask;
    const std::uint32_t mag =
        trimmed[i] != 0 ? scale_mag : (tails[i] & kMagMask);
    out[i] = b2f(sign | mag);
  }
}

void pack_heads_scalar(const float* r, std::size_t n,
                       std::uint8_t* out) noexcept {
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t m = std::min<std::size_t>(8, n - i);
    unsigned byte = 0;
    for (std::size_t k = 0; k < m; ++k)
      byte |= ((~f2b(r[i + k]) >> 31) & 1u) << (7 - k);
    out[i / 8] = static_cast<std::uint8_t>(byte);
  }
}

void join_heads_scalar(const std::uint8_t* heads, const std::uint32_t* mags,
                       float scale, float* out, std::size_t n) noexcept {
  const std::uint32_t scale_mag = f2b(scale) & kMagMask;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t head = (heads[i >> 3] >> (7 - (i & 7))) & 1u;
    const std::uint32_t mag = mags != nullptr ? mags[i] & kMagMask : scale_mag;
    out[i] = b2f(((head ^ 1u) << 31) | mag);
  }
}

inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void pack31_scalar(const std::uint8_t* in, std::size_t n,
                   std::uint8_t* out) noexcept {
  std::uint64_t acc = 0;  // the low `filled` bits are pending output
  unsigned filled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc = (acc << 31) | (load_u32(in + 4 * i) & kMagMask);
    filled += 31;
    for (; filled >= 8; filled -= 8)
      *out++ = static_cast<std::uint8_t>(acc >> (filled - 8));
  }
  if (filled != 0) *out = static_cast<std::uint8_t>(acc << (8 - filled));
}

void unpack31_scalar(const std::uint8_t* in, std::size_t n,
                     std::uint32_t* out) noexcept {
  std::uint64_t acc = 0;  // the low `filled` bits are unread input
  unsigned filled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (; filled < 31; filled += 8) acc = (acc << 8) | *in++;
    filled -= 31;
    out[i] = static_cast<std::uint32_t>(acc >> filled) & kMagMask;
  }
}

/// Keeps a 0/1 bit opaque to the optimizer. Without this, GCC traces the
/// bit back through the generator, proves the stored sign word can only be
/// one of two constants, and if-converts the branchless store below into a
/// conditional store — one 50%-random branch per draw, which mispredicts
/// its way to ~4 ns/coordinate.
inline std::uint32_t opaque_bit(std::uint32_t x) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __asm__("" : "+r"(x));
#endif
  return x;
}

/// The scalar sign stream, in blocks: the draws stay strictly sequential
/// (one 64-bit draw per coordinate), but the ±1.0f factors are materialized
/// branchlessly into a block and applied in a separate elementwise multiply
/// loop, which predicts perfectly and auto-vectorizes. Multiplying by the
/// composed ±1.0f bit pattern is the same IEEE multiply the ternary
/// `x * (d ? 1.0f : -1.0f)` performs, so results are bit-identical.
void random_signs_scalar(const float* in, float* out, std::size_t n,
                         std::uint64_t* s) noexcept {
  Xoshiro256 rng(0);
  rng.set_state({s[0], s[1], s[2], s[3]});
  constexpr std::size_t kBlock = 256;
  std::uint32_t signs[kBlock];
  for (std::size_t at = 0; at < n; at += kBlock) {
    const std::size_t m = std::min(kBlock, n - at);
    for (std::size_t i = 0; i < m; ++i) {
      // draw & 1 set => +1.0f (0x3f800000), clear => -1.0f (sign bit on).
      const std::uint32_t neg =
          opaque_bit(static_cast<std::uint32_t>(~rng()) & 1u);
      signs[i] = 0x3f800000u | (neg << 31);
    }
    for (std::size_t i = 0; i < m; ++i)
      out[at + i] = in[at + i] * b2f(signs[i]);
  }
  const auto& st = rng.state();
  std::copy(st.begin(), st.end(), s);
}

void random_signs4_scalar(const float* const* in, float* const* out,
                          std::size_t n, std::uint64_t (*s)[4]) noexcept {
  for (int r = 0; r < 4; ++r) random_signs_scalar(in[r], out[r], n, s[r]);
}

void sum_sq4_scalar(const float* const* rows, std::size_t n,
                    double* sq) noexcept {
  for (int r = 0; r < 4; ++r) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      acc += static_cast<double>(rows[r][i]) * rows[r][i];
    sq[r] = acc;
  }
}

void sum_abs4_scalar(const float* const* rows, std::size_t n,
                     double* abs) noexcept {
  for (int r = 0; r < 4; ++r) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += std::fabs(rows[r][i]);
    abs[r] = acc;
  }
}

void encode_sd_scalar(const float* v, const float* dither, std::size_t n,
                      std::uint8_t* heads, std::uint32_t* tails) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    heads[i] = v[i] + dither[i] >= 0.0f ? 1 : 0;
    const std::uint32_t b = f2b(v[i]);
    tails[i] = ((b >> 31) << 30) | ((b & kMagMask) >> 1);
  }
}

/// Cache block over the reduction dimension for the scalar gemm_nn: a
/// kKc×n slab of B stays hot across every row. Blocking only regroups the
/// kk loop — each C element still accumulates in ascending kk.
constexpr std::size_t kKc = 128;

/// Scalar gemm_nn over ncols columns whose B and C rows are ld apart (the
/// AVX2 body hands it the columns left over after its 8-wide blocks).
void gemm_nn_cols(const float* a, std::size_t a_row, std::size_t a_col,
                  const float* b, float* c, std::size_t ld, std::size_t rows,
                  std::size_t k, std::size_t ncols) noexcept {
  for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
    const std::size_t k1 = std::min(k, k0 + kKc);
    for (std::size_t i = 0; i < rows; ++i) {
      float* crow = c + i * ld;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const float av = a[i * a_row + kk * a_col];
        if (av == 0.0f) continue;
        const float* brow = b + kk * ld;
        for (std::size_t j = 0; j < ncols; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void gemm_nt_scalar(const float* a, const float* b, float* c,
                    std::size_t rows, std::size_t k, std::size_t n) noexcept {
  // Per-element dot products; the 2×2 register tile reuses each loaded A/B
  // value twice, and every element keeps its own accumulator.
  std::size_t i = 0;
  for (; i + 1 < rows; i += 2) {
    const float* ar0 = a + i * k;
    const float* ar1 = ar0 + k;
    float* cr0 = c + i * n;
    float* cr1 = cr0 + n;
    std::size_t j = 0;
    for (; j + 1 < n; j += 2) {
      const float* br0 = b + j * k;
      const float* br1 = br0 + k;
      float s00 = 0.0f, s01 = 0.0f, s10 = 0.0f, s11 = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float a0 = ar0[kk];
        const float a1 = ar1[kk];
        const float b0 = br0[kk];
        const float b1 = br1[kk];
        s00 += a0 * b0;
        s01 += a0 * b1;
        s10 += a1 * b0;
        s11 += a1 * b1;
      }
      cr0[j] += s00;
      cr0[j + 1] += s01;
      cr1[j] += s10;
      cr1[j + 1] += s11;
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      float s0 = 0.0f, s1 = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        s0 += ar0[kk] * brow[kk];
        s1 += ar1[kk] * brow[kk];
      }
      cr0[j] += s0;
      cr1[j] += s1;
    }
  }
  for (; i < rows; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

void accumulate_scalar(float* dst, const float* src, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void relu_forward_scalar(float* x, std::uint8_t* mask,
                         std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > 0.0f) {
      mask[i] = 1;
    } else {
      x[i] = 0.0f;
      mask[i] = 0;
    }
  }
}

void relu_backward_scalar(float* g, const std::uint8_t* mask,
                          std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] == 0) g[i] = 0.0f;
  }
}

// ---- AVX2 kernels --------------------------------------------------------

#if TRIMGRAD_SIMD_X86

// In-register butterflies for stage lengths 1/2/4: partners live inside one
// 8-float vector, so three stages cost one load/store sweep. Each is the
// exact elementwise (a+b, a-b) the scalar loops perform — the blend only
// routes results, it never changes an operation.
TG_AVX2 inline __m256 stage_len1(__m256 v) noexcept {
  const __m256 sw = _mm256_permute_ps(v, 0xB1);  // swap adjacent elements
  return _mm256_blend_ps(_mm256_add_ps(v, sw), _mm256_sub_ps(sw, v), 0xAA);
}

TG_AVX2 inline __m256 stage_len2(__m256 v) noexcept {
  const __m256 sw = _mm256_permute_ps(v, 0x4E);  // swap 2-element halves
  return _mm256_blend_ps(_mm256_add_ps(v, sw), _mm256_sub_ps(sw, v), 0xCC);
}

TG_AVX2 inline __m256 stage_len4(__m256 v) noexcept {
  const __m256 sw = _mm256_permute2f128_ps(v, v, 0x01);  // swap 128-bit lanes
  return _mm256_blend_ps(_mm256_add_ps(v, sw), _mm256_sub_ps(sw, v), 0xF0);
}

/// Clears the upper ymm halves before an AVX2 kernel hands its leftover
/// elements to a scalar reference. In the default build the reference is
/// compiled without AVX, and legacy-SSE code that runs with dirty upper
/// halves pays a state-transition penalty (~500 cycles for a 4-element
/// tail, measured on a 4-core AVX2 Xeon). GCC emits this itself on
/// return, but not before a tail call.
TG_AVX2 inline void leave_avx() noexcept { _mm256_zeroupper(); }

/// One radix-4 butterfly: stages len and 2·len on the four vectors at
/// offsets 0, len, 2·len, 3·len — the same adds and subtracts, in the same
/// order, as two separate radix-2 sweeps.
TG_AVX2 inline void radix4(__m256& a, __m256& b, __m256& c,
                           __m256& e) noexcept {
  const __m256 s0 = _mm256_add_ps(a, b), d0 = _mm256_sub_ps(a, b);
  const __m256 s1 = _mm256_add_ps(c, e), d1 = _mm256_sub_ps(c, e);
  a = _mm256_add_ps(s0, s1);
  c = _mm256_sub_ps(s0, s1);
  b = _mm256_add_ps(d0, d1);
  e = _mm256_sub_ps(d0, d1);
}

TG_AVX2 void fwht_avx2(float* d, std::size_t n, bool orthonormal) noexcept {
  if (n < 8) {
    orthonormal ? fwht_orthonormal_scalar(d, n) : fwht_scalar(d, n);
    return;
  }
  const float scale =
      orthonormal ? 1.0f / std::sqrt(static_cast<float>(n)) : 1.0f;
  const __m256 vscale = _mm256_set1_ps(scale);
  // The 1/sqrt(n) scale is fused into whichever sweep runs the final stage,
  // exactly like the scalar reference.
  std::size_t len;  // the first stage not yet run
  if (n >= 32) {
    // Stages 1, 2, 4 in-register on each vector, then 8 and 16 across the
    // four vectors of a 32-float block: five stages per sweep.
    const bool fuse = orthonormal && n == 32;
    for (std::size_t i = 0; i < n; i += 32) {
      __m256 v[4];
#pragma GCC unroll 4
      for (int k = 0; k < 4; ++k)
        v[k] = stage_len4(
            stage_len2(stage_len1(_mm256_loadu_ps(d + i + 8 * k))));
      radix4(v[0], v[1], v[2], v[3]);
#pragma GCC unroll 4
      for (int k = 0; k < 4; ++k)
        _mm256_storeu_ps(d + i + 8 * k,
                         fuse ? _mm256_mul_ps(v[k], vscale) : v[k]);
    }
    len = 32;
  } else {
    // Stages len=1,2,4 in one sweep (len=4 is the final stage when n == 8).
    const bool fuse = orthonormal && n == 8;
    for (std::size_t i = 0; i < n; i += 8) {
      __m256 v = _mm256_loadu_ps(d + i);
      v = stage_len4(stage_len2(stage_len1(v)));
      if (fuse) v = _mm256_mul_ps(v, vscale);
      _mm256_storeu_ps(d + i, v);
    }
    len = 8;
  }
  // Two stages per sweep while they fit, then a last single stage.
  for (; (len << 2) <= n; len <<= 2) {
    const bool fuse = orthonormal && (len << 2) == n;
    for (std::size_t i = 0; i < n; i += len << 2) {
      for (std::size_t j = i; j < i + len; j += 8) {
        __m256 a = _mm256_loadu_ps(d + j);
        __m256 b = _mm256_loadu_ps(d + j + len);
        __m256 c = _mm256_loadu_ps(d + j + 2 * len);
        __m256 e = _mm256_loadu_ps(d + j + 3 * len);
        radix4(a, b, c, e);
        if (fuse) {
          a = _mm256_mul_ps(a, vscale);
          b = _mm256_mul_ps(b, vscale);
          c = _mm256_mul_ps(c, vscale);
          e = _mm256_mul_ps(e, vscale);
        }
        _mm256_storeu_ps(d + j, a);
        _mm256_storeu_ps(d + j + len, b);
        _mm256_storeu_ps(d + j + 2 * len, c);
        _mm256_storeu_ps(d + j + 3 * len, e);
      }
    }
  }
  if (len < n) {
    for (std::size_t j = 0; j < len; j += 8) {
      const __m256 a = _mm256_loadu_ps(d + j);
      const __m256 b = _mm256_loadu_ps(d + j + len);
      __m256 sum = _mm256_add_ps(a, b);
      __m256 diff = _mm256_sub_ps(a, b);
      if (orthonormal) {
        sum = _mm256_mul_ps(sum, vscale);
        diff = _mm256_mul_ps(diff, vscale);
      }
      _mm256_storeu_ps(d + j, sum);
      _mm256_storeu_ps(d + j + len, diff);
    }
  }
}

TG_AVX2 void split_avx2(const float* r, std::size_t n, std::uint8_t* heads,
                        std::uint32_t* mags) noexcept {
  const __m256i magmask = _mm256_set1_epi32(static_cast<int>(kMagMask));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(r + i);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(mags + i),
        _mm256_and_si256(_mm256_castps_si256(v), magmask));
    // movemask bit k = sign of lane k; heads want 1 where the sign is clear.
    const std::uint64_t m = static_cast<unsigned>(_mm256_movemask_ps(v));
    const std::uint64_t spread = ((~m & 0xffu) * kByteOnes) & kLsbSpread;
    const std::uint64_t bytes =
        ((spread + 0x7f7f7f7f7f7f7f7full) >> 7) & kByteOnes;
    std::memcpy(heads + i, &bytes, 8);
  }
  leave_avx();
  if (i < n) split_scalar(r + i, n - i, heads + i, mags + i);
}

TG_AVX2 void join_avx2(const std::uint8_t* heads, const std::uint32_t* tails,
                       const std::uint8_t* trimmed, float scale, float* out,
                       std::size_t n) noexcept {
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(kSignMask));
  const __m256i mag = _mm256_set1_epi32(static_cast<int>(kMagMask));
  const __m256i scale_mag =
      _mm256_set1_epi32(static_cast<int>(f2b(scale) & kMagMask));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i h = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(heads + i)));
    const __m256i tr = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(trimmed + i)));
    const __m256i t = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(tails + i));
    const __m256i signbits =
        _mm256_and_si256(_mm256_cmpeq_epi32(h, zero), sign);
    const __m256i full = _mm256_or_si256(signbits, _mm256_and_si256(t, mag));
    const __m256i trimv = _mm256_or_si256(signbits, scale_mag);
    const __m256i keep_full = _mm256_cmpeq_epi32(tr, zero);
    const __m256i bits = _mm256_blendv_epi8(trimv, full, keep_full);
    _mm256_storeu_ps(out + i, _mm256_castsi256_ps(bits));
  }
  leave_avx();
  if (i < n) join_scalar(heads + i, tails + i, trimmed + i, scale, out + i,
                         n - i);
}

TG_AVX2 void pack_heads_avx2(const float* r, std::size_t n,
                             std::uint8_t* out) noexcept {
  // Reversing the lanes puts coordinate i's sign in movemask bit 7, so the
  // inverted mask is the MSB-first head byte.
  const __m256i reverse = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_permutevar8x32_ps(_mm256_loadu_ps(r + i), reverse);
    out[i / 8] = static_cast<std::uint8_t>(~_mm256_movemask_ps(v));
  }
  leave_avx();
  if (i < n) pack_heads_scalar(r + i, n - i, out + i / 8);
}

TG_AVX2 void join_heads_avx2(const std::uint8_t* heads,
                             const std::uint32_t* mags, float scale,
                             float* out, std::size_t n) noexcept {
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(kSignMask));
  const __m256i mag = _mm256_set1_epi32(static_cast<int>(kMagMask));
  const __m256i scale_mag =
      _mm256_set1_epi32(static_cast<int>(f2b(scale) & kMagMask));
  const __m256i lane_shift = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    // The 32 head bits from stream bit i (a byte boundary), MSB-first in
    // one word; shifting lane k of group j left by 8j + k brings head bit
    // 8j + k to bit 31.
    const std::uint8_t* p = heads + i / 8;
    const std::uint32_t word = std::uint32_t{p[0]} << 24 |
                               std::uint32_t{p[1]} << 16 |
                               std::uint32_t{p[2]} << 8 | p[3];
    const __m256i hw = _mm256_set1_epi32(static_cast<int>(word));
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      const __m256i head = _mm256_sllv_epi32(
          hw, _mm256_add_epi32(lane_shift, _mm256_set1_epi32(8 * j)));
      const __m256i neg = _mm256_andnot_si256(head, sign);
      const __m256i m =
          mags != nullptr
              ? _mm256_and_si256(_mm256_loadu_si256(reinterpret_cast<
                                     const __m256i*>(mags + i + 8 * j)),
                                 mag)
              : scale_mag;
      _mm256_storeu_ps(out + i + 8 * j,
                       _mm256_castsi256_ps(_mm256_or_si256(neg, m)));
    }
  }
  leave_avx();
  if (i < n)
    join_heads_scalar(heads + i / 8, mags != nullptr ? mags + i : nullptr,
                      scale, out + i, n - i);
}

// 31-bit runs: eight values fill exactly 31 bytes, i.e. four big-endian
// 64-bit words w0..w3 of which the last byte belongs to the next group.
// Word k holds v[2k] at shift 33 + 2k, v[2k+1] at 2 + 2k, and the top
// 2k + 2 bits of v[2k+2] at the bottom; per-lane shifts (count 64 gives 0)
// build all four words at once, and unpacking runs the same map backwards.
TG_AVX2 inline __m256i bswap64_lanes() noexcept {
  return _mm256_setr_epi8(7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9,
                          8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10,
                          9, 8);
}

TG_AVX2 void pack31_avx2(const std::uint8_t* in, std::size_t n,
                         std::uint8_t* out) noexcept {
  const std::size_t bytes = (31 * n + 7) / 8;
  const __m256i mag = _mm256_set1_epi32(static_cast<int>(kMagMask));
  const __m256i low = _mm256_set1_epi64x(0xffffffffll);
  const __m256i sh_even = _mm256_setr_epi64x(33, 35, 37, 39);
  const __m256i sh_odd = _mm256_setr_epi64x(2, 4, 6, 8);
  const __m256i sh_next = _mm256_setr_epi64x(29, 27, 25, 64);
  const __m256i bswap = bswap64_lanes();
  std::size_t g = 0;
  // Each group stores 32 bytes; the 32nd is the next group's first byte,
  // written as 0 here and overwritten by that group.
  for (; g + 8 <= n && (g / 8) * 31 + 32 <= bytes; g += 8) {
    const __m256i x = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 4 * g)), mag);
    const __m256i even = _mm256_and_si256(x, low);  // v0 v2 v4 v6
    const __m256i odd = _mm256_srli_epi64(x, 32);   // v1 v3 v5 v7
    const __m256i next = _mm256_permute4x64_epi64(even, 0xF9);  // v2 v4 v6 -
    const __m256i w = _mm256_or_si256(
        _mm256_or_si256(_mm256_sllv_epi64(even, sh_even),
                        _mm256_sllv_epi64(odd, sh_odd)),
        _mm256_srlv_epi64(next, sh_next));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + (g / 8) * 31),
                        _mm256_shuffle_epi8(w, bswap));
  }
  leave_avx();
  if (g < n) pack31_scalar(in + 4 * g, n - g, out + (g / 8) * 31);
}

TG_AVX2 void unpack31_avx2(const std::uint8_t* in, std::size_t bytes,
                           std::size_t n, std::uint32_t* out) noexcept {
  const __m256i mag = _mm256_set1_epi64x(kMagMask);
  const __m256i sh_prev = _mm256_setr_epi64x(64, 29, 27, 25);
  const __m256i sh_even = _mm256_setr_epi64x(33, 35, 37, 39);
  const __m256i sh_odd = _mm256_setr_epi64x(2, 4, 6, 8);
  const __m256i bswap = bswap64_lanes();
  std::size_t g = 0;
  for (; g + 8 <= n && (g / 8) * 31 + 32 <= bytes; g += 8) {
    const __m256i w = _mm256_shuffle_epi8(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(in + (g / 8) * 31)),
        bswap);
    const __m256i prev = _mm256_permute4x64_epi64(w, 0x90);  // w0 w0 w1 w2
    const __m256i even = _mm256_and_si256(
        _mm256_or_si256(_mm256_sllv_epi64(prev, sh_prev),
                        _mm256_srlv_epi64(w, sh_even)),
        mag);
    const __m256i odd = _mm256_and_si256(_mm256_srlv_epi64(w, sh_odd), mag);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + g),
                        _mm256_or_si256(even, _mm256_slli_epi64(odd, 32)));
  }
  leave_avx();
  if (g < n) unpack31_scalar(in + (g / 8) * 31, n - g, out + g);
}

/// One xoshiro256** step on four independent states, one per 64-bit lane.
TG_AVX2 inline void xoshiro_step4(__m256i& s0, __m256i& s1, __m256i& s2,
                                  __m256i& s3) noexcept {
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = _mm256_or_si256(_mm256_slli_epi64(s3, 45), _mm256_srli_epi64(s3, 19));
}

TG_AVX2 void random_signs4_avx2(const float* const* in, float* const* out,
                                std::size_t n,
                                std::uint64_t (*s)[4]) noexcept {
  // Word w of the four states, one row per 64-bit lane.
  alignas(32) std::uint64_t w[4][4];
  for (int r = 0; r < 4; ++r)
    for (int k = 0; k < 4; ++k) w[k][r] = s[r][k];
  __m256i s0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(w[0]));
  __m256i s1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(w[1]));
  __m256i s2 = _mm256_load_si256(reinterpret_cast<const __m256i*>(w[2]));
  __m256i s3 = _mm256_load_si256(reinterpret_cast<const __m256i*>(w[3]));
  const __m256i one = _mm256_set1_epi32(0x3f800000);
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(kSignMask));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Eight draws per row. Draw k's sign bit is bit 57 of s1 + (s1 << 2)
    // (simd.h); shifting left by 6 moves it to bit 31 of the lane's upper
    // dword. u[j] pairs draws 2j and 2j+1 of row r in 64-bit lane r.
    __m256i u[4];
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      const __m256i a = _mm256_slli_epi64(
          _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2)), 6);
      xoshiro_step4(s0, s1, s2, s3);
      const __m256i b = _mm256_slli_epi64(
          _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2)), 6);
      xoshiro_step4(s0, s1, s2, s3);
      u[j] = _mm256_blend_epi32(_mm256_srli_epi64(a, 32), b, 0xAA);
    }
    // 4×4 transpose of 64-bit lanes: row r gets its draws 0..7 in order.
    const __m256i t0 = _mm256_unpacklo_epi64(u[0], u[1]);
    const __m256i t1 = _mm256_unpackhi_epi64(u[0], u[1]);
    const __m256i t2 = _mm256_unpacklo_epi64(u[2], u[3]);
    const __m256i t3 = _mm256_unpackhi_epi64(u[2], u[3]);
    const __m256i row[4] = {_mm256_permute2x128_si256(t0, t2, 0x20),
                            _mm256_permute2x128_si256(t1, t3, 0x20),
                            _mm256_permute2x128_si256(t0, t2, 0x31),
                            _mm256_permute2x128_si256(t1, t3, 0x31)};
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) {
      // A set draw bit gives +1.0f, a clear one -1.0f.
      const __m256 f = _mm256_castsi256_ps(
          _mm256_or_si256(one, _mm256_andnot_si256(row[r], sign)));
      _mm256_storeu_ps(out[r] + i,
                       _mm256_mul_ps(_mm256_loadu_ps(in[r] + i), f));
    }
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(w[0]), s0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(w[1]), s1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(w[2]), s2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(w[3]), s3);
  leave_avx();
  for (int r = 0; r < 4; ++r) {
    for (int k = 0; k < 4; ++k) s[r][k] = w[k][r];
    if (i < n) random_signs_scalar(in[r] + i, out[r] + i, n - i, s[r]);
  }
}

/// Lane r of the k-th returned vector is rows[r][i + k].
TG_AVX2 inline void load_transposed4(const float* const* rows, std::size_t i,
                                     __m128 c[4]) noexcept {
  c[0] = _mm_loadu_ps(rows[0] + i);
  c[1] = _mm_loadu_ps(rows[1] + i);
  c[2] = _mm_loadu_ps(rows[2] + i);
  c[3] = _mm_loadu_ps(rows[3] + i);
  _MM_TRANSPOSE4_PS(c[0], c[1], c[2], c[3]);
}

TG_AVX2 void sum_sq4_avx2(const float* const* rows, std::size_t n,
                          double* sq) noexcept {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 c[4];
    load_transposed4(rows, i, c);
#pragma GCC unroll 4
    for (int k = 0; k < 4; ++k) {
      const __m256d d = _mm256_cvtps_pd(c[k]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
  }
  _mm256_storeu_pd(sq, acc);
  for (int r = 0; r < 4; ++r)
    for (std::size_t k = i; k < n; ++k)
      sq[r] += static_cast<double>(rows[r][k]) * rows[r][k];
}

TG_AVX2 void sum_abs4_avx2(const float* const* rows, std::size_t n,
                           double* abs) noexcept {
  const __m128 sign =
      _mm_castsi128_ps(_mm_set1_epi32(static_cast<int>(kSignMask)));
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 c[4];
    load_transposed4(rows, i, c);
#pragma GCC unroll 4
    for (int k = 0; k < 4; ++k)
      acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm_andnot_ps(sign, c[k])));
  }
  _mm256_storeu_pd(abs, acc);
  for (int r = 0; r < 4; ++r)
    for (std::size_t k = i; k < n; ++k) abs[r] += std::fabs(rows[r][k]);
}

TG_AVX2 void encode_sd_avx2(const float* v, const float* dither,
                            std::size_t n, std::uint8_t* heads,
                            std::uint32_t* tails) noexcept {
  const __m256i mag = _mm256_set1_epi32(static_cast<int>(kMagMask));
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 s = _mm256_add_ps(x, _mm256_loadu_ps(dither + i));
    const std::uint64_t ge = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(s, zero, _CMP_GE_OQ)));
    const std::uint64_t spread = ((ge & 0xffu) * kByteOnes) & kLsbSpread;
    const std::uint64_t bytes =
        ((spread + 0x7f7f7f7f7f7f7f7full) >> 7) & kByteOnes;
    std::memcpy(heads + i, &bytes, 8);
    const __m256i b = _mm256_castps_si256(x);
    const __m256i sgn = _mm256_slli_epi32(_mm256_srli_epi32(b, 31), 30);
    const __m256i em = _mm256_srli_epi32(_mm256_and_si256(b, mag), 1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tails + i),
                        _mm256_or_si256(sgn, em));
  }
  leave_avx();
  if (i < n) encode_sd_scalar(v + i, dither + i, n - i, heads + i, tails + i);
}

// GEMM register tiles. gemm_nn: R rows × V vectors of 8 C columns, held in
// registers across the whole kk loop; each lane is one C element running
// c += a * b in ascending kk with the scalar reference's a == 0 skip (the
// skip tests one A value, so it is uniform across the row's lanes).
template <int R, int V>
TG_AVX2 inline void gemm_nn_tile(const float* a, std::size_t a_row,
                                 std::size_t a_col, const float* b,
                                 float* c, std::size_t n,
                                 std::size_t k) noexcept {
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
      acc[r][v] = _mm256_loadu_ps(c + r * n + v * 8);
  for (std::size_t kk = 0; kk < k; ++kk) {
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(b + kk * n + v * 8);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av = a[r * a_row + kk * a_col];
      if (av == 0.0f) continue;
      const __m256 avb = _mm256_set1_ps(av);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(avb, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
      _mm256_storeu_ps(c + r * n + v * 8, acc[r][v]);
}

/// The leftover rows mod 4, as one tile of exactly that height.
template <int R, int V>
TG_AVX2 inline void gemm_nn_tail(std::size_t rows, const float* a,
                                 std::size_t a_row, std::size_t a_col,
                                 const float* b, float* c, std::size_t n,
                                 std::size_t k) noexcept {
  if constexpr (R > 0) {
    if (rows == R) return gemm_nn_tile<R, V>(a, a_row, a_col, b, c, n, k);
    gemm_nn_tail<R - 1, V>(rows, a, a_row, a_col, b, c, n, k);
  }
}

template <int V>
TG_AVX2 inline void gemm_nn_panel(const float* a, std::size_t a_row,
                                  std::size_t a_col, const float* b, float* c,
                                  std::size_t rows, std::size_t k,
                                  std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4)
    gemm_nn_tile<4, V>(a + i * a_row, a_row, a_col, b, c + i * n, n, k);
  gemm_nn_tail<3, V>(rows - i, a + i * a_row, a_row, a_col, b, c + i * n, n,
                     k);
}

TG_AVX2 void gemm_nn_avx2(const float* a, std::size_t a_row,
                          std::size_t a_col, const float* b, float* c,
                          std::size_t rows, std::size_t k,
                          std::size_t n) noexcept {
  // Column panels outer, so a k×16 panel of B stays in L1 across every row
  // group; leftover columns (n mod 8) take the scalar reference.
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16)
    gemm_nn_panel<2>(a, a_row, a_col, b + j, c + j, rows, k, n);
  for (; j + 8 <= n; j += 8)
    gemm_nn_panel<1>(a, a_row, a_col, b + j, c + j, rows, k, n);
  leave_avx();
  if (j < n) gemm_nn_cols(a, a_row, a_col, b + j, c + j, n, rows, k, n - j);
}

// gemm_nt: lanes run over C *rows*, so the B rows (n×k) are read in their
// stored order, one broadcast per kk, and only Aᵀ needs packing. Tile:
// R C columns × V vectors of 8 C rows; each lane sums a * b from +0 in
// ascending kk and is added to C once at the end, as in the reference.
template <int R, int V>
TG_AVX2 inline void gemm_nt_tile(const float* at, std::size_t ld_at,
                                 const float* b, float* c, std::size_t n,
                                 std::size_t rows, std::size_t k) noexcept {
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < k; ++kk) {
    __m256 av[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) av[v] = _mm256_loadu_ps(at + kk * ld_at + v * 8);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 bb = _mm256_set1_ps(b[r * k + kk]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av[v], bb));
    }
  }
  // Lane l of acc[r][v] is C(v*8 + l, r): add the finished sums into C.
  for (int v = 0; v < V; ++v) {
    const std::size_t lanes =
        std::min<std::size_t>(8, rows - static_cast<std::size_t>(v) * 8);
    for (int r = 0; r < R; ++r) {
      alignas(32) float sum[8];
      _mm256_store_ps(sum, acc[r][v]);
      for (std::size_t l = 0; l < lanes; ++l)
        c[(static_cast<std::size_t>(v) * 8 + l) * n + r] += sum[l];
    }
  }
}

/// The leftover n mod R columns, as one tile of exactly that width.
template <int R, int V>
TG_AVX2 inline void gemm_nt_tail(std::size_t cols, const float* at,
                                 std::size_t ld_at, const float* b, float* c,
                                 std::size_t n, std::size_t rows,
                                 std::size_t k) noexcept {
  if constexpr (R > 0) {
    if (cols == R) return gemm_nt_tile<R, V>(at, ld_at, b, c, n, rows, k);
    gemm_nt_tail<R - 1, V>(cols, at, ld_at, b, c, n, rows, k);
  }
}

template <int R, int V>
TG_AVX2 inline void gemm_nt_panel(const float* at, std::size_t ld_at,
                                  const float* b, float* c, std::size_t n,
                                  std::size_t rows, std::size_t k) noexcept {
  std::size_t j = 0;
  for (; j + R <= n; j += R)
    gemm_nt_tile<R, V>(at, ld_at, b + j * k, c + j, n, rows, k);
  gemm_nt_tail<R - 1, V>(n - j, at, ld_at, b + j * k, c + j, n, rows, k);
}

TG_AVX2 void gemm_nt_avx2(const float* a, const float* b, float* c,
                          std::size_t rows, std::size_t k,
                          std::size_t n) noexcept {
  // k == 0 only adds +0 to each element; the scalar reference does that
  // without touching the (possibly still empty) pack buffer.
  if (k == 0) return gemm_nt_scalar(a, b, c, rows, k, n);
  // Aᵀ packed k × ld_at, rows padded to whole vectors with +0 (the padding
  // lanes are computed and dropped). Grow-only and owned by this thread, so
  // pool workers never share it and steady-state calls never allocate.
  thread_local std::vector<float> pack;
  const std::size_t ld_at = (rows + 7) & ~std::size_t{7};
  if (pack.size() < k * ld_at) pack.resize(k * ld_at);
  float* at = pack.data();
  for (std::size_t i = 0; i < rows; ++i) {
    const float* arow = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) at[kk * ld_at + i] = arow[kk];
  }
  for (std::size_t i = rows; i < ld_at; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) at[kk * ld_at + i] = 0.0f;
  }
  std::size_t v = 0;
  const std::size_t vecs = ld_at / 8;
  for (; v + 2 <= vecs; v += 2)
    gemm_nt_panel<4, 2>(at + v * 8, ld_at, b, c + v * 8 * n, n, rows - v * 8,
                        k);
  if (v < vecs)
    gemm_nt_panel<8, 1>(at + v * 8, ld_at, b, c + v * 8 * n, n, rows - v * 8,
                        k);
}

TG_AVX2 void accumulate_avx2(float* dst, const float* src,
                             std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  leave_avx();
  if (i < n) accumulate_scalar(dst + i, src + i, n - i);
}

TG_AVX2 void relu_forward_avx2(float* x, std::uint8_t* mask,
                               std::size_t n) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    // Ordered greater-than: false for -0, +0 and NaN, so those lanes are
    // and-ed down to +0 exactly as the scalar branch stores 0.0f.
    const __m256 keep = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(x + i, _mm256_and_ps(v, keep));
    const std::uint64_t m = static_cast<unsigned>(_mm256_movemask_ps(keep));
    const std::uint64_t spread = (m * kByteOnes) & kLsbSpread;
    const std::uint64_t bytes =
        ((spread + 0x7f7f7f7f7f7f7f7full) >> 7) & kByteOnes;
    std::memcpy(mask + i, &bytes, 8);
  }
  leave_avx();
  if (i < n) relu_forward_scalar(x + i, mask + i, n - i);
}

TG_AVX2 void relu_backward_avx2(float* g, const std::uint8_t* mask,
                                std::size_t n) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i m = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + i)));
    const __m256 drop = _mm256_castsi256_ps(_mm256_cmpeq_epi32(m, zero));
    _mm256_storeu_ps(g + i, _mm256_andnot_ps(drop, _mm256_loadu_ps(g + i)));
  }
  leave_avx();
  if (i < n) relu_backward_scalar(g + i, mask + i, n - i);
}

bool cpu_has_avx2() noexcept { return __builtin_cpu_supports("avx2"); }

#endif  // TRIMGRAD_SIMD_X86

// ---- NEON kernels --------------------------------------------------------

#if TRIMGRAD_SIMD_NEON

inline float32x4_t neon_stage_len1(float32x4_t v) noexcept {
  const float32x4_t sw = vrev64q_f32(v);  // swap adjacent pairs
  const uint32x4_t mask = {0u, ~0u, 0u, ~0u};
  return vbslq_f32(mask, vsubq_f32(sw, v), vaddq_f32(v, sw));
}

inline float32x4_t neon_stage_len2(float32x4_t v) noexcept {
  const float32x4_t sw = vextq_f32(v, v, 2);  // swap 2-element halves
  const uint32x4_t mask = {0u, 0u, ~0u, ~0u};
  return vbslq_f32(mask, vsubq_f32(sw, v), vaddq_f32(v, sw));
}

void fwht_neon(float* d, std::size_t n, bool orthonormal) noexcept {
  if (n < 8) {
    orthonormal ? fwht_orthonormal_scalar(d, n) : fwht_scalar(d, n);
    return;
  }
  const float scale =
      orthonormal ? 1.0f / std::sqrt(static_cast<float>(n)) : 1.0f;
  const float32x4_t vscale = vdupq_n_f32(scale);
  for (std::size_t i = 0; i < n; i += 4) {
    float32x4_t v = vld1q_f32(d + i);
    v = neon_stage_len2(neon_stage_len1(v));
    vst1q_f32(d + i, v);
  }
  for (std::size_t len = 4; len < n; len <<= 1) {
    const bool fuse = orthonormal && (len << 1) == n;
    for (std::size_t i = 0; i < n; i += len << 1) {
      for (std::size_t j = i; j < i + len; j += 4) {
        const float32x4_t a = vld1q_f32(d + j);
        const float32x4_t b = vld1q_f32(d + j + len);
        float32x4_t sum = vaddq_f32(a, b);
        float32x4_t diff = vsubq_f32(a, b);
        if (fuse) {
          sum = vmulq_f32(sum, vscale);
          diff = vmulq_f32(diff, vscale);
        }
        vst1q_f32(d + j, sum);
        vst1q_f32(d + j + len, diff);
      }
    }
  }
}

void split_neon(const float* r, std::size_t n, std::uint8_t* heads,
                std::uint32_t* mags) noexcept {
  const uint32x4_t magmask = vdupq_n_u32(kMagMask);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t b = vreinterpretq_u32_f32(vld1q_f32(r + i));
    vst1q_u32(mags + i, vandq_u32(b, magmask));
    // head = 1 where the sign bit is clear.
    const uint32x4_t h = veorq_u32(vshrq_n_u32(b, 31), vdupq_n_u32(1));
    heads[i] = static_cast<std::uint8_t>(vgetq_lane_u32(h, 0));
    heads[i + 1] = static_cast<std::uint8_t>(vgetq_lane_u32(h, 1));
    heads[i + 2] = static_cast<std::uint8_t>(vgetq_lane_u32(h, 2));
    heads[i + 3] = static_cast<std::uint8_t>(vgetq_lane_u32(h, 3));
  }
  if (i < n) split_scalar(r + i, n - i, heads + i, mags + i);
}

#endif  // TRIMGRAD_SIMD_NEON

// ---- dispatch ------------------------------------------------------------

Isa best_available() noexcept {
#if TRIMGRAD_SIMD_X86
  if (cpu_has_avx2()) return Isa::kAvx2;
#endif
#if TRIMGRAD_SIMD_NEON
  return Isa::kNeon;
#endif
  return Isa::kScalar;
}

Isa clamp_to_available(Isa want) noexcept {
  const Isa avail = best_available();
  return static_cast<std::uint8_t>(want) <= static_cast<std::uint8_t>(avail)
             ? want
             : avail;
}

Isa resolve_initial() noexcept {
  if (const char* env = std::getenv("TRIMGRAD_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) return Isa::kScalar;
    if (std::strcmp(env, "avx2") == 0) return clamp_to_available(Isa::kAvx2);
    if (std::strcmp(env, "neon") == 0) return clamp_to_available(Isa::kNeon);
    // Unrecognized values fall through to auto-detection.
  }
  return best_available();
}

std::atomic<int> g_isa{-1};

}  // namespace

const char* to_string(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kNeon: return "neon";
    case Isa::kAvx2: return "avx2";
  }
  return "?";
}

Isa compiled_isa() noexcept {
#if TRIMGRAD_SIMD_X86
  return Isa::kAvx2;
#elif TRIMGRAD_SIMD_NEON
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

Isa active_isa() noexcept {
  const int v = g_isa.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Isa>(v);
  const Isa resolved = resolve_initial();
  g_isa.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

Isa set_isa(Isa isa) noexcept {
  const Isa clamped = clamp_to_available(isa);
  g_isa.store(static_cast<int>(clamped), std::memory_order_relaxed);
  return clamped;
}

void fwht(float* data, std::size_t n) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return fwht_avx2(data, n, false);
#endif
#if TRIMGRAD_SIMD_NEON
  if (active_isa() == Isa::kNeon) return fwht_neon(data, n, false);
#endif
  fwht_scalar(data, n);
}

void fwht_orthonormal(float* data, std::size_t n) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return fwht_avx2(data, n, true);
#endif
#if TRIMGRAD_SIMD_NEON
  if (active_isa() == Isa::kNeon) return fwht_neon(data, n, true);
#endif
  fwht_orthonormal_scalar(data, n);
}

void split_sign_mag(const float* r, std::size_t n, std::uint8_t* heads,
                    std::uint32_t* mags) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return split_avx2(r, n, heads, mags);
#endif
#if TRIMGRAD_SIMD_NEON
  if (active_isa() == Isa::kNeon) return split_neon(r, n, heads, mags);
#endif
  split_scalar(r, n, heads, mags);
}

void join_sign_mag(const std::uint8_t* heads, const std::uint32_t* tails,
                   const std::uint8_t* trimmed, float scale, float* out,
                   std::size_t n) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2)
    return join_avx2(heads, tails, trimmed, scale, out, n);
#endif
  join_scalar(heads, tails, trimmed, scale, out, n);
}

void pack_heads(const float* r, std::size_t n, std::uint8_t* out) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return pack_heads_avx2(r, n, out);
#endif
  pack_heads_scalar(r, n, out);
}

void join_heads(const std::uint8_t* heads, const std::uint32_t* mags,
                float scale, float* out, std::size_t n) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2)
    return join_heads_avx2(heads, mags, scale, out, n);
#endif
  join_heads_scalar(heads, mags, scale, out, n);
}

void pack31(const void* in, std::size_t n, std::uint8_t* out) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(in);
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return pack31_avx2(bytes, n, out);
#endif
  pack31_scalar(bytes, n, out);
}

void unpack31(const std::uint8_t* in, std::size_t bytes, std::size_t n,
              std::uint32_t* out) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return unpack31_avx2(in, bytes, n, out);
#endif
  (void)bytes;
  unpack31_scalar(in, n, out);
}

void random_signs(const float* in, float* out, std::size_t n,
                  std::uint64_t* s) noexcept {
  random_signs_scalar(in, out, n, s);
}

void random_signs4(const float* const* in, float* const* out, std::size_t n,
                   std::uint64_t (*s)[4]) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return random_signs4_avx2(in, out, n, s);
#endif
  random_signs4_scalar(in, out, n, s);
}

void sum_sq4(const float* const* rows, std::size_t n, double* sq) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return sum_sq4_avx2(rows, n, sq);
#endif
  sum_sq4_scalar(rows, n, sq);
}

void sum_abs4(const float* const* rows, std::size_t n, double* abs) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return sum_abs4_avx2(rows, n, abs);
#endif
  sum_abs4_scalar(rows, n, abs);
}

void encode_sd(const float* v, const float* dither, std::size_t n,
               std::uint8_t* heads, std::uint32_t* tails) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2)
    return encode_sd_avx2(v, dither, n, heads, tails);
#endif
  encode_sd_scalar(v, dither, n, heads, tails);
}

void gemm_nn(const float* a, std::size_t a_row, std::size_t a_col,
             const float* b, float* c, std::size_t rows, std::size_t k,
             std::size_t n) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2)
    return gemm_nn_avx2(a, a_row, a_col, b, c, rows, k, n);
#endif
  gemm_nn_cols(a, a_row, a_col, b, c, n, rows, k, n);
}

void gemm_nt(const float* a, const float* b, float* c, std::size_t rows,
             std::size_t k, std::size_t n) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return gemm_nt_avx2(a, b, c, rows, k, n);
#endif
  gemm_nt_scalar(a, b, c, rows, k, n);
}

void accumulate(float* dst, const float* src, std::size_t n) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return accumulate_avx2(dst, src, n);
#endif
  accumulate_scalar(dst, src, n);
}

void relu_forward(float* x, std::uint8_t* mask, std::size_t n) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return relu_forward_avx2(x, mask, n);
#endif
  relu_forward_scalar(x, mask, n);
}

void relu_backward(float* g, const std::uint8_t* mask,
                   std::size_t n) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2) return relu_backward_avx2(g, mask, n);
#endif
  relu_backward_scalar(g, mask, n);
}

}  // namespace trimgrad::core::simd
