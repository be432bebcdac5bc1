#include "core/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

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

void encode_sd_scalar(const float* v, const float* dither, std::size_t n,
                      std::uint8_t* heads, std::uint32_t* tails) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    heads[i] = v[i] + dither[i] >= 0.0f ? 1 : 0;
    const std::uint32_t b = f2b(v[i]);
    tails[i] = ((b >> 31) << 30) | ((b & kMagMask) >> 1);
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

TG_AVX2 void fwht_avx2(float* d, std::size_t n, bool orthonormal) noexcept {
  if (n < 8) {
    orthonormal ? fwht_orthonormal_scalar(d, n) : fwht_scalar(d, n);
    return;
  }
  const float scale =
      orthonormal ? 1.0f / std::sqrt(static_cast<float>(n)) : 1.0f;
  // Stages len=1,2,4 in one sweep (len=4 is the final stage when n == 8).
  const bool fuse_here = orthonormal && n == 8;
  const __m256 vscale = _mm256_set1_ps(scale);
  for (std::size_t i = 0; i < n; i += 8) {
    __m256 v = _mm256_loadu_ps(d + i);
    v = stage_len4(stage_len2(stage_len1(v)));
    if (fuse_here) v = _mm256_mul_ps(v, vscale);
    _mm256_storeu_ps(d + i, v);
  }
  // Stages len >= 8: plain paired add/sub sweeps; the 1/sqrt(n) scale is
  // fused into the final stage exactly like the scalar reference.
  for (std::size_t len = 8; len < n; len <<= 1) {
    const bool fuse = orthonormal && (len << 1) == n;
    for (std::size_t i = 0; i < n; i += len << 1) {
      for (std::size_t j = i; j < i + len; j += 8) {
        const __m256 a = _mm256_loadu_ps(d + j);
        const __m256 b = _mm256_loadu_ps(d + j + len);
        __m256 sum = _mm256_add_ps(a, b);
        __m256 diff = _mm256_sub_ps(a, b);
        if (fuse) {
          sum = _mm256_mul_ps(sum, vscale);
          diff = _mm256_mul_ps(diff, vscale);
        }
        _mm256_storeu_ps(d + j, sum);
        _mm256_storeu_ps(d + j + len, diff);
      }
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
  if (i < n) join_scalar(heads + i, tails + i, trimmed + i, scale, out + i,
                         n - i);
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
  if (i < n) encode_sd_scalar(v + i, dither + i, n - i, heads + i, tails + i);
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

void encode_sd(const float* v, const float* dither, std::size_t n,
               std::uint8_t* heads, std::uint32_t* tails) noexcept {
#if TRIMGRAD_SIMD_X86
  if (active_isa() == Isa::kAvx2)
    return encode_sd_avx2(v, dither, n, heads, tails);
#endif
  encode_sd_scalar(v, dither, n, heads, tails);
}

}  // namespace trimgrad::core::simd
