// SIMD kernel dispatch for the codec hot paths.
//
// Every inner loop that moves a gradient coordinate — FWHT butterflies,
// sign/magnitude splits, scalar-scheme bulk encodes — funnels through this
// header so there is exactly one place where instruction sets are chosen.
// Three implementations exist per kernel:
//
//   * AVX2 (x86-64)  — compiled with per-function target attributes, so the
//     default build carries the vector code even without -mavx2; it is only
//     *executed* after a runtime cpuid check.
//   * NEON (aarch64) — compiled when __ARM_NEON is available.
//   * scalar         — the reference; always compiled, always available.
//
// Dispatch policy: at first use the active ISA is resolved as
// min(best compiled, best the CPU supports, TRIMGRAD_SIMD override). The
// TRIMGRAD_SIMD environment variable ("scalar", "avx2", "neon") exists so
// tests can run the same binary down both paths and assert bit-identity,
// and so a misbehaving vector path can be disabled in the field without a
// rebuild. set_isa() does the same programmatically (tests/benches).
//
// Determinism contract: every kernel here is *lane-parallel over
// independent elements* — element i of the output depends only on element i
// of the inputs, through the exact same IEEE-754 operations the scalar
// reference performs (adds/subs/divides/compares/bit twiddles; never a
// reassociated reduction). Vector and scalar paths therefore produce
// bit-identical results, which is what lets SIMD-vs-scalar builds (and any
// TRIMGRAD_THREADS) decode each other's packets exactly. Reductions with
// order-sensitive rounding (row norms) deliberately stay scalar in their
// callers. tests/core/simd_test.cpp enforces the contract kernel by kernel.
#pragma once

#include <cstddef>
#include <cstdint>

namespace trimgrad::core::simd {

enum class Isa : std::uint8_t { kScalar = 0, kNeon = 1, kAvx2 = 2 };

const char* to_string(Isa isa) noexcept;

/// Best ISA this binary was compiled with kernels for.
Isa compiled_isa() noexcept;

/// ISA the kernels will actually use (compiled ∧ CPU-supported ∧ override).
Isa active_isa() noexcept;

/// Force an ISA at or below what compiled/CPU support allows (requests are
/// clamped). Intended for tests and benches; returns the ISA now active.
Isa set_isa(Isa isa) noexcept;

// ---- FWHT ----------------------------------------------------------------

/// In-place unnormalized fast Walsh–Hadamard transform over n = 2^k floats.
/// Bit-identical to the textbook nested-loop form.
void fwht(float* data, std::size_t n) noexcept;

/// fwht with the 1/sqrt(n) scale fused into the final butterfly stage
/// (same multiply a separate scaling pass would do — one fewer sweep).
/// n must be >= 2; n == 1 is the identity with scale exactly 1.
void fwht_orthonormal(float* data, std::size_t n) noexcept;

// ---- sign/magnitude split & join (RHT and sign-scheme heads) -------------

/// heads[i] = (sign bit of r[i] clear) ? 1 : 0; mags[i] = bits & 0x7fffffff.
void split_sign_mag(const float* r, std::size_t n, std::uint8_t* heads,
                    std::uint32_t* mags) noexcept;

/// Inverse of split_sign_mag with per-coordinate trim fallback:
///   out[i] = trimmed[i] ? ±scale (sign from head) : float(head|tail bits).
void join_sign_mag(const std::uint8_t* heads, const std::uint32_t* tails,
                   const std::uint8_t* trimmed, float scale, float* out,
                   std::size_t n) noexcept;

// ---- scalar-scheme bulk encodes ------------------------------------------

/// Subtractive-dithering encode: heads[i] = (v[i] + dither[i] >= 0),
/// tails[i] = sign(1) | exponent(8) | mantissa[22..1] of v[i] (31 bits).
void encode_sd(const float* v, const float* dither, std::size_t n,
               std::uint8_t* heads, std::uint32_t* tails) noexcept;

}  // namespace trimgrad::core::simd
