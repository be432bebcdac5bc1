// SIMD kernel dispatch for the codec and training hot paths.
//
// Every inner loop that moves a gradient coordinate — FWHT butterflies,
// sign/magnitude splits, scalar-scheme bulk encodes — and every hot loop
// of the ML layers — the three GEMMs, ReLU, col2im's accumulate — funnels
// through this header so there is exactly one place where instruction sets
// are chosen. Up to three implementations exist per kernel:
//
//   * AVX2 (x86-64)  — compiled with per-function target attributes, so the
//     default build carries the vector code even without -mavx2; it is only
//     *executed* after a runtime cpuid check.
//   * NEON (aarch64) — compiled when __ARM_NEON is available; only fwht and
//     split_sign_mag have one, the other kernels run their scalar reference.
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
// independent elements* — each output element is computed in one lane
// through the exact same sequence of IEEE-754 operations the scalar
// reference performs (adds/subs/muls/divides/compares/bit twiddles, each
// rounded on its own: never an FMA, never a reassociated reduction). For
// the elementwise kernels element i depends only on element i of the
// inputs; a GEMM lane runs one C element's whole ascending-k sequence.
// Vector and scalar paths therefore produce bit-identical results, which
// is what lets SIMD-vs-scalar builds (and any TRIMGRAD_THREADS) decode each
// other's packets and train the same weights. A lane may also own a whole
// sequential computation of one row: a row's entire xoshiro256** sign
// stream (random_signs4), or a row's ascending-index double sum (sum_sq4,
// sum_abs4). Such kernels run four rows side by side, one per lane, and
// never split or reorder one row's sequence, so they too match the scalar
// reference bit for bit. A reduction across lanes of one row (a
// reassociated sum) is never used. tests/core/simd_test.cpp and
// tests/ml/tensor_test.cpp enforce the contract kernel by kernel.
//
// The lockstep sign stream needs no 64-bit multiply. xoshiro256** returns
// x = rotl(s1·5, 7)·9 and the sign uses bit 0 of x. Multiplying by the odd
// 9 keeps bit 0; rotl by 7 moves bit 57 to bit 0; and s1·5 = s1 + (s1 << 2).
// So the sign bit is bit 57 of s1 + (s1 << 2): one shift and one add per
// lane, while AVX2 has no 64-bit lane multiply.
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

/// Head bits of n coordinates, packed MSB-first into bytes_for_bits(n)
/// bytes of `out`: bit i is 1 where r[i]'s sign bit is clear (the RHT and
/// sign-scheme head). The unused low bits of a partial last byte are 0.
void pack_heads(const float* r, std::size_t n, std::uint8_t* out) noexcept;

/// Decode-side join of one packet's coordinates, straight from its head
/// region: head i is bit i of the MSB-first `heads` stream, and
///   out[i] = float((head i ? 0 : sign bit) | (mags[i] & 0x7fffffff)),
/// or, with mags == nullptr (a trimmed packet), the magnitude bits of
/// `scale` in place of mags[i]: ±|scale| with the head's sign.
void join_heads(const std::uint8_t* heads, const std::uint32_t* mags,
                float scale, float* out, std::size_t n) noexcept;

/// The 31-bit tail run: pack n values (native 32-bit words of `in`, e.g.
/// float bits, masked to their low 31 bits) MSB-first into the
/// ceil(31·n/8) bytes at `out`, with the unused low bits of a partial last
/// byte zero — the stream n BitWriter::put(v, 31) calls write.
void pack31(const void* in, std::size_t n, std::uint8_t* out) noexcept;

/// Inverse of pack31: read n 31-bit values MSB-first from `in`, which
/// holds `bytes` >= ceil(31·n/8) bytes; never reads past `bytes`.
void unpack31(const std::uint8_t* in, std::size_t bytes, std::size_t n,
              std::uint32_t* out) noexcept;

// ---- RHT sign streams and row norms, four rows in lockstep ---------------
//
// D in R = H·D·V draws one xoshiro256** output per coordinate from the row's
// own stream (core/prng.h) and multiplies by +1.0f where bit 0 of the draw
// is set, else -1.0f. The "4" kernels take four rows of equal length; the
// AVX2 bodies give each row one lane and run the four rows in lockstep,
// while the scalar reference runs the rows one after another.

/// One row: out[i] = in[i] * (bit 0 of draw i ? +1.0f : -1.0f), drawing
/// from the xoshiro256** state `s` (Xoshiro256::state() order) in index
/// order and leaving it n draws on. in == out is allowed. The scalar
/// reference of random_signs4, and the path for rows outside a group of 4.
void random_signs(const float* in, float* out, std::size_t n,
                  std::uint64_t* s) noexcept;

/// random_signs on four rows of n coordinates: row r reads in[r], writes
/// out[r] (which may equal in[r]) and advances the state s[r].
void random_signs4(const float* const* in, float* const* out, std::size_t n,
                   std::uint64_t (*s)[4]) noexcept;

/// Per-row norms of four rows of n floats, each a double sum from +0 in
/// ascending index order (stats.h's l2_norm_sq and l1_norm, bit for bit):
/// sq[r] = Σ double(x)·double(x) and abs[r] = Σ double(|x|).
void sum_sq4(const float* const* rows, std::size_t n, double* sq) noexcept;
void sum_abs4(const float* const* rows, std::size_t n, double* abs) noexcept;

// ---- scalar-scheme bulk encodes ------------------------------------------

/// Subtractive-dithering encode: heads[i] = (v[i] + dither[i] >= 0),
/// tails[i] = sign(1) | exponent(8) | mantissa[22..1] of v[i] (31 bits).
void encode_sd(const float* v, const float* dither, std::size_t n,
               std::uint8_t* heads, std::uint32_t* tails) noexcept;

// ---- GEMM micro-kernels (ml/tensor.cpp) ----------------------------------
//
// Each output element is computed by the same IEEE-754 sequence on every
// path: products and sums are separate roundings in ascending kk, never an
// FMA and never a reassociated reduction. The vector bodies keep one
// element per lane (across output columns for gemm_nn, across output rows
// for gemm_nt) and hold the running value in a register for the whole kk
// loop, which the scalar reference does in memory.

/// C(rows×n) += A·B with B k×n row-major and A(i, kk) read from
/// a[i * a_row + kk * a_col] (so A may be stored transposed). Every C
/// element accumulates c += a * b directly, in ascending kk, and terms with
/// a == 0 are skipped — which keeps a -0 in C and keeps an Inf/NaN in B out
/// of C.
void gemm_nn(const float* a, std::size_t a_row, std::size_t a_col,
             const float* b, float* c, std::size_t rows, std::size_t k,
             std::size_t n) noexcept;

/// C(rows×n) += A(rows×k)·Bᵀ with B stored n×k: every C element is a dot
/// product summed from +0 in ascending kk, then added to C once. The AVX2
/// body packs Aᵀ into a grow-only scratch buffer owned by the calling
/// thread (no allocation once it has grown to the largest shape).
void gemm_nt(const float* a, const float* b, float* c, std::size_t rows,
             std::size_t k, std::size_t n) noexcept;

// ---- elementwise float kernels (ml/layers.cpp) ----------------------------

/// dst[i] += src[i] for i < n; the ranges must not overlap.
void accumulate(float* dst, const float* src, std::size_t n) noexcept;

/// In place: x[i] = x[i] > 0 ? x[i] : +0 (so -0 and NaN become +0), and
/// mask[i] = 1 exactly where x[i] was kept.
void relu_forward(float* x, std::uint8_t* mask, std::size_t n) noexcept;

/// In place: g[i] = mask[i] != 0 ? g[i] : +0.
void relu_backward(float* g, const std::uint8_t* mask, std::size_t n) noexcept;

}  // namespace trimgrad::core::simd
