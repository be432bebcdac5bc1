#include "ml/tensor.h"

#include <algorithm>

#include "core/simd.h"
#include "core/threadpool.h"

namespace trimgrad::ml {

namespace {

/// Minimum multiply-adds per parallel chunk; below this the dispatch
/// overhead dominates and parallel_for degrades to an inline call. Retuned
/// upward after the FunctionRef/latch pool rework: dispatch itself got
/// cheaper, but splitting a sub-128k-flop GEMM still loses more to cold B
/// slabs per chunk than it gains in parallelism.
constexpr std::size_t kGrainFlops = std::size_t{1} << 17;

std::size_t row_grain(std::size_t flops_per_row) noexcept {
  return std::max<std::size_t>(1, kGrainFlops / std::max<std::size_t>(1, flops_per_row));
}

}  // namespace

// Row-parallel: each chunk owns a contiguous block of C rows and hands it
// to a core::simd kernel, which computes every element by a fixed sequence
// of roundings — so results are bit-identical for every thread count (see
// threadpool.h's determinism contract) and every ISA (see simd.h).

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) noexcept {
  core::ThreadPool::global().parallel_for(
      m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
        core::simd::gemm_nn(a + i0 * k, k, 1, b, c + i0 * n, i1 - i0, k, n);
      });
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t k,
               std::size_t m, std::size_t n) noexcept {
  // A is stored k×m: row i of Aᵀ is column i of A, so each chunk reads its
  // own column strip and no two chunks touch the same C row.
  core::ThreadPool::global().parallel_for(
      m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
        core::simd::gemm_nn(a + i0, 1, m, b, c + i0 * n, i1 - i0, k, n);
      });
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) noexcept {
  core::ThreadPool::global().parallel_for(
      m, row_grain(k * n), [&](std::size_t i0, std::size_t i1) {
        core::simd::gemm_nt(a + i0 * k, b, c + i0 * n, i1 - i0, k, n);
      });
}

}  // namespace trimgrad::ml
