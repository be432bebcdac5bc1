#include "core/lowrank.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "core/prng.h"

namespace trimgrad::core {

namespace {

/// Modified Gram-Schmidt on the r columns of a (len×r, column-major)
/// matrix. Near-zero columns are replaced by zero (rank deficiency).
void orthonormalize(std::vector<float>& a, std::size_t len, std::size_t r) {
  for (std::size_t k = 0; k < r; ++k) {
    float* col = a.data() + k * len;
    for (std::size_t j = 0; j < k; ++j) {
      const float* prev = a.data() + j * len;
      double dot = 0;
      for (std::size_t i = 0; i < len; ++i) dot += double(col[i]) * prev[i];
      for (std::size_t i = 0; i < len; ++i)
        col[i] -= static_cast<float>(dot) * prev[i];
    }
    double norm_sq = 0;
    for (std::size_t i = 0; i < len; ++i) norm_sq += double(col[i]) * col[i];
    const double norm = std::sqrt(norm_sq);
    if (norm < 1e-20) {
      std::fill(col, col + len, 0.0f);
      continue;
    }
    for (std::size_t i = 0; i < len; ++i)
      col[i] = static_cast<float>(col[i] / norm);
  }
}

/// dst(len×r) = op(M)·src where op(M) is M (rows×cols) or Mᵀ.
void mat_apply(std::span<const float> m, std::size_t rows, std::size_t cols,
               bool transpose, const std::vector<float>& src,
               std::size_t src_len, std::vector<float>& dst,
               std::size_t dst_len, std::size_t r) {
  assert(src.size() >= src_len * r);
  dst.assign(dst_len * r, 0.0f);
  for (std::size_t k = 0; k < r; ++k) {
    const float* s = src.data() + k * src_len;
    float* d = dst.data() + k * dst_len;
    if (!transpose) {
      // d(rows) = M·s(cols)
      for (std::size_t i = 0; i < rows; ++i) {
        const float* row = m.data() + i * cols;
        double acc = 0;
        for (std::size_t j = 0; j < cols; ++j) acc += double(row[j]) * s[j];
        d[i] = static_cast<float>(acc);
      }
    } else {
      // d(cols) = Mᵀ·s(rows)
      for (std::size_t i = 0; i < rows; ++i) {
        const float* row = m.data() + i * cols;
        const float si = s[i];
        if (si == 0.0f) continue;
        for (std::size_t j = 0; j < cols; ++j) d[j] += row[j] * si;
      }
    }
  }
}

}  // namespace

std::vector<float> LowRankFactors::reconstruct(std::size_t use_rank) const {
  const std::size_t r = std::min(use_rank, rank);
  std::vector<float> m(rows * cols, 0.0f);
  for (std::size_t k = 0; k < r; ++k) {
    const float* pk = p.data() + k * rows;
    const float* qk = q.data() + k * cols;
    for (std::size_t i = 0; i < rows; ++i) {
      if (pk[i] == 0.0f) continue;
      float* row = m.data() + i * cols;
      for (std::size_t j = 0; j < cols; ++j) row[j] += pk[i] * qk[j];
    }
  }
  return m;
}

LowRankFactors power_factorize(std::span<const float> m, std::size_t rows,
                               std::size_t cols, std::size_t rank,
                               unsigned iters, std::uint64_t seed) {
  assert(m.size() == rows * cols);
  const std::size_t r = std::min({rank, rows, cols});
  LowRankFactors f;
  f.rows = rows;
  f.cols = cols;
  f.rank = r;

  // Random init of Q (m×r), then alternate P = M·Q / orth, Q = Mᵀ·P / orth.
  Xoshiro256 rng(seed);
  f.q.assign(cols * r, 0.0f);
  for (auto& x : f.q) x = static_cast<float>(rng.gaussian());
  orthonormalize(f.q, cols, r);

  for (unsigned it = 0; it < iters; ++it) {
    mat_apply(m, rows, cols, false, f.q, cols, f.p, rows, r);
    orthonormalize(f.p, rows, r);
    mat_apply(m, rows, cols, true, f.p, rows, f.q, cols, r);
    orthonormalize(f.q, cols, r);
  }
  // Final P = M·Q against the orthonormal Q: M ≈ P·Qᵀ with ‖p_k‖ as the
  // singular-value proxy.
  mat_apply(m, rows, cols, false, f.q, cols, f.p, rows, r);

  // Sort components by descending ‖p_k‖.
  std::vector<double> norms(r, 0.0);
  for (std::size_t k = 0; k < r; ++k) {
    const float* pk = f.p.data() + k * rows;
    for (std::size_t i = 0; i < rows; ++i)
      norms[k] += double(pk[i]) * pk[i];
  }
  std::vector<std::size_t> order(r);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return norms[a] > norms[b];
                   });
  std::vector<float> p_sorted(f.p.size()), q_sorted(f.q.size());
  f.importance.resize(r);
  for (std::size_t k = 0; k < r; ++k) {
    const std::size_t src = order[k];
    std::copy_n(f.p.data() + src * rows, rows, p_sorted.data() + k * rows);
    std::copy_n(f.q.data() + src * cols, cols, q_sorted.data() + k * cols);
    f.importance[k] = static_cast<float>(std::sqrt(norms[src]));
  }
  f.p = std::move(p_sorted);
  f.q = std::move(q_sorted);
  return f;
}

}  // namespace trimgrad::core
