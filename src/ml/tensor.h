// Minimal dense float tensor for the CPU training substrate.
//
// This library exists so the reproduction can *train a real model through
// the trimmable-gradient pipeline* without PyTorch/CUDA (see DESIGN.md
// substitutions). It is deliberately simple: row-major float storage,
// explicit shapes, no autograd graph — layers implement their own backward.
#pragma once

#include <cassert>
#include <cstddef>
#include <numeric>
#include <vector>

namespace trimgrad::ml {

struct Tensor {
  std::vector<std::size_t> shape;
  std::vector<float> data;

  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> s) : shape(std::move(s)) {
    data.assign(count(shape), 0.0f);
  }
  Tensor(std::vector<std::size_t> s, std::vector<float> d)
      : shape(std::move(s)), data(std::move(d)) {
    assert(data.size() == count(shape));
  }

  static std::size_t count(const std::vector<std::size_t>& s) noexcept {
    std::size_t n = 1;
    for (std::size_t d : s) n *= d;
    return n;
  }

  std::size_t size() const noexcept { return data.size(); }
  std::size_t dim(std::size_t i) const { return shape.at(i); }

  /// Reinterpret as a new shape with the same element count.
  Tensor reshaped(std::vector<std::size_t> s) const {
    assert(count(s) == size());
    return Tensor{std::move(s), data};
  }

  float* ptr() noexcept { return data.data(); }
  const float* ptr() const noexcept { return data.data(); }
};

/// C(m×n) += A(m×k) · B(k×n), row-major: each element accumulates
/// c += a·b in ascending k, skipping a == 0 terms (core/simd.h gemm_nn).
void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) noexcept;

/// C(m×n) += Aᵀ · B with A stored k×m and B k×n, accumulating into C in
/// ascending k exactly like gemm_accumulate (used by conv/linear backward).
void gemm_at_b(const float* a, const float* b, float* c, std::size_t k,
               std::size_t m, std::size_t n) noexcept;

/// C(m×n) += A(m×k) · B(n×k)ᵀ: each element is a dot product summed from
/// +0 in ascending k, then added to C once.
void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) noexcept;

}  // namespace trimgrad::ml
