// Low-rank gradient factorization for the rank-ordered trimmable layout
// (paper §5.2 + §5.3's open question, built out).
//
// PowerSGD-style factorization: a layer's gradient matrix M (n×m) is
// approximated by P·Qᵀ with rank-r factors obtained by subspace iteration.
// The paper asks for "a certain encoding format for laying out different
// ranks in the packet payload, such that trimming arbitrary packets always
// affects only the ranks with the least importance (smallest eigenvalue)".
//
// The "lowrank" codec (core/codec_registry.cpp) delivers exactly that
// property on top of these factors:
//  * components (columns of P/Q) are sorted by importance (‖p_k‖, the
//    singular-value proxy);
//  * the small Q factor rides the reliable metadata channel (like the
//    codec's scales);
//  * P is sliced row-wise across GradientPackets; within every packet the
//    most important components form the head region and the rest the tail,
//    so a switch trim cuts only the least-important components of that
//    slice — any subset of packets can be trimmed and the damage is always
//    confined to the smallest-singular-value ranks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace trimgrad::core {

/// Rank-r factorization M ≈ P·Qᵀ, components sorted by importance.
struct LowRankFactors {
  std::size_t rows = 0;  ///< n
  std::size_t cols = 0;  ///< m
  std::size_t rank = 0;  ///< r
  std::vector<float> p;  ///< n×r, column-major by component: p[k*n + i]
  std::vector<float> q;  ///< m×r, column-major by component, orthonormal
  std::vector<float> importance;  ///< ‖p_k‖ per component, descending

  /// Reconstruct M̂ = P·Qᵀ using only the first `use_rank` components.
  std::vector<float> reconstruct(std::size_t use_rank) const;
};

/// Power iterations the lowrank codec runs per message.
inline constexpr unsigned kLowRankPowerIters = 2;

/// PowerSGD-style subspace iteration (deterministic given the seed).
/// `iters` power iterations; 1–2 suffice for gradient matrices.
LowRankFactors power_factorize(std::span<const float> m, std::size_t rows,
                               std::size_t cols, std::size_t rank,
                               unsigned iters, std::uint64_t seed);

}  // namespace trimgrad::core
