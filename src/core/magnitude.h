// Magnitude-ordered coordinate placement (paper §2, second paragraph): the
// layout-strawman helpers behind the X2 ablation (bench_ablation_estimators,
// part c). This is not a codec; no wire scheme uses it.
//
// Before introducing the head/tail split, the paper discusses the
// MLT-inspired strawman: place large-magnitude coordinates near the packet
// front so that trimming discards the small ones. That only buys ~20 %
// trimming headroom (hence the head/tail design); the ablation quantifies
// exactly that limitation. The receiver would need the placement
// permutation to restore coordinate order, and `permutation_overhead_bytes`
// makes the cost of shipping it explicit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace trimgrad::core {

/// Permutation that sorts coordinates by descending |v| (stable in index
/// for ties, so it is reproducible).
std::vector<std::uint32_t> magnitude_order(std::span<const float> values);

/// out[i] = values[perm[i]] — gather into placement order.
std::vector<float> apply_permutation(std::span<const float> values,
                                     std::span<const std::uint32_t> perm);

/// Inverse of apply_permutation: restores original coordinate order.
/// survived[i] == 0 marks placement slots whose value was discarded by
/// trimming; the corresponding original coordinates decode to 0.
std::vector<float> invert_permutation(std::span<const float> placed,
                                      std::span<const std::uint32_t> perm,
                                      std::span<const std::uint8_t> survived);

/// Bytes needed to ship the permutation reliably (ceil(log2(n)) bits each).
std::size_t permutation_overhead_bytes(std::size_t n) noexcept;

}  // namespace trimgrad::core
