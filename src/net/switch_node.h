// Output-queued switch with static routing and optional ECMP groups.
//
// Forwarding is a destination-indexed table built by the topology helpers.
// Each egress port owns its queue (drop-tail / trim / ECN per QueueConfig),
// so trimming is a purely local decision at the congested hop — exactly the
// deployment model of §1 (Tofino / Trident 4 / Spectrum 2 support it today).
#pragma once

#include <cstdint>
#include <vector>

#include "net/sim.h"

namespace trimgrad::net {

class SwitchNode : public Node {
 public:
  SwitchNode(Simulator& sim, NodeId id, std::string name)
      : Node(sim, id, std::move(name)) {}

  /// Route frames for `dst` out of `port_idx`.
  void set_route(NodeId dst, std::size_t port_idx) {
    route_entry(dst) = {port_idx};
  }

  /// ECMP: frames for `dst` hash (by flow id) across `port_idxs`.
  void set_ecmp_route(NodeId dst, std::vector<std::size_t> port_idxs) {
    route_entry(dst) = std::move(port_idxs);
  }

  /// Fallback port when no table entry matches (e.g. leaf uplink).
  void set_default_route(std::size_t port_idx) { default_group_ = {port_idx}; }

  /// ECMP fallback: unmatched frames hash across `port_idxs` (fat-tree
  /// edge/agg uplinks, where per-remote-host entries would be wasteful).
  void set_default_ecmp(std::vector<std::size_t> port_idxs) {
    default_group_ = std::move(port_idxs);
  }

  void on_frame(Frame&& frame) override;

  /// The exact egress port the datapath would pick for (dst, flow_id),
  /// including the ECMP hash; -1 if the frame would be unroutable. This is
  /// the hook the topology invariant tests use to walk paths.
  std::ptrdiff_t egress_for(NodeId dst, std::uint32_t flow_id) const noexcept;

  /// Frames that arrived with no usable route (counted, then dropped).
  std::uint64_t unroutable() const noexcept { return unroutable_; }

 private:
  std::vector<std::size_t>& route_entry(NodeId dst) {
    if (dst >= routes_.size()) routes_.resize(std::size_t{dst} + 1);
    return routes_[dst];
  }

  /// Egress group by destination id; an empty group means "no entry".
  std::vector<std::vector<std::size_t>> routes_;
  std::vector<std::size_t> default_group_;
  std::uint64_t unroutable_ = 0;
};

}  // namespace trimgrad::net
