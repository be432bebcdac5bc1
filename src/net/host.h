// Host node: demultiplexes arriving frames to transport endpoints by flow.
//
// Hosts are single-homed in all of our topologies (one NIC port); the
// endpoint registry is how senders/receivers (src/net/transport.h) and
// application generators (src/net/traffic.h) attach to the fabric.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/invariants.h"
#include "net/sim.h"

namespace trimgrad::net {

/// Anything that terminates frames for one flow at a host.
class FlowEndpoint {
 public:
  virtual ~FlowEndpoint() = default;
  virtual void on_frame(Frame&& frame) = 0;
};

class Host : public Node {
 public:
  Host(Simulator& sim, NodeId id, std::string name)
      : Node(sim, id, std::move(name)) {}

  /// Register the endpoint handling `flow_id` at this host. The endpoint
  /// must outlive the simulation (experiments own endpoints by value).
  void bind(std::uint32_t flow_id, FlowEndpoint* endpoint) {
    endpoints_[flow_id] = endpoint;
  }
  void unbind(std::uint32_t flow_id) { endpoints_.erase(flow_id); }

  void on_frame(Frame&& frame) override {
    const auto it = endpoints_.find(frame.flow_id);
    if (it == endpoints_.end()) {
      ++unclaimed_;
      if (auto* m = sim_.invariant_monitor()) {
        m->resolve_delivery(InvariantMonitor::Outcome::kUnclaimed);
      }
      return;
    }
    it->second->on_frame(std::move(frame));
  }

  /// Send a frame out of the host's (single) NIC port.
  /// Returns false if the NIC queue dropped it (effectively never for
  /// correctly sized host queues).
  bool send(Frame frame) { return sim_.transmit(id(), 0, std::move(frame)); }

  /// Frames that arrived for unknown flows (test diagnostics).
  std::uint64_t unclaimed() const noexcept { return unclaimed_; }

 private:
  std::unordered_map<std::uint32_t, FlowEndpoint*> endpoints_;
  std::uint64_t unclaimed_ = 0;
};

}  // namespace trimgrad::net
