// String-keyed transport registry: every layer selects a transport by name.
//
// The repo grew three sender/receiver families (window, pull, ECN) with two
// delivery policies (trim-aware, reliable). Sweeps and experiment specs
// want to pick between them declaratively — "transport=pull" in a spec
// string — without each bench hand-wiring the concrete classes. The
// registry exposes each as a named `Transport` that can stamp out abstract
// `Flow`s (sender + receiver pair wired onto the fabric):
//
//   "trim"     — window/ACK-clocked, trimmed arrivals delivered (the paper)
//   "reliable" — window/ACK-clocked, trimmed arrivals NACKed (NCCL stand-in)
//   "pull"     — NDP-style receiver-paced, trim-aware
//   "ecn"      — DCTCP ECN-reactive window, trim-aware
//
// Adding a fourth transport is: implement the Flow interface over your
// sender/receiver pair, register it in transport_registry.cpp, done — the
// conformance suite (tests/net/transport_conformance_test.cpp) and every
// spec-driven bench pick it up by name.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/flow_core.h"
#include "net/sim.h"

namespace trimgrad::net {

/// Transport-agnostic tuning overrides. 0 keeps the transport's native
/// default (window 64 / burst 12 / initial_window 16; rto 200 µs window,
/// 500 µs pull+ECN; rto_cap 5 ms; budget and deadline disabled). Whether
/// trimmed arrivals are deliveries is the *transport's* identity ("trim"
/// vs "reliable"), not a tuning knob.
struct FlowTuning {
  std::size_t window = 0;  ///< in-flight cap / initial burst / initial window
  SimTime rto = 0;
  SimTime rto_cap = 0;
  std::size_t retransmit_budget = 0;
  SimTime flow_deadline = 0;
};

/// Receiver-side wiring for a flow built through the registry.
struct FlowOptions {
  std::size_t expected_packets = 0;
  std::function<void(const Frame&)> on_data;
  std::function<void(const ReceiverStats&)> on_receiver_complete;
};

/// A sender/receiver pair wired onto the fabric, driven uniformly.
class Flow {
 public:
  virtual ~Flow() = default;

  /// One message per flow; `on_complete` fires exactly once (complete or
  /// failed — see FlowCore).
  virtual void send_message(
      std::vector<SendItem> items,
      std::function<void(const FlowStats&)> on_complete) = 0;
  virtual void abort() = 0;

  virtual bool sender_active() const = 0;
  virtual SimTime current_rto() const = 0;
  virtual const FlowStats& stats() const = 0;
  virtual const ReceiverStats& receiver_stats() const = 0;
  /// The sender's DCTCP alpha, final once on_complete fired; 0 without ECN.
  virtual double ecn_alpha() const = 0;
};

/// A named transport: a factory for Flows plus its delivery policy.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual const std::string& name() const = 0;
  virtual const char* summary() const = 0;
  /// Whether a trimmed arrival counts as delivered (false: it is NACKed).
  virtual bool delivers_trimmed() const = 0;

  /// Wire a flow between two Host nodes. The receiver is constructed
  /// before the sender (the flow is quiescent until send_message).
  virtual std::unique_ptr<Flow> make_flow(Simulator& sim, NodeId src,
                                          NodeId dst, std::uint32_t flow_id,
                                          const FlowTuning& tuning,
                                          FlowOptions options) const = 0;
};

class TransportRegistry {
 public:
  /// The process-wide registry with the four built-in transports.
  static const TransportRegistry& global();

  /// nullptr when `name` is not registered.
  const Transport* find(const std::string& name) const;
  /// Throws std::invalid_argument listing the registered names.
  const Transport& at(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;

  void add(std::unique_ptr<Transport> transport);

 private:
  std::vector<std::unique_ptr<Transport>> transports_;
};

}  // namespace trimgrad::net
