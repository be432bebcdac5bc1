// Transport endpoints over the simulated fabric.
//
// Two senders implement the paper's comparison:
//
//  * Reliable (the NCCL-stand-in baseline): strict delivery semantics.
//    Every packet must arrive in full. Drops are recovered by timeout and
//    triple-duplicate-ACK fast retransmit; a trimmed arrival is useless to
//    this transport (the payload is gone), so the receiver NACKs it for
//    immediate retransmission. Under congestion this is the transport whose
//    retransmission storms create the stragglers of §1.
//
//  * TrimAware: a trimmed arrival is an *acceptable delivery* — the decoder
//    will reconstruct the coordinate from the 1-bit head (§2/§3). The
//    receiver ACKs it like a full arrival and the sender never retransmits.
//    Only outright drops (header-queue overflow, rare) are retransmitted.
//
// Both use a fixed window (BDP-sized by the caller) — congestion response
// is the switch's trim decision, which is the paper's architectural point.
// The flow state machine itself (RTO backoff, budgets, deadline, stats)
// lives in net/flow_core.h and is shared with the pull and ECN transports.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/flow_core.h"
#include "net/host.h"
#include "net/sim.h"

namespace trimgrad::net {

struct TransportConfig {
  std::size_t window = 64;       ///< max packets in flight
  SimTime rto = 200e-6;          ///< initial retransmission timeout
  SimTime rto_cap = 5e-3;        ///< exponential backoff ceiling
  bool trimmed_is_delivered = true;  ///< TrimAware: true; Reliable: false
  /// Give-up knobs: without them a flow crossing a dead link re-arms its
  /// RTO timer forever and the event queue never drains. 0 disables each.
  std::size_t retransmit_budget = 0;  ///< max retransmissions before failing
  SimTime flow_deadline = 0;          ///< max flow age before failing

  static TransportConfig reliable() {
    TransportConfig cfg;
    cfg.trimmed_is_delivered = false;
    return cfg;
  }
  static TransportConfig trim_aware() { return TransportConfig{}; }
};

/// Sender endpoint for one flow. Lives at the source host; receives the
/// flow's ACK/NACK frames through the host's demux. Fixed-window clocking
/// over the shared FlowCore state machine, plus triple-duplicate
/// cumulative-ACK fast retransmit.
class Sender : public FlowEndpoint {
 public:
  Sender(Host& host, NodeId dst, std::uint32_t flow_id, TransportConfig cfg);
  ~Sender() override;

  /// Begin transmitting. One message at a time per Sender; `on_complete`
  /// fires exactly once: when every packet has been acknowledged (full or
  /// trimmed), or when the flow *fails* (stats().failed — retransmit budget
  /// or flow deadline exhausted, or abort()ed).
  void send_message(std::vector<SendItem> items,
                    std::function<void(const FlowStats&)> on_complete);

  /// Give up on the in-flight message now (deadline enforcement by an
  /// owning layer, e.g. a collective round). No-op when not active.
  void abort();

  void on_frame(Frame&& frame) override;

  const FlowStats& stats() const noexcept { return core_.stats(); }
  bool active() const noexcept { return core_.active(); }
  std::uint32_t flow_id() const noexcept { return flow_id_; }
  /// Current backed-off RTO (tests pin the rto_cap ceiling through this).
  SimTime current_rto() const noexcept { return core_.current_rto(); }

 private:
  void try_send_new();

  Host& host_;
  std::uint32_t flow_id_;
  TransportConfig cfg_;
  FlowCore core_;

  std::size_t sent_unacked_ = 0;
  std::uint32_t last_cum_ = 0;
  int dup_cum_ = 0;
};

/// Receiver endpoint for one flow. Lives at the destination host.
class Receiver : public FlowEndpoint {
 public:
  /// `on_data` fires once per newly delivered packet (full or trimmed) with
  /// the arriving frame — the collective layer harvests cargo here.
  Receiver(Host& host, NodeId peer, std::uint32_t flow_id,
           std::size_t expected_packets, TransportConfig cfg,
           std::function<void(const Frame&)> on_data = {},
           std::function<void(const ReceiverStats&)> on_complete = {});
  ~Receiver() override;

  void on_frame(Frame&& frame) override;

  const ReceiverStats& stats() const noexcept { return core_.stats(); }
  bool complete() const noexcept { return core_.complete(); }

 private:
  Host& host_;
  std::uint32_t flow_id_;
  ReceiverCore core_;
};

}  // namespace trimgrad::net
