// NDP-style receiver-driven (pull-paced) transport.
//
// The window transports in net/transport.h are ACK-clocked; under N-to-1
// incast every sender's initial window collides at the fan-in switch, which
// is exactly when trimming fires. NDP's remedy — and the reason the paper's
// §1 cites it as the trimming substrate — is receiver pacing: after the
// first-RTT burst, the receiver hands out PULL credits spaced at its access
// link rate, so the aggregate arrival rate at the bottleneck never exceeds
// line rate and the queue stays near-empty in steady state.
//
// PullSender/PullReceiver implement that discipline on top of the shared
// FlowCore/ReceiverCore machinery (net/flow_core.h): trimmed arrivals
// still count as delivered (the gradient decodes from heads), drops are
// still recovered by RTO, but new transmissions beyond the initial burst
// are granted one-per-PULL.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/flow_core.h"
#include "net/host.h"

namespace trimgrad::net {

struct PullConfig {
  std::size_t initial_burst = 12;  ///< first-RTT window (BDP-ish)
  SimTime rto = 500e-6;
  SimTime rto_cap = 5e-3;
  /// Give-up knobs (see TransportConfig): 0 disables each.
  std::size_t retransmit_budget = 0;
  SimTime flow_deadline = 0;
  /// Pull spacing; receivers default it to the access-link serialization
  /// time of one MTU frame when left at 0.
  SimTime pull_interval = 0.0;
  std::size_t mtu_bytes = 1500;
  double access_bandwidth_bps = 100e9;

  SimTime effective_pull_interval() const noexcept {
    return pull_interval > 0.0
               ? pull_interval
               : static_cast<double>(mtu_bytes) * 8.0 / access_bandwidth_bps;
  }
};

/// Host-wide pull pacer. NDP paces pulls at the *receiver host's* access
/// link rate across ALL of its inbound flows — per-flow pacers would let an
/// N-flow incast demand N× line rate. Receivers enqueue credits; the pacer
/// emits them FIFO, one per interval.
class PullPacer {
 public:
  PullPacer(Host& host, SimTime interval) : host_(host), interval_(interval) {}

  /// Queue one pull credit addressed to `sender` for `flow_id`.
  void request(std::uint32_t flow_id, NodeId sender);

  std::size_t emitted() const noexcept { return emitted_; }

 private:
  void fire();

  Host& host_;
  SimTime interval_;
  std::deque<std::pair<std::uint32_t, NodeId>> queue_;
  bool armed_ = false;
  std::size_t emitted_ = 0;
};

class PullSender : public FlowEndpoint {
 public:
  PullSender(Host& host, NodeId dst, std::uint32_t flow_id, PullConfig cfg);
  ~PullSender() override;

  /// `on_complete` fires exactly once: on full acknowledgement or on
  /// failure (stats().failed).
  void send_message(std::vector<SendItem> items,
                    std::function<void(const FlowStats&)> on_complete);

  /// Give up on the in-flight message now. No-op when not active.
  void abort();

  void on_frame(Frame&& frame) override;

  const FlowStats& stats() const noexcept { return core_.stats(); }
  bool active() const noexcept { return core_.active(); }
  /// Current backed-off RTO (tests pin the rto_cap ceiling through this).
  SimTime current_rto() const noexcept { return core_.current_rto(); }

 private:
  Host& host_;
  std::uint32_t flow_id_;
  PullConfig cfg_;
  FlowCore core_;
};

class PullReceiver : public FlowEndpoint {
 public:
  /// `on_complete` fires once, when the last expected packet is delivered —
  /// symmetric with Receiver, so chaos tests can detect flow completion
  /// uniformly across transports. `pacer` may be shared by every receiver
  /// on the host (the NDP model); nullptr gives this flow a private pacer
  /// at the configured interval.
  PullReceiver(Host& host, NodeId peer, std::uint32_t flow_id,
               std::size_t expected_packets, PullConfig cfg,
               std::function<void(const Frame&)> on_data = {},
               std::function<void(const ReceiverStats&)> on_complete = {},
               PullPacer* pacer = nullptr);
  ~PullReceiver() override;

  void on_frame(Frame&& frame) override;

  const ReceiverStats& stats() const noexcept { return core_.stats(); }
  bool complete() const noexcept { return core_.complete(); }

 private:
  void grant_pull();

  Host& host_;
  NodeId peer_;
  std::uint32_t flow_id_;
  PullConfig cfg_;
  ReceiverCore core_;
  std::size_t granted_ = 0;  ///< pull credits issued to a pacer
  PullPacer* pacer_ = nullptr;
  std::unique_ptr<PullPacer> own_pacer_;
};

/// Convenience wiring mirroring ManagedFlow for the pull transport.
class PullFlow {
 public:
  PullFlow(Simulator& sim, NodeId src, NodeId dst, std::uint32_t flow_id,
           PullConfig cfg, std::size_t n_packets,
           std::function<void(const Frame&)> on_data = {},
           PullPacer* pacer = nullptr);

  void start_at(SimTime when, std::vector<SendItem> items,
                std::function<void(const FlowStats&)> on_complete = {});

  const FlowStats& stats() const noexcept { return sender_->stats(); }
  const ReceiverStats& receiver_stats() const noexcept {
    return receiver_->stats();
  }
  bool done() const noexcept { return done_; }

 private:
  Simulator& sim_;
  std::unique_ptr<PullSender> sender_;
  std::unique_ptr<PullReceiver> receiver_;
  bool done_ = false;
};

}  // namespace trimgrad::net
