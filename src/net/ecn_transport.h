// DCTCP-style ECN-reactive transport (paper §5.3's congestion-control
// feedback loop).
//
// §5.3: a coarse congestion-control signal should drive *ahead-of-time*
// compression (the sender's Q), while trimming handles what the control
// loop cannot predict. This sender provides that loop: receivers echo ECN
// marks on their ACKs; the sender maintains the DCTCP EWMA of the marked
// fraction (alpha) and scales its window down by alpha/2 per marked round,
// growing additively otherwise. The smoothed mark fraction is exported so
// an AdaptiveQController (core/adaptive.h) can consume it as the §5.3
// signal — see the EcnAwareTrainingLoop test.
//
// Reliability (RTO backoff, retransmit budget, flow deadline, abort) comes
// from the shared FlowCore (net/flow_core.h), so the ECN transport has the
// same give-up semantics as the window and pull transports.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/flow_core.h"
#include "net/host.h"

namespace trimgrad::net {

struct EcnConfig {
  std::size_t initial_window = 16;
  std::size_t min_window = 2;
  std::size_t max_window = 256;
  double gain = 1.0 / 16.0;  ///< DCTCP alpha EWMA gain g
  SimTime rto = 500e-6;
  SimTime rto_cap = 5e-3;
  bool trimmed_is_delivered = true;
  /// Give-up knobs (see TransportConfig): 0 disables each.
  std::size_t retransmit_budget = 0;
  SimTime flow_deadline = 0;
};

class EcnSender : public FlowEndpoint {
 public:
  EcnSender(Host& host, NodeId dst, std::uint32_t flow_id, EcnConfig cfg);
  ~EcnSender() override;

  /// `on_complete` fires exactly once: on full acknowledgement or on
  /// failure (stats().failed — budget/deadline exhausted, or abort()ed).
  void send_message(std::vector<SendItem> items,
                    std::function<void(const FlowStats&)> on_complete);

  /// Give up on the in-flight message now. No-op when not active.
  void abort();

  void on_frame(Frame&& frame) override;

  const FlowStats& stats() const noexcept { return core_.stats(); }
  /// DCTCP alpha: EWMA of the per-window ECN-marked fraction in [0, 1].
  double alpha() const noexcept { return alpha_; }
  std::size_t window() const noexcept { return window_; }
  bool active() const noexcept { return core_.active(); }
  /// Current backed-off RTO (tests pin the rto_cap ceiling through this).
  SimTime current_rto() const noexcept { return core_.current_rto(); }

 private:
  void try_send_new();
  void end_of_window_round();

  Host& host_;
  std::uint32_t flow_id_;
  EcnConfig cfg_;
  FlowCore core_;

  std::size_t sent_unacked_ = 0;
  std::size_t window_ = 0;
  // Per-round mark accounting (a "round" = one window's worth of ACKs).
  std::size_t round_acks_ = 0;
  std::size_t round_marks_ = 0;
  double alpha_ = 0.0;
};

/// Receiver: the trim-aware Receiver already echoes delivery; ECN needs the
/// mark echoed too, which the base Receiver's ACKs do not carry. Same
/// ReceiverCore, echo_ecn policy.
class EcnReceiver : public FlowEndpoint {
 public:
  EcnReceiver(Host& host, NodeId peer, std::uint32_t flow_id,
              std::size_t expected_packets, EcnConfig cfg,
              std::function<void(const Frame&)> on_data = {},
              std::function<void(const ReceiverStats&)> on_complete = {});
  ~EcnReceiver() override;

  void on_frame(Frame&& frame) override;
  const ReceiverStats& stats() const noexcept { return core_.stats(); }
  bool complete() const noexcept { return core_.complete(); }

 private:
  Host& host_;
  std::uint32_t flow_id_;
  ReceiverCore core_;
};

/// ManagedFlow-style wiring for the ECN transport.
class EcnFlow {
 public:
  EcnFlow(Simulator& sim, NodeId src, NodeId dst, std::uint32_t flow_id,
          EcnConfig cfg, std::size_t n_packets,
          std::function<void(const Frame&)> on_data = {});

  void start_at(SimTime when, std::vector<SendItem> items,
                std::function<void(const FlowStats&)> on_complete = {});

  const FlowStats& stats() const noexcept { return sender_->stats(); }
  const EcnSender& sender() const noexcept { return *sender_; }
  EcnSender& sender() noexcept { return *sender_; }
  const ReceiverStats& receiver_stats() const noexcept {
    return receiver_->stats();
  }
  bool done() const noexcept { return done_; }

 private:
  Simulator& sim_;
  std::unique_ptr<EcnSender> sender_;
  std::unique_ptr<EcnReceiver> receiver_;
  bool done_ = false;
};

}  // namespace trimgrad::net
