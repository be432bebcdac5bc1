#include "net/ecn_transport.h"

#include <cassert>
#include <cmath>

#include "core/metrics.h"

namespace trimgrad::net {
namespace {

const core::Counter& marked_acks_counter() {
  static const core::Counter c =
      core::MetricsRegistry::global().counter("net.ecn.marked_acks");
  return c;
}

}  // namespace

// ------------------------------------------------------------- EcnSender --

EcnSender::EcnSender(Host& host, NodeId dst, std::uint32_t flow_id,
                     EcnConfig cfg)
    : host_(host), flow_id_(flow_id), cfg_(cfg), core_(host, dst, flow_id) {
  host_.bind(flow_id_, this);
}

EcnSender::~EcnSender() { host_.unbind(flow_id_); }

void EcnSender::send_message(
    std::vector<SendItem> items,
    std::function<void(const FlowStats&)> on_complete) {
  assert(!core_.active());
  sent_unacked_ = 0;
  window_ = cfg_.initial_window;
  round_acks_ = 0;
  round_marks_ = 0;
  const FlowCore::Limits limits{cfg_.rto, cfg_.rto_cap, cfg_.retransmit_budget,
                                cfg_.flow_deadline};
  if (core_.begin(std::move(items), limits, std::move(on_complete))) return;
  try_send_new();
  core_.arm_timer();
}

void EcnSender::abort() { core_.abort(); }

void EcnSender::try_send_new() {
  while (sent_unacked_ < window_ && core_.has_unsent()) {
    core_.send_next_new();
    ++sent_unacked_;
  }
}

void EcnSender::end_of_window_round() {
  // DCTCP: alpha <- (1-g)·alpha + g·F, window scaled by (1 − alpha/2) when
  // any marks arrived this round, +1 otherwise.
  const double fraction =
      round_acks_ > 0
          ? static_cast<double>(round_marks_) / static_cast<double>(round_acks_)
          : 0.0;
  alpha_ = (1.0 - cfg_.gain) * alpha_ + cfg_.gain * fraction;
  if (round_marks_ > 0) {
    const auto cut = static_cast<std::size_t>(
        std::floor(static_cast<double>(window_) * (1.0 - alpha_ / 2.0)));
    window_ = std::max(cfg_.min_window, cut);
  } else {
    window_ = std::min(cfg_.max_window, window_ + 1);
  }
  round_acks_ = 0;
  round_marks_ = 0;
}

void EcnSender::on_frame(Frame&& frame) {
  if (!core_.active()) return;
  if (frame.kind == FrameKind::kNack) {
    core_.handle_nack(frame.ack_echo);
    return;
  }
  if (frame.kind != FrameKind::kAck) return;

  if (core_.mark_acked(frame.ack_echo, frame.ack_was_trimmed)) {
    assert(sent_unacked_ > 0);
    --sent_unacked_;
    ++round_acks_;
    if (frame.ecn) {
      ++round_marks_;
      marked_acks_counter().add();
    }
    if (round_acks_ >= window_) end_of_window_round();
    core_.arm_timer();
  }
  if (core_.all_acked()) {
    core_.complete();
  } else {
    try_send_new();
  }
}

// ----------------------------------------------------------- EcnReceiver --

EcnReceiver::EcnReceiver(Host& host, NodeId peer, std::uint32_t flow_id,
                         std::size_t expected_packets, EcnConfig cfg,
                         std::function<void(const Frame&)> on_data,
                         std::function<void(const ReceiverStats&)> on_complete)
    : host_(host),
      flow_id_(flow_id),
      core_(host, flow_id, expected_packets,
            ReceiverCore::Policy{cfg.trimmed_is_delivered,
                                 /*cumulative_ack=*/false,
                                 /*echo_ecn=*/true},
            std::move(on_data), std::move(on_complete)) {
  (void)peer;
  host_.bind(flow_id_, this);
}

EcnReceiver::~EcnReceiver() { host_.unbind(flow_id_); }

void EcnReceiver::on_frame(Frame&& frame) {
  if (!core_.pre_deliver(frame)) return;
  core_.deliver(frame);
  core_.maybe_complete();
}

// ---------------------------------------------------------------- EcnFlow --

EcnFlow::EcnFlow(Simulator& sim, NodeId src, NodeId dst,
                 std::uint32_t flow_id, EcnConfig cfg, std::size_t n_packets,
                 std::function<void(const Frame&)> on_data)
    : sim_(sim) {
  auto& src_host = static_cast<Host&>(sim.node(src));
  auto& dst_host = static_cast<Host&>(sim.node(dst));
  sender_ = std::make_unique<EcnSender>(src_host, dst, flow_id, cfg);
  receiver_ = std::make_unique<EcnReceiver>(dst_host, src, flow_id,
                                            n_packets, cfg,
                                            std::move(on_data));
}

void EcnFlow::start_at(SimTime when, std::vector<SendItem> items,
                       std::function<void(const FlowStats&)> on_complete) {
  assert(when >= sim_.now());
  sim_.schedule(when - sim_.now(), [this, items = std::move(items),
                                    cb = std::move(on_complete)]() mutable {
    sender_->send_message(std::move(items), [this, cb = std::move(cb)](
                                                const FlowStats& st) {
      done_ = true;
      if (cb) cb(st);
    });
  });
}

}  // namespace trimgrad::net
