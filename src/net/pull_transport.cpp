#include "net/pull_transport.h"

#include <algorithm>
#include <cassert>

#include "core/metrics.h"

namespace trimgrad::net {
namespace {

struct PullTelemetry {
  core::Counter pulls_emitted;

  static const PullTelemetry& get() {
    static const PullTelemetry t{
        core::MetricsRegistry::global().counter("net.pull.pulls_emitted"),
    };
    return t;
  }
};

}  // namespace

// ------------------------------------------------------------ PullSender --

PullSender::PullSender(Host& host, NodeId dst, std::uint32_t flow_id,
                       PullConfig cfg)
    : host_(host), flow_id_(flow_id), cfg_(cfg), core_(host, dst, flow_id) {
  host_.bind(flow_id_, this);
}

PullSender::~PullSender() { host_.unbind(flow_id_); }

void PullSender::send_message(
    std::vector<SendItem> items,
    std::function<void(const FlowStats&)> on_complete) {
  assert(!core_.active());
  const FlowCore::Limits limits{cfg_.rto, cfg_.rto_cap, cfg_.retransmit_budget,
                                cfg_.flow_deadline};
  // If the pull stream stalled (lost pulls), each RTO nudges a new packet
  // too; the nudge is fresh data, not a retransmission.
  if (core_.begin(std::move(items), limits, std::move(on_complete),
                  [this] { core_.send_next_new(); })) {
    return;
  }
  // First-RTT burst; everything after is pull-granted.
  const std::size_t burst = std::min(cfg_.initial_burst, core_.size());
  for (std::size_t i = 0; i < burst; ++i) core_.send_next_new();
  core_.arm_timer();
}

void PullSender::abort() { core_.abort(); }

void PullSender::on_frame(Frame&& frame) {
  if (!core_.active()) return;
  if (frame.kind == FrameKind::kPull) {
    core_.send_next_new();
    return;
  }
  if (frame.kind == FrameKind::kNack) {
    core_.handle_nack(frame.ack_echo);
    return;
  }
  if (frame.kind != FrameKind::kAck) return;
  if (core_.mark_acked(frame.ack_echo, frame.ack_was_trimmed)) {
    core_.arm_timer();
  }
  if (core_.all_acked()) core_.complete();
}

// ------------------------------------------------------------- PullPacer --

void PullPacer::request(std::uint32_t flow_id, NodeId sender) {
  queue_.emplace_back(flow_id, sender);
  if (!armed_) {
    armed_ = true;
    host_.sim().schedule(interval_, [this] { fire(); });
  }
}

void PullPacer::fire() {
  if (queue_.empty()) {
    armed_ = false;
    return;
  }
  const auto [flow_id, sender] = queue_.front();
  queue_.pop_front();
  Frame pull;
  pull.id = host_.sim().next_frame_id();
  pull.src = host_.id();
  pull.dst = sender;
  pull.flow_id = flow_id;
  pull.kind = FrameKind::kPull;
  pull.size_bytes = kControlFrameBytes;
  host_.send(std::move(pull));
  ++emitted_;
  PullTelemetry::get().pulls_emitted.add();
  host_.sim().schedule(interval_, [this] { fire(); });
}

// ---------------------------------------------------------- PullReceiver --

PullReceiver::PullReceiver(
    Host& host, NodeId peer, std::uint32_t flow_id,
    std::size_t expected_packets, PullConfig cfg,
    std::function<void(const Frame&)> on_data,
    std::function<void(const ReceiverStats&)> on_complete, PullPacer* pacer)
    : host_(host),
      peer_(peer),
      flow_id_(flow_id),
      cfg_(cfg),
      core_(host, flow_id, expected_packets,
            ReceiverCore::Policy{/*trimmed_is_delivered=*/true,
                                 /*cumulative_ack=*/false,
                                 /*echo_ecn=*/false},
            std::move(on_data), std::move(on_complete)),
      pacer_(pacer) {
  if (pacer_ == nullptr) {
    own_pacer_ = std::make_unique<PullPacer>(host_,
                                             cfg_.effective_pull_interval());
    pacer_ = own_pacer_.get();
  }
  host_.bind(flow_id_, this);
}

PullReceiver::~PullReceiver() { host_.unbind(flow_id_); }

void PullReceiver::grant_pull() {
  // One pull per delivered packet, but never more pulls than packets the
  // sender still has to emit beyond its initial burst. Corrupt arrivals do
  // not grant: the retransmission replaces a frame that already consumed
  // credit, so granting again would over-clock the sender.
  if (granted_ + cfg_.initial_burst >= core_.stats().expected) return;
  ++granted_;
  pacer_->request(flow_id_, peer_);
}

void PullReceiver::on_frame(Frame&& frame) {
  if (!core_.pre_deliver(frame)) return;
  core_.deliver(frame);
  grant_pull();
  core_.maybe_complete();
}

// -------------------------------------------------------------- PullFlow --

PullFlow::PullFlow(Simulator& sim, NodeId src, NodeId dst,
                   std::uint32_t flow_id, PullConfig cfg,
                   std::size_t n_packets,
                   std::function<void(const Frame&)> on_data,
                   PullPacer* pacer)
    : sim_(sim) {
  auto& src_host = static_cast<Host&>(sim.node(src));
  auto& dst_host = static_cast<Host&>(sim.node(dst));
  sender_ = std::make_unique<PullSender>(src_host, dst, flow_id, cfg);
  receiver_ = std::make_unique<PullReceiver>(
      dst_host, src, flow_id, n_packets, cfg, std::move(on_data),
      /*on_complete=*/nullptr, pacer);
}

void PullFlow::start_at(SimTime when, std::vector<SendItem> items,
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
