#include "net/transport.h"

#include <cassert>

namespace trimgrad::net {

// ---------------------------------------------------------------- Sender --

Sender::Sender(Host& host, NodeId dst, std::uint32_t flow_id,
               TransportConfig cfg)
    : host_(host), flow_id_(flow_id), cfg_(cfg), core_(host, dst, flow_id) {
  host_.bind(flow_id_, this);
}

Sender::~Sender() { host_.unbind(flow_id_); }

void Sender::send_message(std::vector<SendItem> items,
                          std::function<void(const FlowStats&)> on_complete) {
  assert(!core_.active() && "one message at a time per Sender");
  sent_unacked_ = 0;
  last_cum_ = 0;
  dup_cum_ = 0;
  const FlowCore::Limits limits{cfg_.rto, cfg_.rto_cap, cfg_.retransmit_budget,
                                cfg_.flow_deadline};
  if (core_.begin(std::move(items), limits, std::move(on_complete))) return;
  try_send_new();
  core_.arm_timer();
}

void Sender::abort() { core_.abort(); }

void Sender::try_send_new() {
  while (sent_unacked_ < cfg_.window && core_.has_unsent()) {
    core_.send_next_new();
    ++sent_unacked_;
  }
}

void Sender::on_frame(Frame&& frame) {
  if (!core_.active()) return;
  if (frame.kind == FrameKind::kNack) {
    core_.handle_nack(frame.ack_echo);
    return;
  }
  if (frame.kind != FrameKind::kAck) return;

  if (core_.mark_acked(frame.ack_echo, frame.ack_was_trimmed)) {
    assert(sent_unacked_ > 0);
    --sent_unacked_;
    core_.arm_timer();
  }

  // Triple-duplicate cumulative ACK => fast retransmit of the hole.
  if (frame.ack_seq == last_cum_) {
    if (++dup_cum_ == 3) {
      dup_cum_ = 0;
      core_.fast_retransmit(frame.ack_seq);
    }
  } else {
    last_cum_ = frame.ack_seq;
    dup_cum_ = 0;
  }

  if (core_.all_acked()) {
    core_.complete();
  } else {
    try_send_new();
  }
}

// -------------------------------------------------------------- Receiver --

Receiver::Receiver(Host& host, NodeId peer, std::uint32_t flow_id,
                   std::size_t expected_packets, TransportConfig cfg,
                   std::function<void(const Frame&)> on_data,
                   std::function<void(const ReceiverStats&)> on_complete)
    : host_(host),
      flow_id_(flow_id),
      core_(host, flow_id, expected_packets,
            ReceiverCore::Policy{cfg.trimmed_is_delivered,
                                 /*cumulative_ack=*/true,
                                 /*echo_ecn=*/false},
            std::move(on_data), std::move(on_complete)) {
  (void)peer;
  host_.bind(flow_id_, this);
}

Receiver::~Receiver() { host_.unbind(flow_id_); }

void Receiver::on_frame(Frame&& frame) {
  if (!core_.pre_deliver(frame)) return;
  core_.deliver(frame);
  core_.maybe_complete();
}

}  // namespace trimgrad::net
