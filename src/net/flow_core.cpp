#include "net/flow_core.h"

#include <algorithm>

#include <atomic>

#include "core/metrics.h"
#include "core/trace.h"
#include "net/fault_plane.h"
#include "net/invariants.h"

namespace trimgrad::net {
namespace {

std::atomic<bool> g_swallow_corrupt{false};

/// The monitor attached to this core's simulator, or nullptr.
InvariantMonitor* monitor_of(Host& host) noexcept {
  return host.sim().invariant_monitor();
}

struct TransportTelemetry {
  core::Counter flows_completed, flows_failed, frames_sent, bytes_sent,
      retransmits, acked_full, acked_trimmed;

  static const TransportTelemetry& get() {
    auto& reg = core::MetricsRegistry::global();
    static const TransportTelemetry t{
        reg.counter("net.transport.flows_completed"),
        reg.counter("net.transport.flows_failed"),
        reg.counter("net.transport.frames_sent"),
        reg.counter("net.transport.bytes_sent"),
        reg.counter("net.transport.retransmits"),
        reg.counter("net.transport.acked_full"),
        reg.counter("net.transport.acked_trimmed"),
    };
    return t;
  }
};

}  // namespace

void test_set_swallow_corrupt_frames(bool on) noexcept {
  g_swallow_corrupt.store(on, std::memory_order_relaxed);
}

bool test_swallow_corrupt_frames() noexcept {
  return g_swallow_corrupt.load(std::memory_order_relaxed);
}

void record_flow_telemetry(const FlowStats& stats) {
  const TransportTelemetry& t = TransportTelemetry::get();
  if (stats.failed) t.flows_failed.add();
  else t.flows_completed.add();
  t.frames_sent.add(stats.frames_sent);
  t.bytes_sent.add(stats.bytes_sent);
  t.retransmits.add(stats.retransmits);
  t.acked_full.add(stats.acked_full);
  t.acked_trimmed.add(stats.acked_trimmed);
  core::TraceLog::global().complete(
      "flow", "net.transport", stats.start_time, stats.fct(), /*tid=*/0,
      {{"packets", static_cast<double>(stats.packets)},
       {"retransmits", static_cast<double>(stats.retransmits)},
       {"acked_trimmed", static_cast<double>(stats.acked_trimmed)}});
}

// ---------------------------------------------------------------- FlowCore --

bool FlowCore::begin(std::vector<SendItem> items, const Limits& limits,
                     std::function<void(const FlowStats&)> on_complete,
                     std::function<void()> timeout_extra) {
  limits_ = limits;
  items_ = std::move(items);
  acked_.assign(items_.size(), 0);
  last_sent_.assign(items_.size(), -1.0);
  next_new_ = 0;
  acked_count_ = 0;
  rto_cur_ = limits_.rto;
  active_ = true;
  stats_ = FlowStats{};
  stats_.start_time = host_.sim().now();
  stats_.packets = items_.size();
  on_complete_ = std::move(on_complete);
  timeout_extra_ = std::move(timeout_extra);
  ++msg_epoch_;
  if (auto* m = monitor_of(host_)) {
    m->on_flow_begin(this, flow_id_, host_.sim().now());
  }
  if (items_.empty()) {
    complete();
    return true;
  }
  if (limits_.flow_deadline > 0) {
    // A dedicated one-shot timer makes the deadline exact instead of
    // quantized to the (backed-off) RTO grid.
    host_.sim().schedule_at(host_.id(), limits_.flow_deadline,
                            [this, me = msg_epoch_] {
                              if (active_ && me == msg_epoch_) fail();
                            });
  }
  return false;
}

void FlowCore::abort() {
  if (active_) fail();
}

bool FlowCore::emit_data(std::uint32_t seq, bool is_retransmit) {
  const SendItem& item = items_[seq];
  Frame f;
  f.id = host_.sim().next_frame_id();
  f.src = host_.id();
  f.dst = dst_;
  f.flow_id = flow_id_;
  f.seq = seq;
  f.kind = FrameKind::kData;
  f.size_bytes = item.size_bytes;
  f.trim_size_bytes = item.trim_size_bytes;
  f.cargo = item.cargo;
  const bool first_send = last_sent_[seq] < 0;
  last_sent_[seq] = host_.sim().now();
  ++stats_.frames_sent;
  stats_.bytes_sent += f.size_bytes;
  if (is_retransmit) ++stats_.retransmits;
  host_.send(std::move(f));
  return first_send;
}

void FlowCore::send_next_new() {
  if (next_new_ >= items_.size()) return;
  emit_data(static_cast<std::uint32_t>(next_new_), false);
  ++next_new_;
}

void FlowCore::retransmit_oldest() {
  for (std::size_t seq = 0; seq < next_new_; ++seq) {
    if (acked_[seq] == 0) {
      emit_data(static_cast<std::uint32_t>(seq), true);
      break;
    }
  }
}

bool FlowCore::mark_acked(std::uint32_t seq, bool was_trimmed) {
  if (seq >= items_.size() || acked_[seq] != 0) return false;
  acked_[seq] = 1;
  ++acked_count_;
  if (was_trimmed) ++stats_.acked_trimmed;
  else ++stats_.acked_full;
  // Forward progress: reset the RTO clock.
  rto_cur_ = limits_.rto;
  if (auto* m = monitor_of(host_)) {
    m->on_flow_progress(this, flow_id_, host_.sim().now());
  }
  return true;
}

void FlowCore::handle_nack(std::uint32_t seq) {
  if (seq < items_.size() && acked_[seq] == 0 &&
      host_.sim().now() - last_sent_[seq] >= limits_.rto * 0.5) {
    if (budget_exhausted()) {
      fail();
      return;
    }
    emit_data(seq, true);
  }
}

void FlowCore::fast_retransmit(std::uint32_t seq) {
  if (seq < next_new_ && seq < items_.size() && acked_[seq] == 0 &&
      host_.sim().now() - last_sent_[seq] >= limits_.rto * 0.5) {
    emit_data(seq, true);
  }
}

void FlowCore::arm_timer() {
  const std::uint64_t epoch = ++timer_epoch_;
  // Anchored at the host, not at the caller: a flow started from outside
  // any event (SimChannel::transfer) would otherwise get timers in domain
  // 0, racing the host's own domain on a sharded simulator.
  host_.sim().schedule_at(host_.id(), rto_cur_,
                          [this, epoch] { on_timeout(epoch); });
}

void FlowCore::on_timeout(std::uint64_t epoch) {
  if (!active_ || epoch != timer_epoch_) return;
  if (budget_exhausted()) {
    // The path is not recovering (dead link, black hole): report failure
    // instead of re-arming forever — the event queue must drain.
    fail();
    return;
  }
  retransmit_oldest();
  if (timeout_extra_) timeout_extra_();
  rto_cur_ = std::min(rto_cur_ * 2.0, limits_.rto_cap);
  arm_timer();
}

void FlowCore::complete() {
  active_ = false;
  ++timer_epoch_;  // cancel pending timers
  stats_.completed = true;
  stats_.end_time = host_.sim().now();
  if (auto* m = monitor_of(host_)) {
    m->on_flow_complete(this, flow_id_, false, stats_.end_time);
  }
  record_flow_telemetry(stats_);
  if (on_complete_) on_complete_(stats_);
}

void FlowCore::fail() {
  active_ = false;
  ++timer_epoch_;  // cancel pending timers
  stats_.completed = false;
  stats_.failed = true;
  stats_.end_time = host_.sim().now();
  if (auto* m = monitor_of(host_)) {
    m->on_flow_complete(this, flow_id_, true, stats_.end_time);
  }
  record_flow_telemetry(stats_);
  if (on_complete_) on_complete_(stats_);
}

// ------------------------------------------------------------ ReceiverCore --

ReceiverCore::ReceiverCore(Host& host, std::uint32_t flow_id,
                           std::size_t expected_packets, Policy policy,
                           std::function<void(const Frame&)> on_data,
                           std::function<void(const ReceiverStats&)> on_complete)
    : host_(host),
      flow_id_(flow_id),
      policy_(policy),
      delivered_(expected_packets, 0),
      on_data_(std::move(on_data)),
      on_complete_(std::move(on_complete)) {
  stats_.expected = expected_packets;
}

std::uint32_t ReceiverCore::cumulative_ack() const noexcept {
  while (cum_cache_ < delivered_.size() && delivered_[cum_cache_] != 0) {
    ++cum_cache_;
  }
  return static_cast<std::uint32_t>(cum_cache_);
}

void ReceiverCore::send_ack(const Frame& data, bool was_trimmed) {
  Frame ack;
  ack.id = host_.sim().next_frame_id();
  ack.src = host_.id();
  ack.dst = data.src;
  ack.flow_id = flow_id_;
  ack.kind = FrameKind::kAck;
  ack.size_bytes = kControlFrameBytes;
  ack.ack_echo = data.seq;
  if (policy_.cumulative_ack) ack.ack_seq = cumulative_ack();
  ack.ack_was_trimmed = was_trimmed;
  if (policy_.echo_ecn) ack.ecn = data.ecn;  // echo the CE mark (DCTCP)
  host_.send(std::move(ack));
}

void ReceiverCore::send_nack(const Frame& data) {
  Frame nack;
  nack.id = host_.sim().next_frame_id();
  nack.src = host_.id();
  nack.dst = data.src;
  nack.flow_id = flow_id_;
  nack.kind = FrameKind::kNack;
  nack.size_bytes = kControlFrameBytes;
  nack.ack_echo = data.seq;
  ++stats_.nacks_sent;
  host_.send(std::move(nack));
}

bool ReceiverCore::pre_deliver(const Frame& frame) {
  if (frame.kind != FrameKind::kData) return false;
  InvariantMonitor* monitor = monitor_of(host_);
  if (frame.seq >= delivered_.size()) {  // malformed
    if (monitor != nullptr) {
      monitor->resolve_delivery(InvariantMonitor::Outcome::kMalformed);
    }
    return false;
  }
  if (stats_.delivered_full + stats_.delivered_trimmed == 0) {
    stats_.first_frame_time = host_.sim().now();
  }

  if (delivered_[frame.seq] != 0) {
    // Duplicate (retransmission after a lost ACK): re-ACK, don't re-deliver.
    ++stats_.duplicate_frames;
    send_ack(frame, delivered_[frame.seq] == 2);
    if (monitor != nullptr) {
      monitor->resolve_delivery(InvariantMonitor::Outcome::kDuplicate);
    }
    return false;
  }

  if (frame.corrupted) {
    // Checksum mismatch (core/wire.* head_crc/tail_crc): the payload is
    // mangled, not trimmed — never deliver it as a gradient; NACK it.
    ++stats_.corrupt_frames;
    count_corrupt_detected();
    if (test_swallow_corrupt_frames()) {
      // Mutation under test: the NACK (and its delivery-outcome report) is
      // skipped, so the monitor sees the frame vanish.
      return false;
    }
    send_nack(frame);
    if (monitor != nullptr) {
      monitor->resolve_delivery(InvariantMonitor::Outcome::kCorruptNacked);
    }
    return false;
  }

  if (frame.trimmed && !policy_.trimmed_is_delivered) {
    // Reliable semantics: the payload is gone; demand a retransmission.
    send_nack(frame);
    if (monitor != nullptr) {
      monitor->resolve_delivery(InvariantMonitor::Outcome::kTrimRejected);
    }
    return false;
  }
  return true;
}

void ReceiverCore::deliver(const Frame& frame) {
  delivered_[frame.seq] = frame.trimmed ? 2 : 1;
  ++delivered_count_;
  if (frame.trimmed) ++stats_.delivered_trimmed;
  else ++stats_.delivered_full;
  if (auto* m = monitor_of(host_)) {
    m->resolve_delivery(InvariantMonitor::Outcome::kDelivered);
  }
  if (on_data_) on_data_(frame);
  send_ack(frame, frame.trimmed);
}

void ReceiverCore::maybe_complete() {
  if (complete()) {
    stats_.complete_time = host_.sim().now();
    if (on_complete_) on_complete_(stats_);
  }
}

}  // namespace trimgrad::net
