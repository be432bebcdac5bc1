#include "net/queue.h"

#include "core/metrics.h"
#include "core/trace.h"

namespace trimgrad::net {
namespace {

// Registry handles, resolved once. Queues run inside the (single-threaded)
// simulator loop, so these also serve as the aggregate across every queue
// in a fabric; per-queue counts stay in QueueCounters.
struct QueueTelemetry {
  core::Counter enqueued, dequeued, dropped, trimmed, ecn_marked;
  core::Histogram depth_bytes;

  static const QueueTelemetry& get() {
    static const QueueTelemetry t{
        core::MetricsRegistry::global().counter("net.queue.enqueued"),
        core::MetricsRegistry::global().counter("net.queue.dequeued"),
        core::MetricsRegistry::global().counter("net.queue.dropped"),
        core::MetricsRegistry::global().counter("net.queue.trimmed"),
        core::MetricsRegistry::global().counter("net.queue.ecn_marked"),
        core::MetricsRegistry::global().histogram(
            "net.queue.depth_bytes",
            {0.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0}),
    };
    return t;
  }
};

}  // namespace

void FrameRing::grow() {
  std::vector<Frame> bigger(buf_.empty() ? 8 : 2 * buf_.size());
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
  }
  buf_ = std::move(bigger);
  head_ = 0;
}

const char* to_string(QueuePolicy p) noexcept {
  switch (p) {
    case QueuePolicy::kDropTail: return "droptail";
    case QueuePolicy::kTrim: return "trim";
    case QueuePolicy::kEcn: return "ecn";
  }
  return "?";
}

bool EgressQueue::enqueue_header(Frame&& frame) {
  if (header_bytes_ + frame.size_bytes > cfg_.header_capacity_bytes) {
    ++counters_.dropped;
    QueueTelemetry::get().dropped.add();
    core::TraceLog::global().instant("drop", "net.queue");
    return false;
  }
  header_bytes_ += frame.size_bytes;
  header_q_.push_back(std::move(frame));
  ++counters_.enqueued;
  QueueTelemetry::get().enqueued.add();
  return true;
}

bool EgressQueue::enqueue(Frame&& frame) {
  occupancy_.add(static_cast<double>(data_bytes_));
  if (data_bytes_ > kHotDepthBytes) ++counters_.hot_samples;
  QueueTelemetry::get().depth_bytes.observe(static_cast<double>(data_bytes_));

  // Control frames and already-trimmed frames ride the header queue
  // whenever the policy has one (NDP forwards headers with priority).
  const bool control = frame.kind != FrameKind::kData || frame.trimmed;
  if (control && cfg_.policy == QueuePolicy::kTrim) {
    return enqueue_header(std::move(frame));
  }

  if (data_bytes_ + frame.size_bytes <= cfg_.capacity_bytes) {
    if (cfg_.policy == QueuePolicy::kEcn &&
        data_bytes_ >= cfg_.ecn_threshold_bytes) {
      frame.ecn = true;
      ++counters_.ecn_marked;
      QueueTelemetry::get().ecn_marked.add();
    }
    data_bytes_ += frame.size_bytes;
    if (data_bytes_ > counters_.max_data_bytes)
      counters_.max_data_bytes = data_bytes_;
    data_q_.push_back(std::move(frame));
    ++counters_.enqueued;
    QueueTelemetry::get().enqueued.add();
    return true;
  }

  // Overflow.
  if (cfg_.policy == QueuePolicy::kTrim && frame.trimmable()) {
    frame.trim();
    ++counters_.trimmed;
    QueueTelemetry::get().trimmed.add();
    core::TraceLog::global().instant("trim", "net.queue");
    return enqueue_header(std::move(frame));
  }
  ++counters_.dropped;
  QueueTelemetry::get().dropped.add();
  core::TraceLog::global().instant("drop", "net.queue");
  return false;
}

bool EgressQueue::dequeue(Frame& out) {
  const bool header = !header_q_.empty();
  FrameRing& q = header ? header_q_ : data_q_;
  if (q.empty()) return false;
  out = std::move(q.front());
  q.pop_front();
  (header ? header_bytes_ : data_bytes_) -= out.size_bytes;
  ++counters_.dequeued;
  QueueTelemetry::get().dequeued.add();
  return true;
}

}  // namespace trimgrad::net
