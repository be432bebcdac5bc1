// Switch egress queues: drop-tail, ECN, and packet trimming.
//
// The trimming queue is the paper's enabling mechanism (§1, citing NDP/EODS/
// Ultra Ethernet): when the shallow data queue would overflow, the switch
// cuts the frame down to its trim point and forwards the remainder on a
// small high-priority "header" queue instead of dropping it. Control frames
// always use the header queue, mirroring NDP's priority for headers/ACKs.
#pragma once

#include <cstddef>
#include <vector>

#include "core/stats.h"
#include "net/frame.h"

namespace trimgrad::net {

enum class QueuePolicy : std::uint8_t {
  kDropTail = 0,  ///< classic shallow buffer: overflow drops the frame
  kTrim = 1,      ///< NDP-style: overflow trims, header queue forwards
  kEcn = 2,       ///< drop-tail + ECN marking above a threshold
};

const char* to_string(QueuePolicy p) noexcept;

struct QueueConfig {
  QueuePolicy policy = QueuePolicy::kTrim;
  std::size_t capacity_bytes = 100 * 1024;       ///< shallow data queue
  std::size_t header_capacity_bytes = 32 * 1024; ///< trimmed/control queue
  std::size_t ecn_threshold_bytes = 30 * 1024;   ///< marking threshold (kEcn)
};

/// Enqueue-time data-queue depths above this are hot samples, the control
/// plane's queue-pressure signal (core::NetFeedback::queue_depth_frac).
inline constexpr std::size_t kHotDepthBytes = 16 * 1024;

/// Every enqueue() is one depth sample and ends in `enqueued` or `dropped`.
struct QueueCounters {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t trimmed = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t hot_samples = 0;   ///< depth samples above kHotDepthBytes
  std::size_t max_data_bytes = 0;  ///< high-water mark of the data queue
};

/// FIFO of frames in a power-of-two ring that only grows, so a steady hop
/// moves a frame in and out without touching the allocator.
class FrameRing {
 public:
  bool empty() const noexcept { return size_ == 0; }
  Frame& front() noexcept { return buf_[head_]; }
  const Frame& front() const noexcept { return buf_[head_]; }
  void push_back(Frame&& frame) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(frame);
    ++size_;
  }
  /// Drop the front slot; the caller has already moved the frame out.
  void pop_front() noexcept {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow();

  std::vector<Frame> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Two-level egress queue with a congestion policy. Not thread-safe — the
/// simulator is single-threaded by design.
class EgressQueue {
 public:
  explicit EgressQueue(QueueConfig cfg) : cfg_(cfg) {}

  /// Offer a frame. Returns false if the frame was dropped. A true return
  /// means the frame was accepted (possibly trimmed in place first).
  bool enqueue(Frame&& frame);

  /// The frame dequeue() would pop next, or nullptr if the queue is empty.
  const Frame* front() const noexcept {
    if (!header_q_.empty()) return &header_q_.front();
    return data_q_.empty() ? nullptr : &data_q_.front();
  }

  /// Pop the next frame to transmit into `out`: strict priority to the
  /// header queue (trimmed frames + control), then the data queue. Returns
  /// false (leaving `out` untouched) if the queue is empty.
  bool dequeue(Frame& out);

  bool empty() const noexcept {
    return header_q_.empty() && data_q_.empty();
  }
  std::size_t data_bytes() const noexcept { return data_bytes_; }
  std::size_t header_bytes() const noexcept { return header_bytes_; }
  const QueueCounters& counters() const noexcept { return counters_; }
  const QueueConfig& config() const noexcept { return cfg_; }
  /// Streaming occupancy statistics, sampled at every enqueue.
  const core::RunningStats& occupancy() const noexcept { return occupancy_; }

 private:
  bool enqueue_header(Frame&& frame);

  QueueConfig cfg_;
  FrameRing data_q_;
  FrameRing header_q_;
  std::size_t data_bytes_ = 0;
  std::size_t header_bytes_ = 0;
  QueueCounters counters_;
  core::RunningStats occupancy_;
};

}  // namespace trimgrad::net
