#include "net/queue.h"

#include <gtest/gtest.h>

#include <optional>

namespace trimgrad::net {
namespace {

/// dequeue() as an optional, checking that front() named the same frame.
std::optional<Frame> pop(EgressQueue& q) {
  const Frame* head = q.front();
  const std::uint64_t head_seq = head != nullptr ? head->seq : 0;
  Frame f;
  if (!q.dequeue(f)) {
    EXPECT_EQ(head, nullptr);
    return std::nullopt;
  }
  EXPECT_NE(head, nullptr);
  EXPECT_EQ(f.seq, head_seq);
  return f;
}

Frame data_frame(std::size_t size, std::size_t trim_size = 88) {
  Frame f;
  f.kind = FrameKind::kData;
  f.size_bytes = size;
  f.trim_size_bytes = trim_size;
  return f;
}

Frame ack_frame() {
  Frame f;
  f.kind = FrameKind::kAck;
  f.size_bytes = kControlFrameBytes;
  return f;
}

QueueConfig small_cfg(QueuePolicy policy) {
  QueueConfig cfg;
  cfg.policy = policy;
  cfg.capacity_bytes = 3000;  // two full MTUs
  cfg.header_capacity_bytes = 512;
  cfg.ecn_threshold_bytes = 1500;
  return cfg;
}

TEST(DropTail, AcceptsUntilFullThenDrops) {
  EgressQueue q(small_cfg(QueuePolicy::kDropTail));
  EXPECT_TRUE(q.enqueue(data_frame(1500)));
  EXPECT_TRUE(q.enqueue(data_frame(1500)));
  EXPECT_FALSE(q.enqueue(data_frame(1500)));  // 4500 > 3000
  EXPECT_EQ(q.counters().dropped, 1u);
  EXPECT_EQ(q.counters().enqueued, 2u);
}

TEST(QueueDepth, HotSamplesAreTheDepthsAboveSixteenKiB) {
  QueueConfig cfg = small_cfg(QueuePolicy::kDropTail);
  cfg.capacity_bytes = 20000;
  EgressQueue q(cfg);
  EXPECT_TRUE(q.enqueue(data_frame(kHotDepthBytes)));  // sampled at 0
  EXPECT_TRUE(q.enqueue(data_frame(1)));    // sampled at exactly 16 KiB
  EXPECT_EQ(q.counters().hot_samples, 0u);
  EXPECT_TRUE(q.enqueue(data_frame(100)));  // sampled at 16 KiB + 1
  EXPECT_FALSE(q.enqueue(data_frame(10000)));  // sampled hot, then dropped
  EXPECT_EQ(q.counters().hot_samples, 2u);
  // Every enqueue() is one sample and ends in exactly one of the two.
  EXPECT_EQ(q.counters().enqueued + q.counters().dropped, 4u);
}

TEST(DropTail, DequeueIsFifo) {
  EgressQueue q(small_cfg(QueuePolicy::kDropTail));
  Frame a = data_frame(100);
  a.seq = 1;
  Frame b = data_frame(100);
  b.seq = 2;
  q.enqueue(std::move(a));
  q.enqueue(std::move(b));
  EXPECT_EQ(pop(q)->seq, 1u);
  EXPECT_EQ(pop(q)->seq, 2u);
  EXPECT_FALSE(pop(q).has_value());
}

TEST(DropTail, ByteAccountingBalances) {
  EgressQueue q(small_cfg(QueuePolicy::kDropTail));
  q.enqueue(data_frame(1000));
  q.enqueue(data_frame(500));
  EXPECT_EQ(q.data_bytes(), 1500u);
  pop(q);
  EXPECT_EQ(q.data_bytes(), 500u);
  pop(q);
  EXPECT_EQ(q.data_bytes(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(Trim, OverflowTrimsInsteadOfDropping) {
  EgressQueue q(small_cfg(QueuePolicy::kTrim));
  EXPECT_TRUE(q.enqueue(data_frame(1500)));
  EXPECT_TRUE(q.enqueue(data_frame(1500)));
  EXPECT_TRUE(q.enqueue(data_frame(1500)));  // trimmed, not dropped
  EXPECT_EQ(q.counters().trimmed, 1u);
  EXPECT_EQ(q.counters().dropped, 0u);
}

TEST(Trim, TrimmedFrameShrinksToTrimPoint) {
  EgressQueue q(small_cfg(QueuePolicy::kTrim));
  q.enqueue(data_frame(1500));
  q.enqueue(data_frame(1500));
  q.enqueue(data_frame(1500, 88));
  // Header queue has strict priority: the trimmed frame pops first.
  const auto f = pop(q);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->trimmed);
  EXPECT_EQ(f->size_bytes, 88u);
}

TEST(Trim, UntrimmableFrameIsDroppedOnOverflow) {
  EgressQueue q(small_cfg(QueuePolicy::kTrim));
  q.enqueue(data_frame(1500));
  q.enqueue(data_frame(1500));
  EXPECT_FALSE(q.enqueue(data_frame(1500, /*trim_size=*/0)));
  EXPECT_EQ(q.counters().dropped, 1u);
}

TEST(Trim, HeaderQueueOverflowDrops) {
  QueueConfig cfg = small_cfg(QueuePolicy::kTrim);
  cfg.header_capacity_bytes = 100;  // fits one 88-byte header
  EgressQueue q(cfg);
  q.enqueue(data_frame(1500));
  q.enqueue(data_frame(1500));
  EXPECT_TRUE(q.enqueue(data_frame(1500)));   // trim -> header queue
  EXPECT_FALSE(q.enqueue(data_frame(1500)));  // header queue full -> drop
  EXPECT_EQ(q.counters().trimmed, 2u);  // second was trimmed then dropped
  EXPECT_EQ(q.counters().dropped, 1u);
}

TEST(Trim, ControlFramesUseHeaderQueue) {
  EgressQueue q(small_cfg(QueuePolicy::kTrim));
  q.enqueue(data_frame(1500));
  q.enqueue(ack_frame());
  EXPECT_EQ(q.header_bytes(), kControlFrameBytes);
  // Strict priority: the ACK overtakes the queued data frame.
  EXPECT_EQ(pop(q)->kind, FrameKind::kAck);
  EXPECT_EQ(pop(q)->kind, FrameKind::kData);
}

TEST(Trim, AlreadyTrimmedFramesJoinHeaderQueue) {
  EgressQueue q(small_cfg(QueuePolicy::kTrim));
  Frame f = data_frame(1500);
  f.trim();
  EXPECT_TRUE(f.trimmed);
  q.enqueue(std::move(f));
  EXPECT_EQ(q.data_bytes(), 0u);
  EXPECT_GT(q.header_bytes(), 0u);
}

TEST(Ecn, MarksAboveThreshold) {
  EgressQueue q(small_cfg(QueuePolicy::kEcn));
  q.enqueue(data_frame(1500));  // below threshold: no mark
  q.enqueue(data_frame(1500));  // occupancy 1500 >= threshold: marked
  auto a = pop(q);
  auto b = pop(q);
  EXPECT_FALSE(a->ecn);
  EXPECT_TRUE(b->ecn);
  EXPECT_EQ(q.counters().ecn_marked, 1u);
}

TEST(Ecn, StillDropsOnOverflow) {
  EgressQueue q(small_cfg(QueuePolicy::kEcn));
  q.enqueue(data_frame(1500));
  q.enqueue(data_frame(1500));
  EXPECT_FALSE(q.enqueue(data_frame(1500)));
  EXPECT_EQ(q.counters().dropped, 1u);
}

TEST(Counters, MaxDataBytesHighWaterMark) {
  EgressQueue q(small_cfg(QueuePolicy::kDropTail));
  q.enqueue(data_frame(1000));
  q.enqueue(data_frame(1000));
  pop(q);
  q.enqueue(data_frame(500));
  EXPECT_EQ(q.counters().max_data_bytes, 2000u);
}

TEST(Counters, OccupancySampledOnEnqueue) {
  EgressQueue q(small_cfg(QueuePolicy::kDropTail));
  q.enqueue(data_frame(1000));
  q.enqueue(data_frame(1000));
  EXPECT_EQ(q.occupancy().count(), 2u);
  EXPECT_DOUBLE_EQ(q.occupancy().max(), 1000.0);  // sampled before enqueue
}

TEST(FrameTrim, CopyOnTrimPreservesOriginalCargo) {
  auto pkt = std::make_shared<core::GradientPacket>();
  pkt->scheme = core::Scheme::kRHT;
  pkt->head_region.assign(46, 1);
  pkt->tail_region.assign(1412, 2);
  Frame f = data_frame(1500);
  f.cargo = pkt;
  f.trim();
  EXPECT_TRUE(f.cargo->trimmed);
  EXPECT_TRUE(f.cargo->tail_region.empty());
  // The sender's copy is untouched.
  EXPECT_FALSE(pkt->trimmed);
  EXPECT_EQ(pkt->tail_region.size(), 1412u);
}

TEST(FrameTrim, NotTrimmableWithoutTrimSize) {
  Frame f = data_frame(1500, 0);
  EXPECT_FALSE(f.trimmable());
  f.trim();
  EXPECT_FALSE(f.trimmed);
  EXPECT_EQ(f.size_bytes, 1500u);
}

TEST(FrameTrim, TrimIsIdempotentOnFrame) {
  Frame f = data_frame(1500, 88);
  f.trim();
  EXPECT_EQ(f.size_bytes, 88u);
  f.trim();
  EXPECT_EQ(f.size_bytes, 88u);
}

}  // namespace
}  // namespace trimgrad::net
