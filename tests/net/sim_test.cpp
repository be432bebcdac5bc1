#include "net/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/trace.h"
#include "net/host.h"

namespace trimgrad::net {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3e-6, [&] { order.push_back(3); });
  sim.schedule(1e-6, [&] { order.push_back(1); });
  sim.schedule(2e-6, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule(1e-6, [&, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ClockAdvancesMonotonically) {
  Simulator sim;
  SimTime last = -1;
  for (int i = 0; i < 100; ++i) {
    sim.schedule(1e-6 * (100 - i), [&, i] {
      EXPECT_GE(sim.now(), last);
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 100e-6);
}

TEST(EventQueue, NestedSchedulingWorks) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1e-6, [&] {
    ++fired;
    sim.schedule(1e-6, [&] {
      ++fired;
      EXPECT_DOUBLE_EQ(sim.now(), 2e-6);
    });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1e-6, [&] { ++fired; });
  sim.schedule(5e-6, [&] { ++fired; });
  sim.run_until(2e-6);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2e-6);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(LinkSpec, SerializationTime) {
  LinkSpec link;
  link.bandwidth_bps = 100e9;
  EXPECT_DOUBLE_EQ(link.tx_time(1500), 1500 * 8.0 / 100e9);  // 120 ns
  link.bandwidth_bps = 10e9;
  EXPECT_DOUBLE_EQ(link.tx_time(1500), 1.2e-6);
}

/// Sink node that records arrivals.
class SinkNode : public Node {
 public:
  SinkNode(Simulator& sim, NodeId id, std::string name)
      : Node(sim, id, std::move(name)) {}
  void on_frame(Frame&& frame) override {
    arrivals.push_back(sim_.now());
    frames.push_back(std::move(frame));
  }
  std::vector<SimTime> arrivals;
  std::vector<Frame> frames;
};

/// Two nodes, one link: delivery time = tx + propagation.
TEST(Wiring, SingleFrameDeliveryTiming) {
  Simulator sim;
  auto& a = sim.add_node<SinkNode>("a");
  auto& b = sim.add_node<SinkNode>("b");
  LinkSpec link{10e9, 5e-6};
  sim.connect(a.id(), b.id(), link, QueueConfig{});
  Frame f;
  f.dst = b.id();
  f.size_bytes = 1500;
  sim.transmit(a.id(), 0, std::move(f));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_NEAR(b.arrivals[0], 1500 * 8.0 / 10e9 + 5e-6, 1e-12);
}

TEST(Wiring, BackToBackFramesSerializeOnTheLink) {
  Simulator sim;
  auto& a = sim.add_node<SinkNode>("a");
  auto& b = sim.add_node<SinkNode>("b");
  LinkSpec link{10e9, 0.0};
  sim.connect(a.id(), b.id(), link, QueueConfig{});
  for (int i = 0; i < 3; ++i) {
    Frame f;
    f.dst = b.id();
    f.size_bytes = 1250;  // 1 us at 10 Gbps
    sim.transmit(a.id(), 0, std::move(f));
  }
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 3u);
  EXPECT_NEAR(b.arrivals[0], 1e-6, 1e-12);
  EXPECT_NEAR(b.arrivals[1], 2e-6, 1e-12);
  EXPECT_NEAR(b.arrivals[2], 3e-6, 1e-12);
}

TEST(Wiring, BidirectionalPortsIndependent) {
  Simulator sim;
  auto& a = sim.add_node<SinkNode>("a");
  auto& b = sim.add_node<SinkNode>("b");
  sim.connect(a.id(), b.id(), LinkSpec{10e9, 1e-6}, QueueConfig{});
  Frame fa;
  fa.dst = b.id();
  fa.size_bytes = 100;
  Frame fb;
  fb.dst = a.id();
  fb.size_bytes = 100;
  sim.transmit(a.id(), 0, std::move(fa));
  sim.transmit(b.id(), 0, std::move(fb));
  sim.run();
  EXPECT_EQ(a.frames.size(), 1u);
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(sim.delivered_frames(), 2u);
}

TEST(Wiring, PortToFindsPeer) {
  Simulator sim;
  auto& a = sim.add_node<SinkNode>("a");
  auto& b = sim.add_node<SinkNode>("b");
  auto& c = sim.add_node<SinkNode>("c");
  sim.connect(a.id(), b.id(), LinkSpec{}, QueueConfig{});
  sim.connect(a.id(), c.id(), LinkSpec{}, QueueConfig{});
  EXPECT_EQ(a.port_to(b.id()), 0u);
  EXPECT_EQ(a.port_to(c.id()), 1u);
  EXPECT_EQ(b.port_to(c.id()), b.port_count());  // no such port
}

/// Node whose frame handler schedules a burst of events before it reads the
/// frame, so the payload slab grows while the frame's own slot is in use.
class BurstNode : public Node {
 public:
  static constexpr int kBurst = 10000;
  BurstNode(Simulator& sim, NodeId id, std::string name)
      : Node(sim, id, std::move(name)) {}
  void on_frame(Frame&& frame) override {
    for (int i = 0; i < kBurst; ++i) {
      sim_.schedule((i % 5) * 1e-9, [this, i] { order.push_back(i); });
    }
    seqs.push_back(frame.seq);
    cargo = frame.cargo;
  }
  std::vector<int> order;
  std::vector<std::uint32_t> seqs;
  std::shared_ptr<const core::GradientPacket> cargo;
};

/// Expected order of a burst scheduled with delay (i % buckets): time first,
/// then FIFO within a time.
std::vector<int> time_then_fifo(int n, int buckets) {
  std::vector<int> expected(static_cast<std::size_t>(n));
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
    return a % buckets < b % buckets;
  });
  return expected;
}

TEST(EventSlab, FrameHandlerThatGrowsTheSlabKeepsItsFrameAndOrder) {
  Simulator sim;
  auto& a = sim.add_node<SinkNode>("a");
  auto& b = sim.add_node<BurstNode>("b");
  sim.connect(a.id(), b.id(), LinkSpec{10e9, 1e-6}, QueueConfig{});
  auto packet = std::make_shared<core::GradientPacket>();
  packet->seq = 77;
  packet->head_region.assign(64, 0xab);
  Frame f;
  f.dst = b.id();
  f.size_bytes = 1500;
  f.seq = 42;
  f.cargo = packet;
  sim.transmit(a.id(), 0, std::move(f));
  sim.run();
  EXPECT_EQ(b.seqs, (std::vector<std::uint32_t>{42}));
  ASSERT_EQ(b.cargo, packet);
  EXPECT_EQ(b.cargo->head_region, std::vector<std::uint8_t>(64, 0xab));
  EXPECT_EQ(b.order, time_then_fifo(BurstNode::kBurst, 5));
  // One drain, one delivery, then the burst.
  EXPECT_EQ(sim.executed_events(), 2u + BurstNode::kBurst);
}

TEST(EventSlab, CallbackThatGrowsTheSlabKeepsItsCaptures) {
  Simulator sim;
  constexpr int kBurst = 10000;
  std::vector<int> order;
  std::string seen;
  const std::string tag(100, 'x');  // heap-held capture
  sim.schedule(1e-6, [&sim, &order, &seen, tag] {
    for (int i = 0; i < kBurst; ++i) {
      sim.schedule((i % 3) * 1e-9, [&order, i] { order.push_back(i); });
    }
    seen = tag;  // read after the slab grew under this callback
  });
  sim.run();
  EXPECT_EQ(seen, tag);
  EXPECT_EQ(order, time_then_fifo(kBurst, 3));
}

/// Node that looks at every frame and keeps none of it.
class PeekNode : public Node {
 public:
  PeekNode(Simulator& sim, NodeId id, std::string name)
      : Node(sim, id, std::move(name)) {}
  void on_frame(Frame&& frame) override { seqs.push_back(frame.seq); }
  std::vector<std::uint32_t> seqs;
};

TEST(EventSlab, DeliveredCargoIsReleasedAfterRun) {
  Simulator sim;
  auto& a = sim.add_node<SinkNode>("a");
  auto& b = sim.add_node<PeekNode>("b");
  sim.connect(a.id(), b.id(), LinkSpec{10e9, 1e-6}, QueueConfig{});
  const auto packet = std::make_shared<const core::GradientPacket>();
  for (std::uint32_t i = 0; i < 8; ++i) {
    Frame f;
    f.dst = b.id();
    f.size_bytes = 1500;
    f.seq = i;
    f.cargo = packet;
    sim.transmit(a.id(), 0, std::move(f));
  }
  EXPECT_EQ(packet.use_count(), 9);  // one in flight, seven queued
  sim.run();
  EXPECT_EQ(b.seqs, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  // No slab slot, free-list entry or queue slot still holds the packet.
  EXPECT_EQ(packet.use_count(), 1);
}

TEST(SimTrace, OlderSimulatorTeardownKeepsTheNewerClock) {
  auto& log = core::TraceLog::global();
  auto older = std::make_unique<Simulator>();
  {
    Simulator newer;
    newer.run_until(5e-3);
    older.reset();
    EXPECT_EQ(log.now_seconds(), 5e-3);  // still the live simulator's clock
  }
  // The last simulator is gone: back to the logical ticker, not a dangling
  // clock.
  const double t0 = log.now_seconds();
  EXPECT_EQ(log.now_seconds(), t0 + 1e-6);
}

TEST(Wiring, FrameIdsAreUnique) {
  Simulator sim;
  EXPECT_NE(sim.next_frame_id(), sim.next_frame_id());
}

}  // namespace
}  // namespace trimgrad::net
