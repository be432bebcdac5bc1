// Deterministic fault plane: link flaps, brown-outs, node failures, and
// Bernoulli corruption — plus the recovery paths that keep flows (and the
// event queue) alive through all of them.
#include "net/fault_plane.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/threadpool.h"
#include "net/topology.h"
#include "net/traffic.h"

namespace trimgrad::net {
namespace {

std::uint64_t counter_value(const std::string& name) {
  const auto snap = core::MetricsRegistry::global().snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

struct Bench {
  Simulator sim;
  Dumbbell topo;

  explicit Bench(QueuePolicy policy = QueuePolicy::kDropTail,
                 double core_gbps = 10.0, std::size_t queue_kb = 2048) {
    FabricConfig cfg;
    cfg.edge_link = {100e9, 1e-6};
    cfg.core_link = {core_gbps * 1e9, 1e-6};
    cfg.switch_queue.policy = policy;
    cfg.switch_queue.capacity_bytes = queue_kb * 1024;
    cfg.switch_queue.header_capacity_bytes = 64 * 1024;
    topo = build_dumbbell(sim, 4, 4, cfg);
  }
};

TEST(FaultWindows, PeriodicLinkFlapCoversEachRepeat) {
  LinkFault f;
  f.start = 10.0;
  f.duration = 2.0;
  f.period = 100.0;
  f.repeats = 3;
  for (const double base : {10.0, 110.0, 210.0}) {
    EXPECT_TRUE(f.active_at(base));
    EXPECT_TRUE(f.active_at(base + 1.9));
    EXPECT_FALSE(f.active_at(base + 2.0));  // half-open interval
    EXPECT_FALSE(f.active_at(base - 0.1));
  }
  EXPECT_FALSE(f.active_at(310.0)) << "only 3 repeats";
  EXPECT_FALSE(f.active_at(0.0));
}

TEST(FaultPlane, LinkDownRefusesTransmissionsThenFlowRecovers) {
  Bench b;
  FaultPlaneConfig fcfg;
  LinkFault down;
  down.node = b.topo.left_hosts[0];
  down.port = 0;  // hosts are single-homed
  down.start = 0.0;
  down.duration = 120e-6;
  fcfg.link_faults.push_back(down);
  FaultPlane plane(fcfg);
  b.sim.set_fault_plane(&plane);

  const std::uint64_t refused0 = counter_value("net.fault.link_refused");
  TransportConfig cfg = TransportConfig::reliable();
  cfg.rto = 50e-6;
  cfg.rto_cap = 200e-6;
  ManagedFlow flow(b.sim, b.topo.left_hosts[0], b.topo.right_hosts[0], 1, cfg,
                   4);
  flow.start_at(0.0, make_bulk_items(4, 1500, 0));
  b.sim.run();

  EXPECT_TRUE(flow.stats().completed);
  EXPECT_EQ(flow.receiver_stats().delivered_full, 4u);
  EXPECT_GT(flow.stats().retransmits, 0u) << "initial window was refused";
  EXPECT_GE(counter_value("net.fault.link_refused") - refused0, 4u);
  std::size_t refusals = 0;
  for (const auto& ev : plane.log().events()) {
    refusals += ev.kind == FaultEvent::Kind::kLinkRefused ? 1 : 0;
  }
  EXPECT_GE(refusals, 4u);
}

TEST(FaultPlane, LinkDownFlushesQueuedFramesThenFlowRecovers) {
  // Packets pile up at the bottleneck egress; when that link goes hard
  // down mid-drain, the queued frames are lost with it.
  Bench b;
  FaultPlaneConfig fcfg;
  LinkFault down;
  down.node = b.topo.left_switch;
  down.port = 0;  // dumbbell builder wires the core link first
  down.start = 5e-6;
  down.duration = 60e-6;
  fcfg.link_faults.push_back(down);
  FaultPlane plane(fcfg);
  b.sim.set_fault_plane(&plane);

  const std::uint64_t flushed0 = counter_value("net.fault.queue_flushed");
  TransportConfig cfg = TransportConfig::reliable();
  cfg.rto = 50e-6;
  cfg.rto_cap = 100e-6;
  ManagedFlow flow(b.sim, b.topo.left_hosts[0], b.topo.right_hosts[0], 1, cfg,
                   16);
  flow.start_at(0.0, make_bulk_items(16, 1500, 0));
  b.sim.run();

  EXPECT_TRUE(flow.stats().completed);
  EXPECT_EQ(flow.receiver_stats().delivered_full, 16u);
  EXPECT_GT(counter_value("net.fault.queue_flushed") - flushed0, 0u);
  EXPECT_GT(flow.stats().retransmits, 0u);
}

TEST(FaultPlane, DeadNodeDropsDeliveriesThenFlowRecovers) {
  Bench b;
  FaultPlaneConfig fcfg;
  NodeFault dead;
  dead.node = b.topo.right_hosts[0];
  dead.start = 0.0;
  dead.duration = 100e-6;
  fcfg.node_faults.push_back(dead);
  FaultPlane plane(fcfg);
  b.sim.set_fault_plane(&plane);

  const std::uint64_t drops0 = counter_value("net.fault.node_drops");
  TransportConfig cfg = TransportConfig::reliable();
  cfg.rto = 60e-6;
  cfg.rto_cap = 200e-6;
  ManagedFlow flow(b.sim, b.topo.left_hosts[0], b.topo.right_hosts[0], 1, cfg,
                   4);
  flow.start_at(0.0, make_bulk_items(4, 1500, 0));
  b.sim.run();

  EXPECT_TRUE(flow.stats().completed);
  EXPECT_GT(counter_value("net.fault.node_drops") - drops0, 0u);
  EXPECT_GT(flow.stats().retransmits, 0u);
}

TEST(FaultPlane, BrownOutStretchesFlowCompletionTime) {
  SimTime clean_fct = 0, degraded_fct = 0;
  {
    Bench b;
    ManagedFlow flow(b.sim, b.topo.left_hosts[0], b.topo.right_hosts[0], 1,
                     TransportConfig::reliable(), 64);
    flow.start_at(0.0, make_bulk_items(64, 1500, 0));
    b.sim.run();
    ASSERT_TRUE(flow.stats().completed);
    clean_fct = flow.stats().fct();
  }
  {
    Bench b;
    FaultPlaneConfig fcfg;
    LinkFault slow;
    slow.node = b.topo.left_switch;
    slow.port = 0;
    slow.start = 0.0;
    slow.duration = 1.0;  // the whole run
    slow.bandwidth_scale = 0.1;
    slow.latency_scale = 4.0;
    fcfg.link_faults.push_back(slow);
    FaultPlane plane(fcfg);
    b.sim.set_fault_plane(&plane);
    ManagedFlow flow(b.sim, b.topo.left_hosts[0], b.topo.right_hosts[0], 1,
                     TransportConfig::reliable(), 64);
    flow.start_at(0.0, make_bulk_items(64, 1500, 0));
    b.sim.run();
    ASSERT_TRUE(flow.stats().completed);
    degraded_fct = flow.stats().fct();
  }
  // 10% of the bottleneck bandwidth: the transfer takes several times
  // longer, with zero losses — a brown-out, not an outage.
  EXPECT_GT(degraded_fct, clean_fct * 3.0);
}

TEST(FaultPlane, CorruptedFramesAreNackedNeverDeliveredAndRecovered) {
  Bench b;
  FaultPlaneConfig fcfg;
  fcfg.seed = 7;
  fcfg.corrupt_rate = 0.2;
  FaultPlane plane(fcfg);
  b.sim.set_fault_plane(&plane);

  const std::uint64_t detected0 = counter_value("net.fault.corrupt_detected");

  // Every packet carries cargo with a known byte pattern; the fault plane
  // flips a byte in the copies it corrupts, so any corrupted frame that
  // slipped through to delivery would fail the pattern check below.
  std::vector<SendItem> items;
  for (std::size_t i = 0; i < 32; ++i) {
    auto pkt = std::make_shared<core::GradientPacket>();
    pkt->msg_id = static_cast<std::uint32_t>(i);
    pkt->head_region.assign(64, 0xAB);
    SendItem it;
    it.size_bytes = 1500;
    it.trim_size_bytes = 0;
    it.cargo = std::move(pkt);
    items.push_back(std::move(it));
  }
  std::size_t delivered = 0;
  bool all_intact = true;
  TransportConfig cfg = TransportConfig::reliable();
  cfg.rto = 50e-6;
  cfg.rto_cap = 200e-6;
  ManagedFlow flow(b.sim, b.topo.left_hosts[0], b.topo.right_hosts[0], 1, cfg,
                   32, [&](const Frame& f) {
                     ++delivered;
                     ASSERT_TRUE(f.cargo);
                     for (const std::uint8_t byte : f.cargo->head_region) {
                       all_intact &= byte == 0xAB;
                     }
                   });
  flow.start_at(0.0, std::move(items));
  b.sim.run();

  EXPECT_TRUE(flow.stats().completed);
  EXPECT_EQ(delivered, 32u);
  EXPECT_TRUE(all_intact) << "a mangled payload was delivered as valid";
  EXPECT_GT(flow.receiver_stats().corrupt_frames, 0u);
  EXPECT_GT(flow.receiver_stats().nacks_sent, 0u);
  EXPECT_GT(flow.stats().retransmits, 0u);
  EXPECT_GE(counter_value("net.fault.corrupt_detected") - detected0,
            flow.receiver_stats().corrupt_frames);
}

TEST(FaultPlane, FaultLogIsBitReplayableAndRoundTrips) {
  auto run_once = [](FaultLog& out) {
    Bench b;
    FaultPlaneConfig fcfg;
    fcfg.seed = 99;
    fcfg.corrupt_rate = 0.15;
    LinkFault flap;
    flap.node = b.topo.left_switch;
    flap.port = 0;
    flap.start = 10e-6;
    flap.duration = 30e-6;
    flap.period = 100e-6;
    flap.repeats = 2;
    fcfg.link_faults.push_back(flap);
    FaultPlane plane(fcfg);
    b.sim.set_fault_plane(&plane);
    TransportConfig cfg = TransportConfig::reliable();
    cfg.rto = 50e-6;
    cfg.rto_cap = 100e-6;
    ManagedFlow flow(b.sim, b.topo.left_hosts[0], b.topo.right_hosts[0], 1,
                     cfg, 24);
    flow.start_at(0.0, make_bulk_items(24, 1500, 0));
    b.sim.run();
    EXPECT_TRUE(flow.stats().completed);
    out = plane.log();
  };

  FaultLog a, c;
  run_once(a);
  run_once(c);
  ASSERT_GT(a.size(), 0u);
  EXPECT_EQ(a, c) << "same seed + schedule must make identical decisions";

  std::stringstream ss;
  a.save(ss);
  const FaultLog loaded = FaultLog::load(ss);
  EXPECT_EQ(a, loaded);
}

TEST(FaultPlane, CorruptionCoinIsStateless) {
  // The per-frame coin must not depend on evaluation order: two planes with
  // the same seed asked about the same (frame, hop) in different orders
  // agree on every decision.
  FaultPlaneConfig fcfg;
  fcfg.seed = 5;
  fcfg.corrupt_rate = 0.5;
  FaultPlane p1(fcfg), p2(fcfg);
  auto make_frame = [](std::uint64_t id) {
    Frame f;
    f.id = id;
    f.kind = FrameKind::kData;
    return f;
  };
  std::vector<bool> forward, backward;
  for (std::uint64_t id = 0; id < 64; ++id) {
    Frame f = make_frame(id);
    forward.push_back(p1.maybe_corrupt(3, 1, 0.0, f));
  }
  for (std::uint64_t id = 64; id-- > 0;) {
    Frame f = make_frame(id);
    backward.push_back(p2.maybe_corrupt(3, 1, 0.0, f));
  }
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(forward[i], backward[63 - i]) << "frame " << i;
  }
}

/// One faulted, sharded run: cross-pod flows on a partitioned k=4 fat-tree
/// under corruption plus a flapping agg core-uplink, executed with `threads`
/// pool workers. Returns the plane's log.
FaultLog sharded_faulted_log(std::size_t threads) {
  core::ThreadPool::set_global_threads(threads);
  Simulator sim;
  FabricConfig cfg;
  cfg.edge_link = {100e9, 1e-6};
  cfg.core_link = {10e9, 2e-6};
  cfg.switch_queue.policy = QueuePolicy::kDropTail;
  cfg.switch_queue.capacity_bytes = 2048 * 1024;
  cfg.switch_queue.header_capacity_bytes = 64 * 1024;
  const FatTree ft = build_fat_tree(sim, 4, cfg);
  partition_fat_tree(sim, ft);
  sim.seal_partition();
  sim.set_parallel_execution(true);

  FaultPlaneConfig fcfg;
  fcfg.seed = 31;
  fcfg.corrupt_rate = 0.05;
  LinkFault flap;
  flap.node = ft.aggs[0][0];
  flap.port = 2;  // first core uplink (ports 0..1 are edge downlinks)
  flap.start = 20e-6;
  flap.duration = 30e-6;
  flap.period = 150e-6;
  flap.repeats = 4;
  fcfg.link_faults.push_back(flap);
  FaultPlane plane(fcfg);
  sim.set_fault_plane(&plane);

  TransportConfig tcfg = TransportConfig::reliable();
  tcfg.rto = 100e-6;
  tcfg.rto_cap = 1e-3;
  std::vector<std::unique_ptr<ManagedFlow>> flows;
  for (std::uint32_t i = 0; i < 4; ++i) {
    // Cross-pod pairs so every flow rides the (faulted) core layer.
    flows.push_back(std::make_unique<ManagedFlow>(
        sim, ft.pod_hosts[i][0], ft.pod_hosts[(i + 1) % 4][0], i + 1, tcfg,
        32));
    flows.back()->start_at(0.0, make_bulk_items(32, 1500, 0));
  }
  sim.run();
  for (const auto& f : flows) EXPECT_TRUE(f->stats().completed);
  return plane.log();
}

TEST(FaultLog, SortedIsStableAcrossWorkerCounts) {
  // The append order of a sharded run's log follows worker interleaving;
  // the sorted() normal form must erase that so chaos repros replay
  // bit-identically at any TRIMGRAD_THREADS.
  const FaultLog one = sharded_faulted_log(1);
  const FaultLog two = sharded_faulted_log(2);
  const FaultLog eight = sharded_faulted_log(8);
  core::ThreadPool::set_global_threads(std::thread::hardware_concurrency());
  ASSERT_GT(one.size(), 0u) << "the faults never fired";
  EXPECT_EQ(one.sorted(), two.sorted()) << "1 vs 2 workers diverged";
  EXPECT_EQ(one.sorted(), eight.sorted()) << "1 vs 8 workers diverged";
}

TEST(FaultLog, SaveLoadSaveIsByteIdentical) {
  const FaultLog log = sharded_faulted_log(2).sorted();
  core::ThreadPool::set_global_threads(std::thread::hardware_concurrency());
  ASSERT_GT(log.size(), 0u);
  std::stringstream first;
  log.save(first);
  std::stringstream replay(first.str());
  const FaultLog loaded = FaultLog::load(replay);
  EXPECT_EQ(loaded, log);
  std::stringstream second;
  loaded.save(second);
  EXPECT_EQ(second.str(), first.str())
      << "serialize -> parse -> serialize must be byte-identical";
}

TEST(FaultPlane, StragglerScheduleIsDeterministicAndInRange) {
  StragglerSchedule s{42, 3.0};
  EXPECT_TRUE(s.enabled());
  for (std::uint64_t e = 0; e < 16; ++e) {
    const int r = s.straggler_rank(e, 8);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 8);
    const StragglerSchedule same{42, 3.0};
    EXPECT_EQ(r, same.straggler_rank(e, 8));
  }
  StragglerSchedule off{42, 1.0};
  EXPECT_FALSE(off.enabled());
}

}  // namespace
}  // namespace trimgrad::net
