// Sharded-simulator determinism: a partitioned fat-tree under closed-loop
// traffic (and under active fault injection) must produce bit-identical
// results whether the engine runs sequentially (K-way merge) or in parallel
// windows — and the parallel results must not depend on TRIMGRAD_THREADS.
// This is the net-layer analogue of the codec determinism suite: the digest
// covers per-flow stats bit patterns, delivery/execution counts, metrics
// counters, and the (canonically sorted) fault log.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/threadpool.h"
#include "net/fault_plane.h"
#include "net/topology.h"
#include "net/traffic.h"

namespace trimgrad::net {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv_pod(std::uint64_t h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a(h, &v, sizeof(v));
}

std::uint64_t hash_flow(std::uint64_t h, const FlowStats& st) {
  h = fnv_pod(h, st.start_time);
  h = fnv_pod(h, st.end_time);
  h = fnv_pod(h, st.frames_sent);
  h = fnv_pod(h, st.bytes_sent);
  h = fnv_pod(h, st.retransmits);
  h = fnv_pod(h, st.acked_full);
  h = fnv_pod(h, st.acked_trimmed);
  h = fnv_pod(h, st.completed);
  h = fnv_pod(h, st.failed);
  return h;
}

/// Counters only: gauges are last-write-wins (excluded from the parallel
/// contract) and histogram shards reduce deterministically like counters
/// but the counter set is plenty to pin the workload.
std::uint64_t hash_counters(std::uint64_t h) {
  const auto snap = core::MetricsRegistry::global().snapshot();
  for (const auto& c : snap.counters) {
    h = fnv1a(h, c.name.data(), c.name.size());
    h = fnv_pod(h, c.value);
  }
  return h;
}

enum class Mode { kSequential, kParallel };

struct WorkloadResult {
  std::uint64_t digest = 0;
  std::uint64_t delivered = 0;
  std::uint64_t executed = 0;
  std::size_t incast_completed = 0;
  std::size_t poisson_completed = 0;
  FaultLog fault_log;  ///< canonically sorted
};

/// Closed-loop workload on a partitioned k=4 fat-tree: an 8-to-1 incast of
/// trimmable flows crossing pods plus Poisson background over all 16 hosts.
/// Every flow is deadline/budget-limited so faulted runs always drain.
WorkloadResult run_workload(Mode mode, const FaultPlaneConfig* fault_cfg) {
  core::MetricsRegistry::global().reset_values();
  Simulator sim;
  FabricConfig fcfg;
  fcfg.edge_link = {10e9, 1e-6};
  fcfg.core_link = {10e9, 2e-6};
  fcfg.switch_queue.policy = QueuePolicy::kTrim;
  fcfg.switch_queue.capacity_bytes = 30 * 1024;
  fcfg.switch_queue.header_capacity_bytes = 64 * 1024;
  const FatTree ft = build_fat_tree(sim, 4, fcfg);
  partition_fat_tree(sim, ft);
  sim.seal_partition();
  EXPECT_EQ(sim.domain_count(), ft.domain_count());
  EXPECT_DOUBLE_EQ(sim.lookahead(), 2e-6);

  FaultPlane plane{fault_cfg != nullptr ? *fault_cfg : FaultPlaneConfig{}};
  if (fault_cfg != nullptr) sim.set_fault_plane(&plane);

  const std::vector<NodeId> hosts = ft.all_hosts();
  TransportConfig tcfg;
  tcfg.retransmit_budget = 64;
  tcfg.flow_deadline = 200e-3;

  IncastPattern::Config icfg;
  icfg.packets_per_sender = 48;
  icfg.transport = tcfg;
  std::vector<NodeId> senders;
  for (std::size_t p = 1; p < 4; ++p) {
    senders.push_back(ft.pod_hosts[p][0]);
    senders.push_back(ft.pod_hosts[p][1]);
  }
  senders.push_back(ft.pod_hosts[0][2]);
  senders.push_back(ft.pod_hosts[0][3]);
  IncastPattern incast(sim, senders, hosts[0], icfg);

  PoissonTraffic::Config pcfg;
  pcfg.flows_per_sec = 2e5;
  pcfg.packets_per_flow = 8;
  pcfg.stop = 2e-3;
  pcfg.transport = tcfg;
  PoissonTraffic poisson(sim, hosts, pcfg);

  sim.set_parallel_execution(mode == Mode::kParallel);
  sim.run();

  WorkloadResult r;
  r.delivered = sim.delivered_frames();
  r.executed = sim.executed_events();
  r.incast_completed = incast.completed_count();
  r.poisson_completed = poisson.completed();
  if (fault_cfg != nullptr) r.fault_log = plane.log().sorted();

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const FlowStats& st : incast.flow_stats()) h = hash_flow(h, st);
  for (SimTime fct : poisson.fcts()) h = fnv_pod(h, fct);
  h = fnv_pod(h, r.delivered);
  h = fnv_pod(h, r.executed);
  h = fnv_pod(h, r.incast_completed);
  h = fnv_pod(h, r.poisson_completed);
  h = hash_counters(h);
  r.digest = h;
  return r;
}

class SimScaleDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { core::ThreadPool::set_global_threads(1); }
};

TEST_F(SimScaleDeterminism, ParallelMatchesSequentialAcrossThreadCounts) {
  core::ThreadPool::set_global_threads(1);
  const WorkloadResult ref = run_workload(Mode::kSequential, nullptr);
  EXPECT_GT(ref.delivered, 0u);
  EXPECT_GT(ref.executed, ref.delivered);
  EXPECT_EQ(ref.incast_completed, 8u);
  EXPECT_GT(ref.poisson_completed, 0u);
  for (std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::ThreadPool::set_global_threads(threads);
    const WorkloadResult got = run_workload(Mode::kParallel, nullptr);
    EXPECT_EQ(got.digest, ref.digest);
    EXPECT_EQ(got.delivered, ref.delivered);
    EXPECT_EQ(got.executed, ref.executed);
    EXPECT_EQ(got.poisson_completed, ref.poisson_completed);
  }
}

TEST_F(SimScaleDeterminism, FaultedRunBitIdenticalAcrossModes) {
  FaultPlaneConfig fpc;
  fpc.seed = 11;
  fpc.corrupt_rate = 0.01;
  // Flap a pod-0 agg uplink (a cross-domain link) while traffic is live.
  LinkFault flap;
  flap.node = 0;  // first node created is p0-e0... resolved below
  fpc.link_faults.push_back(flap);

  // Resolve the agg node id from a throwaway build so the fault targets a
  // real agg->core port (port k/2 = first uplink).
  {
    Simulator probe;
    FabricConfig fcfg;
    const FatTree ft = build_fat_tree(probe, 4, fcfg);
    fpc.link_faults[0].node = ft.aggs[0][0];
    fpc.link_faults[0].port = 2;  // k/2 downlinks first; port 2 = uplink 0
    fpc.link_faults[0].start = 100e-6;
    fpc.link_faults[0].duration = 150e-6;
    fpc.link_faults[0].period = 500e-6;
    fpc.link_faults[0].repeats = 3;
  }

  core::ThreadPool::set_global_threads(1);
  const WorkloadResult ref = run_workload(Mode::kSequential, &fpc);
  EXPECT_GT(ref.fault_log.size(), 0u)
      << "fault plane never fired; the scenario is vacuous";
  for (std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::ThreadPool::set_global_threads(threads);
    const WorkloadResult got = run_workload(Mode::kParallel, &fpc);
    EXPECT_EQ(got.digest, ref.digest);
    EXPECT_TRUE(got.fault_log == ref.fault_log)
        << "fault decisions diverged: " << got.fault_log.size() << " vs "
        << ref.fault_log.size() << " events";
  }
}

/// Endpoint that counts frames and keeps none of them.
class PeekEndpoint : public FlowEndpoint {
 public:
  void on_frame(Frame&& frame) override { seqs.push_back(frame.seq); }
  std::vector<std::uint32_t> seqs;
};

TEST_F(SimScaleDeterminism, CrossDomainCargoIsReleasedAfterParallelRun) {
  // Pod 3 -> pod 0 crosses domains, so inside parallel windows every frame
  // rides a scheduler's outbox to the barrier before it gets a slab slot in
  // the destination domain. Neither may keep the payload alive.
  core::ThreadPool::set_global_threads(2);
  Simulator sim;
  const FatTree ft = build_fat_tree(sim, 4, FabricConfig{});
  partition_fat_tree(sim, ft);
  sim.seal_partition();
  sim.set_parallel_execution(true);
  const NodeId src = ft.pod_hosts[3][0];
  const NodeId dst = ft.pod_hosts[0][0];
  ASSERT_NE(sim.node_domain(src), sim.node_domain(dst));
  PeekEndpoint sink;
  static_cast<Host&>(sim.node(dst)).bind(7, &sink);
  const auto packet = std::make_shared<const core::GradientPacket>();
  for (std::uint32_t i = 0; i < 16; ++i) {
    Frame f;
    f.src = src;
    f.dst = dst;
    f.flow_id = 7;
    f.seq = i;
    f.size_bytes = 1500;
    f.cargo = packet;
    static_cast<Host&>(sim.node(src)).send(std::move(f));
  }
  sim.run();
  EXPECT_EQ(sink.seqs.size(), 16u);
  EXPECT_EQ(packet.use_count(), 1);
}

TEST(SimScalePartition, SealRejectsZeroLatencyInterDomainLink) {
  Simulator sim;
  auto& a = sim.add_node<Host>("a");
  auto& b = sim.add_node<Host>("b");
  sim.connect(a.id(), b.id(), LinkSpec{100e9, 0.0}, QueueConfig{});
  sim.set_node_domain(a.id(), 0);
  sim.set_node_domain(b.id(), 1);
  EXPECT_THROW(sim.seal_partition(), std::invalid_argument);
}

TEST(SimScalePartition, SealRejectsSparseDomainIds) {
  Simulator sim;
  auto& a = sim.add_node<Host>("a");
  auto& b = sim.add_node<Host>("b");
  sim.connect(a.id(), b.id(), LinkSpec{}, QueueConfig{});
  sim.set_node_domain(b.id(), 2);  // domain 1 unused
  EXPECT_THROW(sim.seal_partition(), std::invalid_argument);
}

TEST(SimScalePartition, SealRejectsQueuedEventsAndAdvancedClock) {
  {
    Simulator sim;
    sim.schedule(1e-6, [] {});
    EXPECT_THROW(sim.seal_partition(), std::logic_error);
  }
  {
    Simulator sim;
    sim.run_until(1e-3);
    EXPECT_THROW(sim.seal_partition(), std::logic_error);
  }
}

TEST(SimScalePartition, ParallelRequiresSealedPartition) {
  Simulator sim;
  EXPECT_THROW(sim.set_parallel_execution(true), std::logic_error);
  sim.seal_partition();
  EXPECT_NO_THROW(sim.set_parallel_execution(true));
  EXPECT_NO_THROW(sim.set_parallel_execution(false));
}

TEST(SimScalePartition, TopologyIsFrozenAfterSeal) {
  Simulator sim;
  auto& a = sim.add_node<Host>("a");
  auto& b = sim.add_node<Host>("b");
  sim.connect(a.id(), b.id(), LinkSpec{}, QueueConfig{});
  sim.seal_partition();
  EXPECT_THROW(sim.add_node<Host>("c"), std::logic_error);
  EXPECT_THROW(sim.connect(a.id(), b.id(), LinkSpec{}, QueueConfig{}),
               std::logic_error);
  EXPECT_THROW(sim.set_node_domain(a.id(), 0), std::logic_error);
  EXPECT_THROW(sim.seal_partition(), std::logic_error);
}

TEST(SimScalePartition, FrameIdsStayDisjointAcrossDomains) {
  // Domain 0 hands out the classic sequential ids (seed compatibility);
  // other domains live in disjoint tagged ranges.
  Simulator sim;
  EXPECT_EQ(sim.next_frame_id(), 1u);
  EXPECT_EQ(sim.next_frame_id(), 2u);
  FabricConfig fcfg;
  const FatTree ft = build_fat_tree(sim, 4, fcfg);
  partition_fat_tree(sim, ft);
  EXPECT_EQ(sim.next_frame_id(), 3u);  // still pre-seal, still domain 0
}

}  // namespace
}  // namespace trimgrad::net
