// SimChannel's control-plane feedback: every fabric field comes from the
// channel's own flows and its own simulator's queues, so two simulators in
// one process cannot see each other's congestion, and the counts agree with
// the process-wide telemetry they replaced.
#include "collective/sim_channel.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "collective/allreduce.h"
#include "core/metrics.h"
#include "core/prng.h"
#include "core/threadpool.h"
#include "net/fault_plane.h"
#include "net/topology.h"

namespace trimgrad::collective {
namespace {

std::vector<std::vector<float>> random_grads(int world, std::size_t n,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> out(static_cast<std::size_t>(world));
  core::Xoshiro256 rng(seed);
  for (auto& g : out) {
    g.resize(n);
    for (auto& x : g) x = static_cast<float>(rng.gaussian());
  }
  return out;
}

core::CodecConfig rht_codec() {
  core::CodecConfig cfg;
  cfg.scheme = core::Scheme::kRHT;
  cfg.rht_row_len = 1 << 10;
  return cfg;
}

/// A fat-tree with `world` ranks spread over the pods and a SimChannel on
/// it. Members are declared in construction order; the channel keeps
/// references to the simulator.
struct Fabric {
  net::Simulator sim;
  std::unique_ptr<net::FaultPlane> faults;
  std::unique_ptr<SimChannel> channel;

  Fabric(std::size_t k, int world, net::QueuePolicy policy,
         const std::string& transport, bool parallel = false,
         double corrupt_rate = 0.0) {
    net::FabricConfig fcfg;
    fcfg.edge_link = {10e9, 1e-6};
    fcfg.core_link = {10e9, 2e-6};
    fcfg.switch_queue.policy = policy;
    if (policy == net::QueuePolicy::kTrim) {
      fcfg.switch_queue.capacity_bytes = 20 * 1024;
      fcfg.switch_queue.header_capacity_bytes = 64 * 1024;
    }
    const net::FatTree ft = net::build_fat_tree(sim, k, fcfg);
    if (parallel) {
      net::partition_fat_tree(sim, ft);
      sim.seal_partition();
      sim.set_parallel_execution(true);
    }
    if (corrupt_rate > 0) {
      net::FaultPlaneConfig pcfg;
      pcfg.seed = 7;
      pcfg.corrupt_rate = corrupt_rate;
      faults = std::make_unique<net::FaultPlane>(pcfg);
      sim.set_fault_plane(faults.get());
    }
    std::vector<net::NodeId> hosts;
    for (int r = 0; r < world; ++r) {
      const auto u = static_cast<std::size_t>(r);
      hosts.push_back(ft.pod_hosts[u % ft.k][u / ft.k]);
    }
    SimChannel::Config ccfg;
    ccfg.transport = transport;
    ccfg.tuning.rto = 100e-6;
    ccfg.tuning.rto_cap = 1e-3;
    channel = std::make_unique<SimChannel>(sim, std::move(hosts), ccfg);
  }

  /// One parameter-server round: every rank sends to rank 0 at once (the
  /// congested incast), then rank 0 sends the mean back.
  void incast(std::uint32_t round, std::size_t coords = 30000) {
    AllReducer reducer(*channel, rht_codec());
    reducer.run(random_grads(channel->world_size(), coords, 100 + round),
                round, 1);
  }
};

/// The queue-pressure fraction the channel used to compute from the
/// registry: samples in the net.queue.depth_bytes buckets with bound
/// >= 65536 plus overflow, as a delta against `seen_total`/`seen_hot`.
struct RegistryDepthCursor {
  std::uint64_t seen_total = 0;
  std::uint64_t seen_hot = 0;

  double take() {
    const auto snap = core::MetricsRegistry::global().snapshot();
    std::uint64_t total = 0;
    std::uint64_t hot = 0;
    for (const auto& h : snap.histograms) {
      if (h.name != "net.queue.depth_bytes") continue;
      total = h.total;
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        if (b >= h.bounds.size() || h.bounds[b] >= 65536.0) hot += h.counts[b];
      }
    }
    double frac = 0.0;
    if (total > seen_total) {
      frac = static_cast<double>(hot - seen_hot) /
             static_cast<double>(total - seen_total);
    }
    seen_total = total;
    seen_hot = hot;
    return frac;
  }
};

std::uint64_t corrupt_detected() {
  for (const auto& c : core::MetricsRegistry::global().snapshot().counters) {
    if (c.name == "net.fault.corrupt_detected") return c.value;
  }
  return 0;
}

TEST(SimChannelFeedback, TwoSimulatorsKeepTheirFeedbackApart) {
  // Fabric A: ECN queues, the ECN transport and corrupting links, so each
  // fabric field of A's feedback is nonzero.
  Fabric a(4, 8, net::QueuePolicy::kEcn, "ecn", false, 0.01);
  a.incast(1);
  const core::NetFeedback fa = a.channel->take_feedback();
  EXPECT_GT(fa.queue_depth_frac, 0.0) << "fabric A was not congested";
  EXPECT_GT(fa.corrupt_nacks, 0u);
  EXPECT_GT(fa.dctcp_alpha, 0.0);

  // Fabric B is built afterwards in the same process and sends nothing.
  Fabric b(4, 8, net::QueuePolicy::kTrim, "trim");
  for (std::uint32_t round = 2; round <= 3; ++round) {
    const core::NetFeedback fb = b.channel->take_feedback();
    EXPECT_EQ(fb.queue_depth_frac, 0.0) << "round " << round;
    EXPECT_EQ(fb.corrupt_nacks, 0u) << "round " << round;
    EXPECT_EQ(fb.dctcp_alpha, 0.0) << "round " << round;
    EXPECT_EQ(fb.packets, 0u) << "round " << round;
    a.incast(round);
    EXPECT_GT(a.channel->take_feedback().queue_depth_frac, 0.0);
  }
}

class SimChannelRegistryAgreement
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SimChannelRegistryAgreement, FeedbackEqualsRegistryDeltas) {
  // One simulator, no membership: the registry sees exactly this fabric's
  // queues and receivers, so its deltas must match the channel bit for bit.
  core::MetricsRegistry::global().reset_values();
  Fabric f(4, 8, net::QueuePolicy::kTrim, GetParam(), false, 0.002);
  RegistryDepthCursor depth;
  std::uint64_t detected_seen = corrupt_detected();
  double frac_sum = 0.0;
  std::uint64_t nacks_sum = 0;
  for (std::uint32_t round = 1; round <= 4; ++round) {
    f.incast(round);
    const core::NetFeedback fb = f.channel->take_feedback();
    const double want_frac = depth.take();
    const std::uint64_t detected = corrupt_detected();
    EXPECT_EQ(fb.queue_depth_frac, want_frac) << "round " << round;
    EXPECT_EQ(fb.corrupt_nacks, detected - detected_seen) << "round " << round;
    detected_seen = detected;
    frac_sum += fb.queue_depth_frac;
    nacks_sum += fb.corrupt_nacks;
  }
  EXPECT_GT(frac_sum, 0.0) << "no round was congested";
  EXPECT_GT(nacks_sum, 0u) << "no frame was corrupted";
}

INSTANTIATE_TEST_SUITE_P(
    Transports, SimChannelRegistryAgreement,
    ::testing::Values("trim", "reliable"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(SimChannelFeedback, ParallelEcnFeedbackIsIdenticalAcrossPoolSizes) {
  // Sharded k=8 fat-tree: DCTCP senders and queues run in parallel windows
  // on the pool, and the feedback must not depend on its size.
  auto feedback_bytes = [](std::size_t threads) {
    core::ThreadPool::set_global_threads(threads);
    Fabric f(8, 16, net::QueuePolicy::kEcn, "ecn", true);
    std::vector<std::uint8_t> bytes;
    for (std::uint32_t round = 1; round <= 3; ++round) {
      f.incast(round, 20000);
      core::NetFeedback fb = f.channel->take_feedback();
      fb.round = round;
      EXPECT_GT(fb.queue_depth_frac, 0.0) << threads << " threads";
      EXPECT_GT(fb.dctcp_alpha, 0.0) << threads << " threads";
      core::append_feedback(bytes, fb);
    }
    return bytes;
  };
  const std::vector<std::uint8_t> one = feedback_bytes(1);
  EXPECT_EQ(feedback_bytes(2), one);
  EXPECT_EQ(feedback_bytes(8), one);
  core::ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace trimgrad::collective
