// The per-round compression control plane closed through the trainer:
// aimd-trim decisions must be bit-identical across thread counts, a policy
// switch must actually change the wire codec, the default fixed policy must
// be byte-for-byte the old pinned path, and a checkpointed run must replay
// the interrupted trajectory exactly after restore.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "collective/inject_channel.h"
#include "core/policy.h"
#include "core/threadpool.h"
#include "ddp/trainer.h"
#include "ml/data.h"
#include "ml/model.h"

namespace trimgrad::ddp {
namespace {

ml::SynthCifarConfig small_data_config() {
  ml::SynthCifarConfig dcfg;
  dcfg.classes = 10;
  dcfg.height = dcfg.width = 8;
  dcfg.train_per_class = 16;
  dcfg.test_per_class = 2;
  dcfg.proto_grid = 3;
  return dcfg;
}

TrainerConfig policy_trainer_config(const std::string& policy) {
  TrainerConfig tcfg;
  tcfg.world = 4;
  tcfg.global_batch = 32;
  tcfg.epochs = 3;
  tcfg.eval_every = 0;
  tcfg.sgd.lr = 0.05f;
  tcfg.codec.scheme = core::Scheme::kRHT;
  tcfg.codec.rht_row_len = std::size_t{1} << 10;
  tcfg.error_feedback = true;
  tcfg.policy.policy = policy;
  tcfg.policy.aimd.min_q = 7;
  tcfg.policy.aimd.max_q = 31;
  tcfg.policy.aimd.target_trim = 0.05;
  return tcfg;
}

/// A channel whose per-batch byte budget congests every round: feedback
/// carries real trim counts, and those counts are deterministic (the budget
/// cuts from the back of the burst, no coins involved).
collective::InjectChannel::Config congested_channel_config() {
  collective::InjectChannel::Config ccfg;
  ccfg.world = 4;
  ccfg.injector.trim_rate = 0.0;
  ccfg.injector.drop_rate = 0.0;
  ccfg.capacity_bytes = 40000;  // well under a q=31 burst for the 48-MLP
  return ccfg;
}

struct RunResult {
  std::vector<core::PolicyDecision> decisions;
  std::vector<std::vector<float>> params;  // one per replica
  double last_loss = 0;
};

RunResult run_policy_epochs(const std::string& policy, std::size_t epochs) {
  ml::SynthCifar data(small_data_config());
  collective::InjectChannel channel(congested_channel_config());
  TrainerConfig tcfg = policy_trainer_config(policy);
  DdpTrainer trainer(data, channel, tcfg, [] {
    ml::ModelConfig mcfg;
    mcfg.classes = 10;
    mcfg.height = mcfg.width = 8;
    return ml::make_mlp(mcfg, 48);
  });
  RunResult res;
  for (std::size_t e = 0; e < epochs; ++e) {
    res.last_loss = trainer.run_epoch(e).train_loss;
  }
  res.decisions = trainer.decisions();
  for (int r = 0; r < tcfg.world; ++r) {
    res.params.push_back(trainer.replica(r).flat_params());
  }
  return res;
}

void expect_bit_identical(const RunResult& a, const RunResult& b,
                          std::size_t threads) {
  EXPECT_EQ(a.decisions, b.decisions)
      << "decision trajectory differs at " << threads << " threads";
  EXPECT_EQ(a.last_loss, b.last_loss);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t r = 0; r < a.params.size(); ++r) {
    EXPECT_EQ(0, std::memcmp(a.params[r].data(), b.params[r].data(),
                             a.params[r].size() * sizeof(float)))
        << "replica " << r << " weights differ at " << threads << " threads";
  }
}

TEST(PolicyLoop, AimdTrimBitIdenticalAcrossPoolSizes) {
  core::ThreadPool::set_global_threads(1);
  const RunResult ref = run_policy_epochs("aimd-trim", 2);
  // The congested budget must have forced at least one actual switch —
  // otherwise this test would pass vacuously with the policy unwired.
  bool switched = false;
  for (std::size_t i = 1; i < ref.decisions.size(); ++i) {
    switched = switched || !(ref.decisions[i] == ref.decisions[i - 1]);
  }
  ASSERT_TRUE(switched) << "budget congestion never moved the controller";
  for (const std::size_t threads : {2, 8}) {
    core::ThreadPool::set_global_threads(threads);
    expect_bit_identical(ref, run_policy_epochs("aimd-trim", 2), threads);
  }
  core::ThreadPool::set_global_threads(1);
}

TEST(PolicyLoop, FixedPolicyNeverSwitches) {
  core::ThreadPool::set_global_threads(1);
  const RunResult res = run_policy_epochs("fixed", 1);
  ASSERT_FALSE(res.decisions.empty());
  const core::PolicyDecision base{"rht", 31};
  for (const auto& d : res.decisions) EXPECT_EQ(d, base);
}

TEST(PolicyLoop, AimdDivergesFromFixedUnderCongestion) {
  // Not just bookkeeping: once the controller cuts Q, the wire traffic and
  // therefore the trained weights must actually differ from the pinned run.
  core::ThreadPool::set_global_threads(1);
  const RunResult fixed = run_policy_epochs("fixed", 2);
  const RunResult aimd = run_policy_epochs("aimd-trim", 2);
  EXPECT_NE(fixed.params[0], aimd.params[0]);
}

TEST(PolicyLoop, CheckpointRestoreReplaysInterruptedTrajectory) {
  core::ThreadPool::set_global_threads(1);
  const std::size_t total_epochs = 3, cut_epoch = 2;
  const RunResult uninterrupted = run_policy_epochs("aimd-trim", total_epochs);

  // Train to the cut, checkpoint every rank (each carries the shared
  // control-plane state), then "kill" the trainer.
  ml::SynthCifar data(small_data_config());
  TrainerConfig tcfg = policy_trainer_config("aimd-trim");
  const auto make_model = [] {
    ml::ModelConfig mcfg;
    mcfg.classes = 10;
    mcfg.height = mcfg.width = 8;
    return ml::make_mlp(mcfg, 48);
  };
  std::vector<Checkpoint> saved;
  {
    collective::InjectChannel channel(congested_channel_config());
    DdpTrainer trainer(data, channel, tcfg, make_model);
    for (std::size_t e = 0; e < cut_epoch; ++e) trainer.run_epoch(e);
    for (int r = 0; r < tcfg.world; ++r) {
      saved.push_back(trainer.make_checkpoint(r, cut_epoch - 1, 0));
    }
  }

  // Byte round-trip, as a real restart would see them.
  for (auto& ck : saved) ck = Checkpoint::from_bytes(ck.to_bytes());

  // A fresh process: restore every rank plus the control plane, resume.
  collective::InjectChannel channel(congested_channel_config());
  DdpTrainer resumed(data, channel, tcfg, make_model);
  for (int r = 0; r < tcfg.world; ++r) {
    resumed.restore_rank(r, saved[static_cast<std::size_t>(r)]);
  }
  resumed.restore_control_plane(saved[0]);
  double last_loss = 0;
  for (std::size_t e = cut_epoch; e < total_epochs; ++e) {
    last_loss = resumed.run_epoch(e).train_loss;
  }

  // The resumed decisions are the uninterrupted run's tail, the weights
  // and loss land bit-identically.
  const auto& all = uninterrupted.decisions;
  const auto& tail = resumed.decisions();
  ASSERT_LT(tail.size(), all.size());
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         all.end() - static_cast<std::ptrdiff_t>(tail.size())))
      << "restored controller diverged from the uninterrupted trajectory";
  EXPECT_EQ(last_loss, uninterrupted.last_loss);
  for (int r = 0; r < tcfg.world; ++r) {
    const auto& want = uninterrupted.params[static_cast<std::size_t>(r)];
    const auto got = resumed.replica(r).flat_params();
    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(float)))
        << "replica " << r << " weights diverged after restore";
  }
}

TEST(PolicyLoop, SchedulePolicySwapsCodecOnCue) {
  // A scripted mid-run swap from rht to sd, across wire schemes: the
  // decision log shows the swap and the active codec config follows it.
  ml::SynthCifar data(small_data_config());
  collective::InjectChannel::Config ccfg;
  ccfg.world = 4;
  collective::InjectChannel channel(ccfg);
  TrainerConfig tcfg = policy_trainer_config("schedule");
  tcfg.policy.schedule = "3:sd@15";
  core::ThreadPool::set_global_threads(1);
  DdpTrainer trainer(data, channel, tcfg, [] {
    ml::ModelConfig mcfg;
    mcfg.classes = 10;
    mcfg.height = mcfg.width = 8;
    return ml::make_mlp(mcfg, 48);
  });
  trainer.run_epoch(0);
  const auto& ds = trainer.decisions();
  ASSERT_GT(ds.size(), 3u);
  EXPECT_EQ(ds[2], (core::PolicyDecision{"rht", 31}));
  EXPECT_EQ(ds[3], (core::PolicyDecision{"sd", 15}));
  EXPECT_EQ(trainer.active_codec().scheme, core::Scheme::kSD);
  EXPECT_EQ(trainer.active_codec().layout.q_bits, 15u);
}

}  // namespace
}  // namespace trimgrad::ddp
