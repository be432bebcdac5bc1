// Thread-count and ISA invariance of the parallel DDP trainer: one epoch
// must produce bit-identical losses and updated weights whether the W
// replicas' forward/backward passes run on 1, 2, or 8 pool threads, and
// whether the ML kernels take the scalar or the vector path. This is the
// contract that makes the parallel trainer a drop-in replacement for the
// sequential one in every figure reproduction.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "collective/inject_channel.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "ddp/trainer.h"
#include "ml/data.h"
#include "ml/model.h"

namespace trimgrad::ddp {
namespace {

ml::SynthCifar& small_data() {
  static ml::SynthCifar* data = [] {
    ml::SynthCifarConfig dcfg;
    dcfg.classes = 10;
    dcfg.height = dcfg.width = 8;
    dcfg.train_per_class = 16;
    dcfg.test_per_class = 2;
    return new ml::SynthCifar(dcfg);
  }();
  return *data;
}

struct EpochResult {
  double loss = 0;
  std::vector<std::vector<float>> params;  // one per replica
};

enum class Model { kMlp, kMiniVgg };

EpochResult run_one_epoch(core::Scheme scheme, Model model = Model::kMlp) {
  TrainerConfig tcfg;
  tcfg.world = 4;
  tcfg.global_batch = 32;
  tcfg.epochs = 1;
  tcfg.eval_every = 0;
  tcfg.codec.scheme = scheme;
  tcfg.codec.rht_row_len = std::size_t{1} << 10;

  collective::InjectChannel::Config chcfg;
  chcfg.world = tcfg.world;
  // Congest the channel so trims/drops feed back into the weights: the
  // determinism claim has to hold through the lossy path, not just the
  // clean one.
  chcfg.injector.trim_rate = 0.2;
  chcfg.injector.drop_rate = 0.02;
  collective::InjectChannel channel(chcfg);

  DdpTrainer trainer(small_data(), channel, tcfg, [model] {
    ml::ModelConfig mcfg;
    mcfg.classes = 10;
    mcfg.height = mcfg.width = 8;
    return model == Model::kMlp ? ml::make_mlp(mcfg, 32)
                                : ml::make_mini_vgg(mcfg, 4);
  });
  EpochResult res;
  res.loss = trainer.run_epoch(0).train_loss;
  for (int r = 0; r < tcfg.world; ++r) {
    res.params.push_back(trainer.replica(r).flat_params());
  }
  return res;
}

void expect_bit_identical(const EpochResult& a, const EpochResult& b,
                          std::size_t threads, const char* isa = "") {
  EXPECT_EQ(a.loss, b.loss) << "loss differs at " << threads << " threads "
                            << isa;
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t r = 0; r < a.params.size(); ++r) {
    ASSERT_EQ(a.params[r].size(), b.params[r].size());
    EXPECT_EQ(0, std::memcmp(a.params[r].data(), b.params[r].data(),
                             a.params[r].size() * sizeof(float)))
        << "replica " << r << " weights differ at " << threads << " threads "
        << isa;
  }
}

TEST(TrainerDeterminism, RhtEpochInvariantAcrossPoolSizes) {
  core::ThreadPool::set_global_threads(1);
  const auto ref = run_one_epoch(core::Scheme::kRHT);
  ASSERT_GT(ref.params[0].size(), 0u);
  for (const std::size_t threads : {2, 8}) {
    core::ThreadPool::set_global_threads(threads);
    expect_bit_identical(ref, run_one_epoch(core::Scheme::kRHT), threads);
  }
  core::ThreadPool::set_global_threads(1);
}

TEST(TrainerDeterminism, SignEpochInvariantAcrossPoolSizes) {
  core::ThreadPool::set_global_threads(1);
  const auto ref = run_one_epoch(core::Scheme::kSign);
  for (const std::size_t threads : {2, 8}) {
    core::ThreadPool::set_global_threads(threads);
    expect_bit_identical(ref, run_one_epoch(core::Scheme::kSign), threads);
  }
  core::ThreadPool::set_global_threads(1);
}

TEST(TrainerDeterminism, MiniVggEpochInvariantAcrossIsasAndPoolSizes) {
  // The conv net runs every ML kernel (GEMMs, im2col/col2im, ReLU) down
  // the scalar reference and, where the CPU has it, the vector path.
  const core::simd::Isa saved = core::simd::active_isa();
  core::simd::set_isa(core::simd::Isa::kScalar);
  core::ThreadPool::set_global_threads(1);
  const auto ref = run_one_epoch(core::Scheme::kRHT, Model::kMiniVgg);
  ASSERT_GT(ref.params[0].size(), 0u);
  for (const core::simd::Isa want :
       {core::simd::Isa::kScalar, core::simd::compiled_isa()}) {
    const core::simd::Isa isa = core::simd::set_isa(want);
    for (const std::size_t threads : {1, 2, 8}) {
      core::ThreadPool::set_global_threads(threads);
      expect_bit_identical(
          ref, run_one_epoch(core::Scheme::kRHT, Model::kMiniVgg), threads,
          core::simd::to_string(isa));
    }
  }
  core::ThreadPool::set_global_threads(1);
  core::simd::set_isa(saved);
}

}  // namespace
}  // namespace trimgrad::ddp
