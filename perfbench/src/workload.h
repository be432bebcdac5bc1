// The benchmark's workloads: which training cells each one runs, and what a
// cell builds before its first round.
//
// A workload is a fixed list of cells derived from the workload seed. A cell
// is one training run with its own dataset, channel (and fabric) and model
// replicas, rebuilt from scratch every time it runs, as bench/ddp_sweep.h's
// run_cell does. Everything here goes through the repository's public
// headers; nothing in src/ knows about the benchmark.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collective/channel.h"
#include "ddp/experiment.h"
#include "ddp/trainer.h"
#include "ml/data.h"
#include "ml/model.h"
#include "net/sim.h"

namespace perfbench {

using namespace trimgrad;

struct CellSpec {
  std::string label;
  /// transport / scheme / topology / trim / policy / world / epochs / batch
  /// / lr / injector seed.
  ddp::ExperimentSpec spec;
  ml::SynthCifarConfig data;
  ml::ModelConfig model;
  std::size_t vgg_width = 0;   ///< > 0: mini-VGG of this width
  std::size_t mlp_hidden = 0;  ///< used when vgg_width == 0
  std::size_t rht_row_len = 0;
  std::size_t eval_every = 0;  ///< 0 = no evaluation
  std::uint64_t shuffle_seed = 0;
  std::uint64_t augment_seed = 0;
  bool fabric = false;  ///< SimChannel on a k=8 fat-tree, else InjectChannel
};

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
  /// Size the global thread pool is pinned to, below the VM's 4 vCPUs.
  std::size_t threads = 0;
};

/// The cells of `name` for `seed`. Throws std::invalid_argument listing the
/// known names when `name` is not one of them.
Workload make_workload(const std::string& name, std::uint64_t seed);

ddp::DdpTrainer::ModelFactory model_factory(const CellSpec& cell);
ddp::TrainerConfig trainer_config(const CellSpec& cell);

/// Everything a cell builds before its first round, except the trainer:
/// process-wide metrics and trace state reset (so a repeated cell replays
/// bit-identically), the dataset, and the channel — on the fabric workloads
/// a partitioned, sealed k=8 fat-tree running the sharded engine.
class CellEnv {
 public:
  explicit CellEnv(const CellSpec& cell);
  CellEnv(const CellEnv&) = delete;
  CellEnv& operator=(const CellEnv&) = delete;

  const ml::SynthCifar& data() const noexcept { return data_; }
  collective::Channel& channel() noexcept { return *channel_; }
  /// The fabric's simulator; nullptr on the inject channel.
  const net::Simulator* sim() const noexcept { return sim_.get(); }

 private:
  ml::SynthCifar data_;
  std::unique_ptr<net::Simulator> sim_;  // outlives channel_
  std::unique_ptr<collective::Channel> channel_;
};

}  // namespace perfbench
