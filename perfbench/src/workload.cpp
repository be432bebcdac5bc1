#include "workload.h"

#include <stdexcept>

#include "collective/inject_channel.h"
#include "collective/sim_channel.h"
#include "core/metrics.h"
#include "core/prng.h"
#include "core/trace.h"
#include "net/topology.h"

namespace perfbench {
namespace {

constexpr std::size_t kFatTreeK = 8;

/// A slice of the Fig. 3 grid with bench/ddp_sweep.h's SweepConfig shape:
/// mini-VGG width 6 on the 20-class 16x16 SynthCifar, world 4, PS
/// all-reduce over the analytic inject channel, evaluation every epoch. The
/// baseline rides the reliable transport, the four encodings the trim
/// transport, each at a light and a heavy trim rate. One epoch per cell
/// keeps a pass over all ten cells near 9 s, so a run repeats the pass. As
/// in the sweep, only the injector seed differs between seeds: the trim and
/// drop coins are this workload's input.
/// One thread: at two, every round's forward/backward ends in a pool
/// barrier that waits for the more descheduled vCPU, and round_ms_p90
/// spread 20 % across runs of the same code (9 % at one thread).
Workload grid_inject_vgg(std::uint64_t seed) {
  Workload w{"grid_inject_vgg", {}, 1};
  for (const double trim : {0.01, 0.25}) {
    for (const char* scheme : {"baseline", "sign", "sq", "sd", "rht"}) {
      CellSpec c;
      c.spec.scheme = scheme;
      c.spec.transport = c.spec.scheme == "baseline" ? "reliable" : "trim";
      c.spec.topology = "inject";
      c.spec.trim = trim;
      c.spec.world = 4;
      c.spec.epochs = 1;
      c.spec.batch = 60;
      c.spec.lr = 0.03;
      c.spec.seed =
          core::mix64(seed, 2024 + static_cast<std::uint64_t>(trim * 1e6));
      c.data.classes = 20;
      c.data.height = c.data.width = 16;
      c.data.train_per_class = 30;
      c.data.test_per_class = 25;
      c.data.noise = 1.2f;
      c.data.seed = 1234;  // SweepConfig::data_seed: one task for every seed
      c.model.classes = c.data.classes;
      c.model.height = c.model.width = c.data.height;
      c.vgg_width = 6;
      c.rht_row_len = std::size_t{1} << 12;
      c.eval_every = 1;
      c.shuffle_seed = ddp::TrainerConfig{}.shuffle_seed;
      c.augment_seed = ddp::TrainerConfig{}.augment_seed;
      c.label = c.spec.label();
      w.cells.push_back(std::move(c));
    }
  }
  return w;
}

/// Closed DDP loop on the partitioned k=8 fat-tree, one rank per pod, laid
/// out like ddp::run_chaos_cell's fabric: the PS incast overflows the 20 KiB
/// edge queues, so trimming (or, on the reliable transport, NACK-driven
/// retransmission) emerges from congestion. Three seeded cells of two
/// 20-round epochs; the longer last epoch steadies final_loss across seeds.
/// One thread: the sharded engine still runs its lookahead windows, but a
/// descheduled vCPU no longer stalls every window barrier — at two threads,
/// runs under 7-17 % CPU steal took twice as long as runs without it.
Workload fabric(const std::string& name, std::uint64_t seed,
                const char* transport, const char* policy) {
  Workload w{name, {}, 1};
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::uint64_t s = core::mix64(seed, 100 + i);
    CellSpec c;
    c.spec.scheme = "rht";
    c.spec.transport = transport;
    c.spec.policy = policy;
    c.spec.topology = "fabric";
    c.spec.world = 8;
    c.spec.epochs = 2;
    c.spec.batch = 64;
    c.spec.lr = 0.03;
    c.data.classes = 10;
    c.data.height = c.data.width = 16;
    c.data.train_per_class = 128;
    c.data.test_per_class = 4;
    c.data.noise = 2.0f;
    c.data.seed = 1234 + i;
    c.model.classes = c.data.classes;
    c.model.height = c.model.width = c.data.height;
    c.model.init_seed = 7 + i;
    c.mlp_hidden = 64;
    c.rht_row_len = std::size_t{1} << 10;
    c.fabric = true;
    c.shuffle_seed = core::mix64(s, 3);
    c.augment_seed = core::mix64(s, 4);
    c.label = c.spec.label() + ",cell=" + std::to_string(i);
    w.cells.push_back(std::move(c));
  }
  return w;
}

ml::SynthCifar fresh_dataset(const CellSpec& cell) {
  // Scope process-wide telemetry to this cell, as bench/ddp_sweep.h does:
  // SimChannel's feedback reads registry deltas, so a repeated cell only
  // replays bit-identically from a reset registry.
  core::MetricsRegistry::global().reset_values();
  core::TraceLog::global().clear();
  return ml::SynthCifar(cell.data);
}

std::unique_ptr<collective::Channel> make_channel(const CellSpec& cell,
                                                  net::Simulator* sim) {
  if (!cell.fabric) {
    collective::InjectChannel::Config ccfg = cell.spec.inject_channel_config();
    ccfg.time.drop_penalty = 100e-6;  // SweepConfig::drop_penalty
    return std::make_unique<collective::InjectChannel>(ccfg);
  }
  net::FabricConfig fcfg;
  fcfg.edge_link = {10e9, 1e-6};
  fcfg.core_link = {10e9, 2e-6};
  fcfg.switch_queue.policy = net::QueuePolicy::kTrim;
  fcfg.switch_queue.capacity_bytes = 20 * 1024;
  fcfg.switch_queue.header_capacity_bytes = 64 * 1024;
  const net::FatTree ft = net::build_fat_tree(*sim, kFatTreeK, fcfg);
  net::partition_fat_tree(*sim, ft);
  sim->seal_partition();
  sim->set_parallel_execution(true);
  std::vector<net::NodeId> hosts;
  for (int r = 0; r < cell.spec.world; ++r) {
    const auto u = static_cast<std::size_t>(r);
    hosts.push_back(ft.pod_hosts[u % ft.k][u / ft.k]);
  }
  collective::SimChannel::Config ccfg = cell.spec.sim_channel_config();
  ccfg.tuning.rto = 100e-6;
  ccfg.tuning.rto_cap = 1e-3;
  ccfg.tuning.retransmit_budget = 400;
  return std::make_unique<collective::SimChannel>(*sim, std::move(hosts),
                                                  ccfg);
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "grid_inject_vgg") return grid_inject_vgg(seed);
  if (name == "fabric_trim_incast")
    return fabric(name, seed, "trim", "fixed");
  if (name == "fabric_reliable_aimd")
    return fabric(name, seed, "reliable", "aimd-trim");
  throw std::invalid_argument(
      "unknown workload '" + name +
      "'; known: grid_inject_vgg fabric_trim_incast fabric_reliable_aimd");
}

ddp::DdpTrainer::ModelFactory model_factory(const CellSpec& cell) {
  return [cell] {
    return cell.vgg_width > 0 ? ml::make_mini_vgg(cell.model, cell.vgg_width)
                              : ml::make_mlp(cell.model, cell.mlp_hidden);
  };
}

ddp::TrainerConfig trainer_config(const CellSpec& cell) {
  ddp::TrainerConfig tcfg = cell.spec.trainer_config();
  tcfg.codec.rht_row_len = cell.rht_row_len;
  tcfg.eval_every = cell.eval_every;
  tcfg.shuffle_seed = cell.shuffle_seed;
  tcfg.augment_seed = cell.augment_seed;
  return tcfg;
}

CellEnv::CellEnv(const CellSpec& cell)
    : data_(fresh_dataset(cell)),
      sim_(cell.fabric ? std::make_unique<net::Simulator>() : nullptr),
      channel_(make_channel(cell, sim_.get())) {}

}  // namespace perfbench
