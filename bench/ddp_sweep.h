// Shared machinery for the Figure 3/4/5 reproductions: run the DDP trainer
// for one (scheme, trim-rate) cell and return its epoch records.
//
// Scale knob: TRIMGRAD_BENCH_SCALE (default 1). Scale 2 doubles epochs and
// dataset size for smoother curves at the cost of runtime.
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "collective/inject_channel.h"
#include "core/metrics.h"
#include "core/metrics_export.h"
#include "core/trace.h"
#include "ddp/experiment.h"
#include "ddp/trainer.h"

namespace trimgrad::bench {

inline int bench_scale() {
  const char* env = std::getenv("TRIMGRAD_BENCH_SCALE");
  const int v = env ? std::atoi(env) : 1;
  return v >= 1 ? v : 1;
}

struct SweepConfig {
  std::size_t classes = 20;
  std::size_t image = 16;          ///< height = width
  std::size_t train_per_class = 30;
  std::size_t test_per_class = 25;
  std::size_t epochs = 16;
  std::size_t global_batch = 60;
  int world = 4;
  float lr = 0.03f;
  /// Pixel-noise level: high enough that the task has a real noise floor —
  /// gradient corruption must cost accuracy for Fig. 3/4 to be measurable.
  float noise = 1.2f;
  /// VGG width: a *conv* net matters here — the paper's sign-magnitude
  /// divergence comes from one message-wide sigma hitting layers whose
  /// gradient scales differ by orders of magnitude, which an MLP hides.
  std::size_t vgg_width = 6;
  /// Reliable-baseline time model: per-drop recovery penalty. 100 us ~ a
  /// fast-retransmit RTT at datacenter scale; the §4.4 5-10x blowup at
  /// 1-2 % drops emerges from it at paper-scale message sizes.
  double drop_penalty = 100e-6;
  std::uint64_t data_seed = 1234;
};

inline SweepConfig scaled_sweep() {
  SweepConfig cfg;
  const int s = bench_scale();
  cfg.epochs *= static_cast<std::size_t>(s);
  cfg.train_per_class *= static_cast<std::size_t>(s);
  return cfg;
}

struct CellResult {
  std::string scheme;  ///< core::CodecRegistry name
  double trim_rate;
  std::vector<ddp::EpochRecord> records;
  /// Global-registry snapshot covering exactly this cell's run, serialized
  /// with core::metrics_to_json (the registry is reset at cell start).
  std::string metrics_json;
  /// Spec-derived cell name ("transport=trim,scheme=rht,trim=0.25") —
  /// stable under grid reordering, unlike positional indices.
  std::string label;
};

/// The ExperimentSpec for one (codec name, rate) cell of the paper grid:
/// the baseline rides the reliable transport (drops/trims retransmitted and
/// charged as time); the encodings ride the lossy trim transport.
inline ddp::ExperimentSpec sweep_spec(const SweepConfig& cfg,
                                      const std::string& scheme,
                                      double trim_rate) {
  ddp::ExperimentSpec spec;
  spec.transport = scheme == "baseline" ? "reliable" : "trim";
  spec.scheme = scheme;
  spec.topology = "inject";
  spec.trim = trim_rate;
  spec.world = cfg.world;
  spec.epochs = cfg.epochs;
  spec.batch = cfg.global_batch;
  spec.lr = cfg.lr;
  spec.seed = 2024 + static_cast<std::uint64_t>(trim_rate * 1e6);
  return spec;
}

/// Train one cell described by `spec` (dataset/model shape from `cfg`).
inline CellResult run_cell(const SweepConfig& cfg,
                           const ddp::ExperimentSpec& spec) {
  // Scope the registry and trace to this cell so its snapshot measures one
  // (scheme, rate) run, not the whole sweep.
  core::MetricsRegistry::global().reset_values();
  core::TraceLog::global().clear();

  ml::SynthCifarConfig dcfg;
  dcfg.classes = cfg.classes;
  dcfg.height = dcfg.width = cfg.image;
  dcfg.train_per_class = cfg.train_per_class;
  dcfg.test_per_class = cfg.test_per_class;
  dcfg.noise = cfg.noise;
  dcfg.seed = cfg.data_seed;
  ml::SynthCifar data(dcfg);

  collective::InjectChannel::Config ccfg = spec.inject_channel_config();
  ccfg.time.drop_penalty = cfg.drop_penalty;
  collective::InjectChannel channel(ccfg);

  ddp::TrainerConfig tcfg = spec.trainer_config();
  tcfg.codec.rht_row_len = std::size_t{1} << 12;
  tcfg.eval_every = 1;

  ddp::DdpTrainer trainer(data, channel, tcfg, [&dcfg, &cfg] {
    ml::ModelConfig mcfg;
    mcfg.classes = dcfg.classes;
    mcfg.height = dcfg.height;
    mcfg.width = dcfg.width;
    return ml::make_mini_vgg(mcfg, cfg.vgg_width);
  });
  CellResult result{spec.scheme, spec.trim, trainer.train(), {},
                    spec.label()};
  result.metrics_json = core::metrics_to_json(core::MetricsRegistry::global());
  return result;
}

/// The paper's five encodings (Figs. 3-5), as core::CodecRegistry names.
inline const std::vector<std::string>& all_schemes() {
  static const std::vector<std::string> schemes = {"baseline", "sign", "sq",
                                                   "sd", "rht"};
  return schemes;
}

inline const std::vector<double>& paper_trim_rates() {
  // §4.2: "drop/trim packet percentages ranging from 0.1% to 50%".
  static const std::vector<double> rates = {0.001, 0.01, 0.02,
                                            0.1,   0.25, 0.5};
  return rates;
}

}  // namespace trimgrad::bench
