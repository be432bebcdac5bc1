// Experiment F3 (DESIGN.md): Figure 3 — top-1 accuracy vs (simulated) wall
// clock for every encoding scheme at every trim rate.
//
// The paper's claims to reproduce in *shape*:
//  * sign-magnitude diverges (or stalls near chance) at trim rates >= 2 %;
//  * SQ/SD track the baseline up to 10-20 %;
//  * RHT is slower per round (encode overhead) but reaches the highest
//    accuracy at 25-50 % trim — the only scheme usable at 50 %.
//
// Output: one long-format table, one row per (scheme, rate, epoch):
//   scheme rate% epoch sim_time_s top1 top5 loss
// Plot sim_time_s vs top1 grouped by scheme to recover the figure panels.
#include <cstdio>

#include "ddp_sweep.h"

int main() {
  using namespace trimgrad;
  const bench::SweepConfig cfg = bench::scaled_sweep();

  std::printf("# Figure 3 reproduction: accuracy vs simulated time\n");
  std::printf("# world=%d batch=%zu epochs=%zu dataset=%zux%zu classes=%zu\n",
              cfg.world, cfg.global_batch, cfg.epochs, cfg.image, cfg.image,
              cfg.classes);
  std::printf("%-9s %7s %6s %12s %7s %7s %9s\n", "scheme", "rate%", "epoch",
              "sim_time_s", "top1", "top5", "loss");

  for (double rate : bench::paper_trim_rates()) {
    for (const std::string& scheme : bench::all_schemes()) {
      const auto spec = bench::sweep_spec(cfg, scheme, rate);
      const auto cell = bench::run_cell(cfg, spec);
      for (const auto& r : cell.records) {
        if (r.top1 < 0) continue;
        std::printf("%-9s %6.1f%% %6zu %12.4f %7.3f %7.3f %9.4f\n",
                    scheme.c_str(), rate * 100, r.epoch,
                    r.sim_time_s, r.top1, r.top5, r.train_loss);
      }
      std::fflush(stdout);
    }
  }
  return 0;
}
