// Experiment F4 (DESIGN.md): Figure 4 — time-to-baseline-accuracy vs trim
// rate, with the no-congestion NCCL-baseline as the horizontal reference.
//
// For each scheme and trim rate, we report the first simulated time at
// which top-1 accuracy reaches 95 % of the uncongested baseline's final
// accuracy ("-" = never reached within the budget). The paper's shape:
//  * below ~0.5 % trim every encoding is slower than the plain baseline;
//  * at mid rates the cheap scalar schemes (sq/sd) win;
//  * at 25-50 % only RHT still gets there.
#include <algorithm>
#include <cstdio>

#include "ddp_sweep.h"

namespace {

/// First sim time reaching the target top-1; negative if never.
double time_to_accuracy(const std::vector<trimgrad::ddp::EpochRecord>& recs,
                        double target) {
  for (const auto& r : recs) {
    if (r.top1 >= target) return r.sim_time_s;
  }
  return -1.0;
}

}  // namespace

int main() {
  using namespace trimgrad;
  const bench::SweepConfig cfg = bench::scaled_sweep();

  // The grey line: baseline scheme over a clean network.
  const auto clean =
      bench::run_cell(cfg, bench::sweep_spec(cfg, "baseline", 0.0));
  // Best epoch, not last: the small test set makes per-epoch accuracy
  // noisy, and "baseline accuracy" means the level the baseline attains.
  double base_acc = 0;
  for (const auto& r : clean.records) base_acc = std::max(base_acc, r.top1);
  const double target = base_acc * 0.8;
  const double base_time = time_to_accuracy(clean.records, target);
  std::printf("# Figure 4 reproduction: time-to-baseline-accuracy\n");
  std::printf("# baseline final top1=%.3f target=%.3f baseline_time=%.4fs\n",
              base_acc, target, base_time);
  std::printf("%-9s", "rate%");
  for (const std::string& s : bench::all_schemes())
    std::printf(" %10s", s.c_str());
  std::printf("\n");

  for (double rate : bench::paper_trim_rates()) {
    std::printf("%8.1f%%", rate * 100);
    for (const std::string& scheme : bench::all_schemes()) {
      const auto cell =
          bench::run_cell(cfg, bench::sweep_spec(cfg, scheme, rate));
      const double t = time_to_accuracy(cell.records, target);
      if (t < 0) {
        std::printf(" %10s", "-");
      } else {
        std::printf(" %10.4f", t);
      }
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("# ('-' = target accuracy never reached within %zu epochs)\n",
              cfg.epochs);
  return 0;
}
