// Experiment F5 (DESIGN.md): Figure 5 — per-round time breakdown, encoding
// overhead, and the baseline's drop intolerance (§4.4 in-text numbers).
//
// Part 1: compute / encode / comm / decode per training round for every
// scheme over a clean network. Paper shape: trimmable encoding adds
// measurable overhead, RHT ~18 % slower than the scalar schemes.
//
// Part 2: the reliable baseline's round time vs drop rate at paper-scale
// message sizes (25 MB buckets, 100 Gbps, fast-retransmit recovery).
// Paper: 0.15-0.25 % drops tolerable, 1-2 % => 5-10x slowdown.
#include <cstdio>

#include "collective/inject_channel.h"
#include "ddp_sweep.h"

int main() {
  using namespace trimgrad;
  bench::SweepConfig cfg = bench::scaled_sweep();
  cfg.epochs = 3;  // breakdown stabilizes quickly

  std::printf("# Figure 5 reproduction, part 1: round breakdown (no trim)\n");
  std::printf("%-9s %11s %11s %11s %11s %8s %9s\n", "scheme", "compute_ms",
              "encode_ms", "comm_ms", "decode_ms", "total", "vs_base");
  double base_total = 0;
  double scalar_encode_ms = 0;
  int scalar_count = 0;
  double rht_encode_ms = 0;
  for (const std::string& scheme : bench::all_schemes()) {
    const auto cell = bench::run_cell(cfg, bench::sweep_spec(cfg, scheme, 0.0));
    const auto& rb = cell.records.back().mean_round;
    const double total = rb.total() * 1e3;
    if (scheme == "baseline") base_total = total;
    if (scheme == "sign" || scheme == "sq" || scheme == "sd") {
      scalar_encode_ms += rb.encode_s * 1e3;
      ++scalar_count;
    }
    if (scheme == "rht") rht_encode_ms = rb.encode_s * 1e3;
    std::printf("%-9s %11.3f %11.3f %11.3f %11.3f %8.3f %8.2fx\n",
                scheme.c_str(), rb.compute_s * 1e3, rb.encode_s * 1e3,
                rb.comm_s * 1e3, rb.decode_s * 1e3, total,
                base_total > 0 ? total / base_total : 0.0);
    std::fflush(stdout);
  }
  if (scalar_count > 0 && scalar_encode_ms > 0) {
    std::printf("# RHT encode vs scalar mean encode: %.2fx "
                "(paper: ~1.18x)\n\n",
                rht_encode_ms / (scalar_encode_ms / scalar_count));
  }

  std::printf("# Figure 5 part 2 / Sec 4.4: reliable baseline vs drop rate\n");
  std::printf("# paper-scale message: 25 MB bucket, 100 Gbps, 60 us "
              "recovery penalty per drop\n");
  std::printf("%8s %14s %10s %12s\n", "drop%", "comm_ms", "slowdown",
              "retransmits");
  const std::size_t n = 25ull * 1024 * 1024 / 4;  // 25 MB of float32
  std::vector<float> grad(n, 0.125f);
  double clean_ms = 0;
  for (double drop : {0.0, 0.0005, 0.0015, 0.0025, 0.01, 0.02, 0.05}) {
    collective::InjectChannel::Config ccfg;
    ccfg.world = 2;
    ccfg.reliable = true;
    ccfg.injector.drop_rate = drop;
    ccfg.time.drop_penalty = 60e-6;
    collective::InjectChannel channel(ccfg);
    collective::AllReducer reducer(channel,
                                   core::CodecConfig{core::Scheme::kBaseline});
    const auto result = reducer.run({grad, grad}, 1, 1);
    const double ms = result.stats.comm_time * 1e3;
    if (drop == 0.0) clean_ms = ms;
    std::printf("%7.2f%% %14.3f %9.2fx %12llu\n", drop * 100, ms,
                clean_ms > 0 ? ms / clean_ms : 1.0,
                static_cast<unsigned long long>(result.stats.retransmits));
    std::fflush(stdout);
  }
  std::printf("# (expected: <=0.25%% drops ~1x; 1-2%% drops => 5-10x)\n");
  std::printf("# note: comm-only inflation. Against a ~10 ms compute round "
              "the <=0.25%% rows are a ~1.05x round slowdown (tolerable, "
              "per the paper), while 1-2%% dominate the round.\n");
  return 0;
}
