// Experiment X2 (DESIGN.md): estimator-quality ablation behind §3.
//
// Series printed:
//  (a) decode NMSE vs trim rate for each scheme — the estimator-level
//      explanation of Figure 3's ordering (sign >> sq/sd > rht error).
//  (b) RHT row-length sweep — why the paper's 2^15 row split is safe: the
//      estimator barely cares, while smaller rows mean more parallelism.
//  (c) the §2 magnitude-ordered layout strawman vs the head/tail split:
//      equal surviving-byte budgets, very different errors + the strawman's
//      permutation overhead.
#include <cstdio>
#include <string>
#include <vector>

#include "core/codec.h"
#include "core/codec_registry.h"
#include "core/magnitude.h"
#include "core/prng.h"
#include "core/stats.h"
#include "net/injector.h"

using namespace trimgrad;

namespace {

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed) {
  core::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

double scheme_nmse(const std::string& scheme, double rate, std::size_t n,
                   std::size_t row_len = 1 << 12) {
  core::CodecConfig cfg;
  cfg.scheme = core::CodecRegistry::global().at(scheme).scheme;
  cfg.rht_row_len = row_len;
  core::TrimmableEncoder enc(cfg);
  core::TrimmableDecoder dec(cfg);
  const auto v = gaussian_vec(n, 7);
  auto msg = enc.encode(v, 1, 1);
  net::TrimInjector inj({rate, 0.0, 99});
  inj.apply(msg.packets, 1);
  return core::nmse(dec.decode(msg.packets, msg.meta).values, v);
}

}  // namespace

int main() {
  const std::size_t n = 1 << 17;

  std::printf("=== (a) decode NMSE vs trim rate (n=%zu gaussian coords) ===\n",
              n);
  std::printf("%8s", "rate%");
  const std::vector<std::string> schemes = {"sign", "sq", "sd", "rht"};
  for (const std::string& s : schemes) std::printf(" %10s", s.c_str());
  std::printf("\n");
  for (double rate : {0.001, 0.01, 0.02, 0.1, 0.25, 0.5, 1.0}) {
    std::printf("%7.1f%%", rate * 100);
    for (const std::string& s : schemes)
      std::printf(" %10.4f", scheme_nmse(s, rate, n));
    std::printf("\n");
  }
  std::printf(
      "(expected: sign has the LOWEST NMSE yet trains worst — its error is\n"
      " biased (every trimmed coord snaps to ±sigma), while rht pays a\n"
      " slightly higher but unbiased error; sd < sq among the unbiased\n"
      " scalar schemes. MSE alone does not predict training survival.)\n\n");

  std::printf("=== (b) RHT row-length sweep (fully trimmed) ===\n");
  std::printf("%10s %10s\n", "row_len", "NMSE");
  for (unsigned lg : {10u, 12u, 14u, 15u, 16u, 17u}) {
    std::printf("%10zu %10.4f\n", std::size_t{1} << lg,
                scheme_nmse("rht", 1.0, n, std::size_t{1} << lg));
  }
  std::printf("(expected: flat near pi/2-1 = 0.5708 — the 2^15 split is "
              "about parallelism, not accuracy)\n\n");

  std::printf("=== (c) magnitude-ordered layout strawman (Sec 2) ===\n");
  const auto v = gaussian_vec(n, 13);
  const auto perm = core::magnitude_order(v);
  const auto placed = core::apply_permutation(v, perm);
  std::printf("%12s %18s %14s\n", "keep_top%", "magnitude_NMSE", "rht_NMSE");
  for (double keep : {0.95, 0.9, 0.8, 0.5, 0.25, 0.06}) {
    std::vector<std::uint8_t> survived(n, 0);
    const std::size_t k = static_cast<std::size_t>(keep * n);
    for (std::size_t i = 0; i < k; ++i) survived[i] = 1;
    const auto back = core::invert_permutation(placed, perm, survived);
    // RHT comparison at the same surviving-byte budget: keeping top k of n
    // 32-bit floats ~ trimming (1-k/n) of packets fully to 1-bit heads
    // costs (1-keep)*31/32 of the bytes; approximate with trim rate chosen
    // to discard the same byte volume.
    const double equivalent_trim = (1.0 - keep) * 32.0 / 31.0;
    const double rht =
        scheme_nmse("rht", std::min(equivalent_trim, 1.0), n);
    std::printf("%11.0f%% %18.4f %14.4f\n", keep * 100,
                core::nmse(back, v), rht);
  }
  std::printf("permutation overhead for n=%zu coords: %zu bytes "
              "(%.1f%% of the message) — the strawman's hidden cost\n",
              n, core::permutation_overhead_bytes(n),
              100.0 * core::permutation_overhead_bytes(n) / (n * 4));
  std::printf("(expected: magnitude layout fine down to ~80%% kept, "
              "collapses below; rht degrades gracefully to 0.57)\n");
  return 0;
}
