// Variable-Q tails (§5.3 ahead-of-time compression) and the AIMD Q
// controller.
#include "core/adaptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/codec.h"
#include "core/codec_registry.h"
#include "core/prng.h"
#include "core/stats.h"

namespace trimgrad::core {
namespace {

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

CodecConfig cfg_with_q(Scheme scheme, unsigned q) {
  CodecConfig cfg;
  cfg.scheme = scheme;
  cfg.rht_row_len = 1 << 10;
  cfg.layout.q_bits = q;
  return cfg;
}

class QSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(QSweep, UntrimmedDecodeErrorShrinksWithQ) {
  const unsigned q = GetParam();
  const auto v = gaussian_vec(4000, 1);
  for (Scheme s : {Scheme::kSign, Scheme::kRHT}) {
    TrimmableEncoder enc(cfg_with_q(s, q));
    TrimmableDecoder dec(cfg_with_q(s, q));
    const auto msg = enc.encode(v, 1, 1);
    const auto out = dec.decode(msg.packets, msg.meta);
    // Keeping the top q of 31 bits keeps the exponent once q >= 9; the
    // mantissa truncation error is then <= 2^-(q-9) relative.
    const double bound =
        q >= 31 ? 1e-10 : 2.0 * std::pow(2.0, -2.0 * (q - 9.0));
    EXPECT_LT(nmse(out.values, v), bound)
        << CodecRegistry::global().name_of(s) << " q=" << q;
  }
}

TEST_P(QSweep, PacketsShrinkWithQ) {
  const unsigned q = GetParam();
  const auto v = gaussian_vec(4000, 2);
  TrimmableEncoder full(cfg_with_q(Scheme::kRHT, 31));
  TrimmableEncoder reduced(cfg_with_q(Scheme::kRHT, q));
  const std::size_t full_bytes = full.encode(v, 1, 1).total_wire_bytes();
  const std::size_t red_bytes = reduced.encode(v, 1, 1).total_wire_bytes();
  if (q < 31) {
    EXPECT_LT(red_bytes, full_bytes);
    // Payload scales roughly with (1+q)/32.
    const double expected = (1.0 + q) / 32.0;
    EXPECT_NEAR(static_cast<double>(red_bytes) / full_bytes, expected,
                expected * 0.25 + 0.05);
  } else {
    EXPECT_EQ(red_bytes, full_bytes);
  }
}

TEST_P(QSweep, TrimmingStillWorksAtReducedQ) {
  const unsigned q = GetParam();
  const auto v = gaussian_vec(8192, 3);
  TrimmableEncoder enc(cfg_with_q(Scheme::kRHT, q));
  TrimmableDecoder dec(cfg_with_q(Scheme::kRHT, q));
  auto msg = enc.encode(v, 1, 1);
  for (auto& p : msg.packets) p.trim();
  const auto out = dec.decode(msg.packets, msg.meta);
  // Fully trimmed decode only uses heads + f: independent of Q.
  EXPECT_NEAR(nmse(out.values, v), 3.14159265 / 2 - 1, 0.06) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(TailWidths, QSweep,
                         ::testing::Values(15u, 23u, 31u));

TEST(QSweepScalar, SqSdWorkAtReducedQ) {
  const auto v = gaussian_vec(4000, 4);
  for (Scheme s : {Scheme::kSQ, Scheme::kSD}) {
    TrimmableEncoder enc(cfg_with_q(s, 15));
    TrimmableDecoder dec(cfg_with_q(s, 15));
    const auto msg = enc.encode(v, 1, 1);
    const auto out = dec.decode(msg.packets, msg.meta);
    // sign(1) + exp(8) + ~5 mantissa bits: ~3 % worst-case relative error.
    EXPECT_LT(nmse(out.values, v), 1e-3)
        << CodecRegistry::global().name_of(s);
  }
}

TEST(AdaptiveQ, StartsAtInitial) {
  AdaptiveQController ctl;
  EXPECT_EQ(ctl.q(), 31u);
}

TEST(AdaptiveQ, HeavyCongestionCutsQMultiplicatively) {
  AdaptiveQController ctl;
  ctl.observe(0.5);  // way over the 5 % target
  EXPECT_EQ(ctl.q(), 15u);
  ctl.observe(0.5);
  EXPECT_EQ(ctl.q(), 7u);
  ctl.observe(0.9);
  EXPECT_EQ(ctl.q(), 7u);  // floor
}

TEST(AdaptiveQ, MildCongestionDecreasesGently) {
  AdaptiveQController ctl;
  ctl.observe(0.08);  // between target and 3x target
  EXPECT_EQ(ctl.q(), 29u);
}

TEST(AdaptiveQ, QuietNetworkRecoversAdditively) {
  AdaptiveQConfig cfg;
  cfg.initial_q = 7;
  AdaptiveQController ctl(cfg);
  for (int i = 0; i < 20; ++i) ctl.observe(0.0);
  EXPECT_EQ(ctl.q(), 31u);  // capped at max
}

TEST(AdaptiveQ, TargetsPositiveTrimRateNotZero) {
  // §5.3: under-compress and over-send. A trim rate at exactly the target
  // must NOT reduce Q — the controller tolerates (seeks) residual trimming.
  AdaptiveQConfig cfg;
  cfg.initial_q = 21;
  AdaptiveQController ctl(cfg);
  ctl.observe(cfg.target_trim);
  EXPECT_GE(ctl.q(), 21u);
}

TEST(AdaptiveQ, ConvergesUnderStaticCongestionModel) {
  // Closed loop against a toy bottleneck: trim fraction = excess share of
  // offered bytes. The controller should settle near the Q whose offered
  // load sits just above capacity (small positive trim).
  AdaptiveQController ctl;
  const double capacity = 0.55;  // in units of full-precision message size
  double last_trim = 0;
  for (int round = 0; round < 60; ++round) {
    const double offered = (1.0 + ctl.q()) / 32.0;
    last_trim = offered > capacity ? (offered - capacity) / offered : 0.0;
    ctl.observe(last_trim);
  }
  const double offered = (1.0 + ctl.q()) / 32.0;
  EXPECT_GT(offered, capacity * 0.8);  // saturates the link
  EXPECT_LT(last_trim, 0.3);           // without drowning it
}

}  // namespace
}  // namespace trimgrad::core
