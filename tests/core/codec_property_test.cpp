// Property sweeps over the full (scheme × message-size × trim-rate) grid —
// the invariants every configuration must satisfy regardless of parameters.
#include <gtest/gtest.h>

#include <tuple>
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

using Grid = std::tuple<Scheme, std::size_t /*n*/, double /*trim rate*/>;

class CodecGrid : public ::testing::TestWithParam<Grid> {
 protected:
  CodecConfig make_cfg() const {
    CodecConfig cfg;
    cfg.scheme = std::get<0>(GetParam());
    cfg.rht_row_len = 1 << 10;
    cfg.shared_seed = 4242;
    return cfg;
  }
};

TEST_P(CodecGrid, StatsPartitionTheCoordinateSpace) {
  const auto [scheme, n, rate] = GetParam();
  const auto v = gaussian_vec(n, n + 1);
  TrimmableEncoder enc(make_cfg());
  TrimmableDecoder dec(make_cfg());
  EncodedMessage msg = enc.encode(v, 3, 9);
  Xoshiro256 coin(n * 31 + static_cast<std::uint64_t>(rate * 1000));
  for (auto& p : msg.packets) {
    if (coin.bernoulli(rate)) p.trim();
  }
  const DecodeResult out = dec.decode(msg.packets, msg.meta);
  EXPECT_EQ(out.values.size(), n);
  EXPECT_EQ(out.stats.total_coords, n);
  EXPECT_EQ(out.stats.full_coords + out.stats.trimmed_coords +
                out.stats.lost_coords,
            n);
}

TEST_P(CodecGrid, WireSizeNeverGrowsUnderTrimming) {
  const auto [scheme, n, rate] = GetParam();
  const auto v = gaussian_vec(n, n + 2);
  TrimmableEncoder enc(make_cfg());
  EncodedMessage msg = enc.encode(v, 1, 1);
  for (auto& p : msg.packets) {
    const std::size_t before = p.wire_bytes();
    const std::size_t predicted = p.trimmed_wire_bytes();
    p.trim();
    EXPECT_EQ(p.wire_bytes(), predicted);
    EXPECT_LE(p.wire_bytes(), before);
  }
}

TEST_P(CodecGrid, DecodeIsDeterministic) {
  const auto [scheme, n, rate] = GetParam();
  const auto v = gaussian_vec(n, n + 3);
  TrimmableEncoder enc(make_cfg());
  TrimmableDecoder dec(make_cfg());
  EncodedMessage msg = enc.encode(v, 2, 4);
  Xoshiro256 coin(n * 17);
  for (auto& p : msg.packets) {
    if (coin.bernoulli(rate)) p.trim();
  }
  const auto a = dec.decode(msg.packets, msg.meta);
  const auto b = dec.decode(msg.packets, msg.meta);
  EXPECT_EQ(a.values, b.values);
}

TEST_P(CodecGrid, PacketSizesRespectTheMtu) {
  const auto [scheme, n, rate] = GetParam();
  const auto v = gaussian_vec(n, n + 4);
  TrimmableEncoder enc(make_cfg());
  const EncodedMessage msg = enc.encode(v, 1, 1);
  for (const auto& p : msg.packets) {
    EXPECT_LE(p.wire_bytes(), make_cfg().layout.mtu_bytes + 8)
        << "packet exceeds MTU";
    EXPECT_GT(p.n_coords, 0u);
  }
}

TEST_P(CodecGrid, TrimmedDecodeErrorIsBounded) {
  const auto [scheme, n, rate] = GetParam();
  if (scheme == Scheme::kBaseline) {
    GTEST_SKIP() << "baseline loses trimmed coords by design";
  }
  const auto v = gaussian_vec(n, n + 5);
  TrimmableEncoder enc(make_cfg());
  TrimmableDecoder dec(make_cfg());
  EncodedMessage msg = enc.encode(v, 5, 6);
  Xoshiro256 coin(n * 13 + 1);
  for (auto& p : msg.packets) {
    if (coin.bernoulli(rate)) p.trim();
  }
  const auto out = dec.decode(msg.packets, msg.meta);
  // Loosest cross-scheme bound: SQ's full-trim NMSE ≈ L²−σ² ≈ 5.25σ².
  EXPECT_LT(nmse(out.values, v), 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodecGrid,
    ::testing::Combine(
        ::testing::Values(Scheme::kBaseline, Scheme::kSign, Scheme::kSQ,
                          Scheme::kSD, Scheme::kRHT, Scheme::kLowRank),
        ::testing::Values<std::size_t>(1, 363, 364, 365, 1024, 5000),
        ::testing::Values(0.0, 0.3, 1.0)),
    [](const ::testing::TestParamInfo<Grid>& info) {
      // NOTE: no structured bindings here — the brackets don't group for
      // the preprocessor and the commas would split the macro arguments.
      return CodecRegistry::global().name_of(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

}  // namespace
}  // namespace trimgrad::core
