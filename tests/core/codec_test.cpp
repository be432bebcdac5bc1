// Integration tests: gradient -> packets -> (trim/lose) -> decode.
#include "core/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

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

CodecConfig small_cfg(Scheme scheme) {
  CodecConfig cfg;
  cfg.scheme = scheme;
  cfg.rht_row_len = 1 << 10;  // small rows keep tests fast
  cfg.shared_seed = 99;
  return cfg;
}

/// Trim a deterministic Bernoulli(p) subset of packets.
std::size_t trim_fraction(std::vector<GradientPacket>& pkts, double rate,
                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::size_t trimmed = 0;
  for (auto& p : pkts) {
    if (rng.bernoulli(rate)) {
      p.trim();
      ++trimmed;
    }
  }
  return trimmed;
}

class CodecAllSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(CodecAllSchemes, UntrimmedRoundTripIsNearExact) {
  const auto v = gaussian_vec(5000, 1);
  TrimmableEncoder enc(small_cfg(GetParam()));
  TrimmableDecoder dec(small_cfg(GetParam()));
  const EncodedMessage msg = enc.encode(v, 7, 3);
  const DecodeResult out = dec.decode(msg.packets, msg.meta);
  ASSERT_EQ(out.values.size(), v.size());
  EXPECT_EQ(out.stats.full_coords, v.size());
  EXPECT_EQ(out.stats.trimmed_coords, 0u);
  EXPECT_EQ(out.stats.lost_coords, 0u);
  // Baseline/sign/RHT are bit-exact (RHT up to IRHT rounding);
  // SQ/SD drop one mantissa LSB.
  EXPECT_LT(nmse(out.values, v), 1e-9)
      << CodecRegistry::global().name_of(GetParam());
}

TEST_P(CodecAllSchemes, MetaDescribesTheMessage) {
  const auto v = gaussian_vec(3000, 2);
  TrimmableEncoder enc(small_cfg(GetParam()));
  const EncodedMessage msg = enc.encode(v, 12, 4);
  EXPECT_EQ(msg.meta.msg_id, 12u);
  EXPECT_EQ(msg.meta.epoch, 4u);
  EXPECT_EQ(msg.meta.scheme, GetParam());
  EXPECT_EQ(msg.meta.total_coords, 3000u);
}

TEST_P(CodecAllSchemes, PacketsCoverAllCoordinatesExactlyOnce) {
  const auto v = gaussian_vec(4321, 3);
  TrimmableEncoder enc(small_cfg(GetParam()));
  const EncodedMessage msg = enc.encode(v, 1, 1);
  std::vector<int> cover(v.size() + 2048, 0);
  for (const auto& p : msg.packets) {
    for (std::size_t j = 0; j < p.n_coords; ++j) ++cover[p.coord_base + j];
  }
  // Every real coordinate covered exactly once (RHT rows may also carry
  // padded coordinates past the end; those land beyond v.size()).
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(cover[i], 1) << "coord " << i;
}

TEST_P(CodecAllSchemes, TrimmedPacketsShrinkOnTheWire) {
  const auto v = gaussian_vec(2000, 4);
  TrimmableEncoder enc(small_cfg(GetParam()));
  EncodedMessage msg = enc.encode(v, 1, 1);
  const std::size_t before = msg.total_wire_bytes();
  for (auto& p : msg.packets) p.trim();
  const std::size_t after = msg.total_wire_bytes();
  EXPECT_LT(after, before);
  if (GetParam() != Scheme::kBaseline) {
    // P=1/Q=31 split: trimmed size should be a small fraction.
    EXPECT_LT(static_cast<double>(after) / before, 0.15);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, CodecAllSchemes,
                         ::testing::Values(Scheme::kBaseline, Scheme::kSign,
                                           Scheme::kSQ, Scheme::kSD,
                                           Scheme::kRHT),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return CodecRegistry::global().name_of(info.param);
                         });

TEST(CodecBaseline, TrimmedPacketsLoseCoordinates) {
  const auto v = gaussian_vec(2000, 5);
  TrimmableEncoder enc(small_cfg(Scheme::kBaseline));
  TrimmableDecoder dec(small_cfg(Scheme::kBaseline));
  EncodedMessage msg = enc.encode(v, 1, 1);
  msg.packets[0].trim();
  const DecodeResult out = dec.decode(msg.packets, msg.meta);
  EXPECT_GT(out.stats.lost_coords, 0u);
  EXPECT_EQ(out.stats.trimmed_coords, 0u);
  // Lost coords decode to zero.
  EXPECT_FLOAT_EQ(out.values[0], 0.0f);
}

TEST(CodecBaseline, DuplicatedPacketCountsItsCoordinatesOnce) {
  // A retransmit that also got through delivers a packet twice: its
  // coordinates are full once, and nothing is lost.
  const auto v = gaussian_vec(1000, 17);
  TrimmableEncoder enc(small_cfg(Scheme::kBaseline));
  TrimmableDecoder dec(small_cfg(Scheme::kBaseline));
  EncodedMessage msg = enc.encode(v, 1, 1);
  msg.packets.push_back(msg.packets.front());
  const DecodeResult out = dec.decode(msg.packets, msg.meta);
  EXPECT_EQ(out.stats.lost_coords, 0u);
  EXPECT_EQ(out.stats.full_coords, v.size());
  EXPECT_EQ(out.values, v);
}

TEST(CodecConfigCheck, HeadTailCodecsRejectQOutsideOneTo31) {
  // A 32-bit tail cannot follow a sign head: the encoder would write 31-bit
  // tails labelled q = 32, and every full packet would decode as lost.
  for (const Scheme s : {Scheme::kSign, Scheme::kSQ, Scheme::kSD,
                         Scheme::kRHT}) {
    for (const unsigned q : {0u, 32u}) {
      CodecConfig cfg = small_cfg(s);
      cfg.layout.q_bits = q;
      const std::string name = CodecRegistry::global().name_of(s);
      try {
        TrimmableEncoder enc(cfg);
        ADD_FAILURE() << name << " accepted q = " << q;
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'" + name + "'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("got " + std::to_string(q)), std::string::npos)
            << msg;
      }
    }
  }
  // The baseline writes raw 32-bit floats whatever q it is given.
  CodecConfig baseline = small_cfg(Scheme::kBaseline);
  baseline.layout.q_bits = 32;
  EXPECT_NO_THROW(TrimmableEncoder{baseline});
}

TEST(CodecScalar, TrimmedDecodeUsesHeads) {
  const auto v = gaussian_vec(2000, 6);
  for (Scheme s : {Scheme::kSign, Scheme::kSQ, Scheme::kSD}) {
    TrimmableEncoder enc(small_cfg(s));
    TrimmableDecoder dec(small_cfg(s));
    EncodedMessage msg = enc.encode(v, 2, 9);
    const std::size_t n_trim = trim_fraction(msg.packets, 0.5, 77);
    ASSERT_GT(n_trim, 0u);
    const DecodeResult out = dec.decode(msg.packets, msg.meta);
    EXPECT_GT(out.stats.trimmed_coords, 0u);
    EXPECT_EQ(out.stats.lost_coords, 0u);
    EXPECT_EQ(out.stats.full_coords + out.stats.trimmed_coords, v.size());
    // Estimate is still correlated with the truth.
    EXPECT_LT(nmse(out.values, v), 8.0) << CodecRegistry::global().name_of(s);
  }
}

TEST(CodecScalar, SdSharedDitherAgreesAcrossProcesses) {
  // Decoder regenerates dithers purely from (shared_seed, epoch, msg_id):
  // different decoder object, same config -> same result.
  const auto v = gaussian_vec(1500, 7);
  TrimmableEncoder enc(small_cfg(Scheme::kSD));
  EncodedMessage msg = enc.encode(v, 8, 15);
  for (auto& p : msg.packets) p.trim();
  const DecodeResult a = TrimmableDecoder(small_cfg(Scheme::kSD)).decode(msg.packets, msg.meta);
  const DecodeResult b = TrimmableDecoder(small_cfg(Scheme::kSD)).decode(msg.packets, msg.meta);
  EXPECT_EQ(a.values, b.values);
}

TEST(CodecScalar, SdWithWrongSeedDecodesWorse) {
  const auto v = gaussian_vec(4000, 8);
  TrimmableEncoder enc(small_cfg(Scheme::kSD));
  EncodedMessage msg = enc.encode(v, 3, 2);
  for (auto& p : msg.packets) p.trim();
  CodecConfig wrong = small_cfg(Scheme::kSD);
  wrong.shared_seed = 12345;
  const double good = nmse(
      TrimmableDecoder(small_cfg(Scheme::kSD)).decode(msg.packets, msg.meta).values, v);
  const double bad = nmse(
      TrimmableDecoder(wrong).decode(msg.packets, msg.meta).values, v);
  EXPECT_LT(good, bad);
}

TEST(CodecRht, FullyTrimmedStaysAccurate) {
  const auto v = gaussian_vec(10000, 9);
  TrimmableEncoder enc(small_cfg(Scheme::kRHT));
  TrimmableDecoder dec(small_cfg(Scheme::kRHT));
  EncodedMessage msg = enc.encode(v, 4, 6);
  for (auto& p : msg.packets) p.trim();
  const DecodeResult out = dec.decode(msg.packets, msg.meta);
  EXPECT_EQ(out.stats.trimmed_coords, v.size());
  // Unbiased-scale bound: NMSE ≈ π/2 − 1 ≈ 0.571 for gaussian inputs.
  EXPECT_LT(nmse(out.values, v), 0.65);
}

TEST(CodecRht, LostPacketsDegradeGracefully) {
  const auto v = gaussian_vec(8000, 10);
  TrimmableEncoder enc(small_cfg(Scheme::kRHT));
  TrimmableDecoder dec(small_cfg(Scheme::kRHT));
  EncodedMessage msg = enc.encode(v, 4, 6);
  // Drop every 4th packet entirely.
  std::vector<GradientPacket> received;
  for (std::size_t i = 0; i < msg.packets.size(); ++i)
    if (i % 4 != 0) received.push_back(msg.packets[i]);
  const DecodeResult out = dec.decode(received, msg.meta);
  EXPECT_GT(out.stats.lost_coords, 0u);
  EXPECT_LT(nmse(out.values, v), 0.6);
}

TEST(CodecRht, RowScalesOnePerRow) {
  const auto v = gaussian_vec(3 * 1024 + 100, 11);
  TrimmableEncoder enc(small_cfg(Scheme::kRHT));
  const EncodedMessage msg = enc.encode(v, 1, 1);
  EXPECT_EQ(msg.meta.row_scales.size(), 4u);  // 3 full rows + padded tail
  EXPECT_EQ(msg.meta.row_len, 1u << 10);
}

TEST(CodecRht, PacketsNeverSpanRows) {
  const auto v = gaussian_vec(2 * 1024 + 17, 12);
  TrimmableEncoder enc(small_cfg(Scheme::kRHT));
  const EncodedMessage msg = enc.encode(v, 1, 1);
  for (const auto& p : msg.packets) {
    const std::size_t row_start = static_cast<std::size_t>(p.row_id) << 10;
    EXPECT_GE(p.coord_base, row_start);
    EXPECT_LE(p.coord_base + p.n_coords, row_start + (1u << 10));
  }
}

TEST(CodecRht, PacketStartingBeforeItsRowIsLost) {
  // A packet relabelled to the next row whose coordinates start in the row
  // before it and reach into its labelled row: none of its heads or tails
  // belong to that row's slots, so it must decode as if it never arrived.
  const auto v = gaussian_vec(4 * 1024, 18);
  TrimmableEncoder enc(small_cfg(Scheme::kRHT));
  TrimmableDecoder dec(small_cfg(Scheme::kRHT));
  const EncodedMessage msg = enc.encode(v, 1, 1);
  for (const bool trimmed : {false, true}) {
    std::vector<GradientPacket> received = msg.packets;
    GradientPacket stray =
        trimmed ? msg.packets.front().trimmed_copy() : msg.packets.front();
    ASSERT_GT(stray.n_coords, 100u);
    stray.row_id = 1;
    stray.coord_base = 1024 - 100;
    received.push_back(stray);
    const DecodeResult with = dec.decode(received, msg.meta);
    const DecodeResult without = dec.decode(msg.packets, msg.meta);
    EXPECT_EQ(with.values, without.values) << "trimmed " << trimmed;
    EXPECT_EQ(with.stats.full_coords, without.stats.full_coords);
    EXPECT_EQ(with.stats.trimmed_coords, without.stats.trimmed_coords);
    EXPECT_EQ(with.stats.lost_coords, without.stats.lost_coords);
  }
}

TEST(CodecRht, MixedTrimRatesOrderedByError) {
  const auto v = gaussian_vec(16384, 13);
  TrimmableEncoder enc(small_cfg(Scheme::kRHT));
  TrimmableDecoder dec(small_cfg(Scheme::kRHT));
  double prev = -1;
  for (double rate : {0.0, 0.02, 0.1, 0.5, 1.0}) {
    EncodedMessage msg = enc.encode(v, 1, 1);
    trim_fraction(msg.packets, rate, 1234);
    const double e = nmse(dec.decode(msg.packets, msg.meta).values, v);
    EXPECT_GE(e, prev) << "rate=" << rate;
    prev = e;
  }
}

TEST(CodecMeta, WireBytesSmallComparedToData) {
  // The reliable side channel must stay negligible: one float per 2^15-coord
  // row plus fixed fields.
  const auto v = gaussian_vec(1 << 18, 14);
  CodecConfig cfg = small_cfg(Scheme::kRHT);
  cfg.rht_row_len = std::size_t{1} << 15;
  TrimmableEncoder enc(cfg);
  const EncodedMessage msg = enc.encode(v, 1, 1);
  EXPECT_LT(msg.meta.wire_bytes() * 1000, msg.total_wire_bytes());
}

TEST(CodecEdge, EmptyGradient) {
  TrimmableEncoder enc(small_cfg(Scheme::kRHT));
  TrimmableDecoder dec(small_cfg(Scheme::kRHT));
  const EncodedMessage msg = enc.encode({}, 1, 1);
  EXPECT_TRUE(msg.packets.empty());
  const DecodeResult out = dec.decode(msg.packets, msg.meta);
  EXPECT_TRUE(out.values.empty());
}

TEST(CodecEdge, SingleCoordinate) {
  std::vector<float> v = {3.25f};
  for (Scheme s : {Scheme::kBaseline, Scheme::kSign, Scheme::kRHT}) {
    TrimmableEncoder enc(small_cfg(s));
    TrimmableDecoder dec(small_cfg(s));
    const EncodedMessage msg = enc.encode(v, 1, 1);
    const DecodeResult out = dec.decode(msg.packets, msg.meta);
    ASSERT_EQ(out.values.size(), 1u);
    EXPECT_NEAR(out.values[0], 3.25f, 1e-5f)
        << CodecRegistry::global().name_of(s);
  }
}

TEST(CodecEdge, MessageSmallerThanOnePacket) {
  const auto v = gaussian_vec(10, 15);
  TrimmableEncoder enc(small_cfg(Scheme::kSign));
  TrimmableDecoder dec(small_cfg(Scheme::kSign));
  const EncodedMessage msg = enc.encode(v, 1, 1);
  EXPECT_EQ(msg.packets.size(), 1u);
  EXPECT_LT(nmse(dec.decode(msg.packets, msg.meta).values, v), 1e-12);
}

TEST(CodecEdge, OutOfOrderPacketsDecodeIdentically) {
  const auto v = gaussian_vec(6000, 16);
  TrimmableEncoder enc(small_cfg(Scheme::kRHT));
  TrimmableDecoder dec(small_cfg(Scheme::kRHT));
  EncodedMessage msg = enc.encode(v, 1, 1);
  const DecodeResult in_order = dec.decode(msg.packets, msg.meta);
  std::reverse(msg.packets.begin(), msg.packets.end());
  const DecodeResult reversed = dec.decode(msg.packets, msg.meta);
  EXPECT_EQ(in_order.values, reversed.values);
}

}  // namespace
}  // namespace trimgrad::core
