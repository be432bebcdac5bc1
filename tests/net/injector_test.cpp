// TrimInjector + transcript replay: the paper's probabilistic evaluation
// mode (§4) and the reproducibility story (§5.4), end to end with the codec.
#include "net/injector.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/codec.h"
#include "core/stats.h"

namespace trimgrad::net {
namespace {

using core::CodecConfig;
using core::EncodedMessage;
using core::Scheme;
using core::TrimmableDecoder;
using core::TrimmableEncoder;

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed) {
  core::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

CodecConfig cfg_rht() {
  CodecConfig cfg;
  cfg.scheme = Scheme::kRHT;
  cfg.rht_row_len = 1 << 10;
  return cfg;
}

TEST(Injector, ZeroRatesAreNoOp) {
  TrimInjector inj({0.0, 0.0, 1});
  auto v = gaussian_vec(4000, 1);
  EncodedMessage msg = TrimmableEncoder(cfg_rht()).encode(v, 1, 1);
  const std::size_t before = msg.packets.size();
  const auto st = inj.apply(msg.packets, 1);
  EXPECT_EQ(st.trimmed, 0u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(msg.packets.size(), before);
}

TEST(Injector, TrimRateIsRespected) {
  TrimInjector inj({0.3, 0.0, 7});
  std::size_t trimmed = 0, total = 0;
  for (int round = 0; round < 50; ++round) {
    auto v = gaussian_vec(8192, round);
    EncodedMessage msg = TrimmableEncoder(cfg_rht()).encode(v, round, 1);
    const auto st = inj.apply(msg.packets, 1);
    trimmed += st.trimmed;
    total += st.packets;
  }
  EXPECT_NEAR(static_cast<double>(trimmed) / total, 0.3, 0.05);
}

TEST(Injector, DropRemovesPackets) {
  TrimInjector inj({0.0, 0.5, 9});
  auto v = gaussian_vec(16384, 2);
  EncodedMessage msg = TrimmableEncoder(cfg_rht()).encode(v, 1, 1);
  const std::size_t before = msg.packets.size();
  const auto st = inj.apply(msg.packets, 1);
  EXPECT_EQ(msg.packets.size(), before - st.dropped);
  EXPECT_GT(st.dropped, 0u);
}

TEST(Injector, TrimmedMessageStillDecodes) {
  TrimInjector inj({0.5, 0.0, 11});
  auto v = gaussian_vec(8192, 3);
  TrimmableEncoder enc(cfg_rht());
  TrimmableDecoder dec(cfg_rht());
  EncodedMessage msg = enc.encode(v, 5, 2);
  inj.apply(msg.packets, 2);
  const auto out = dec.decode(msg.packets, msg.meta);
  EXPECT_LT(core::nmse(out.values, v), 0.5);
}

TEST(Injector, RecordsTranscript) {
  TrimInjector inj({0.4, 0.1, 13});
  auto v = gaussian_vec(8192, 4);
  EncodedMessage msg = TrimmableEncoder(cfg_rht()).encode(v, 9, 3);
  core::TrimTranscript transcript;
  const auto st = inj.apply(msg.packets, 3, &transcript);
  EXPECT_EQ(transcript.size(), st.trimmed + st.dropped);
}

TEST(Injector, ReplayReproducesExactDecodedGradient) {
  // §5.4's promise: record a congested run, then replay the transcript on a
  // clean copy and get bit-identical decoded gradients.
  auto v = gaussian_vec(8192, 5);
  TrimmableEncoder enc(cfg_rht());
  TrimmableDecoder dec(cfg_rht());

  // Original congested run.
  TrimInjector inj({0.35, 0.05, 17});
  EncodedMessage run1 = enc.encode(v, 4, 8);
  core::TrimTranscript transcript;
  inj.apply(run1.packets, 8, &transcript);
  const auto out1 = dec.decode(run1.packets, run1.meta);

  // Replay on a freshly encoded copy (the replay run has no congestion).
  EncodedMessage run2 = enc.encode(v, 4, 8);
  const auto st = TrimInjector::replay(run2.packets, 8, transcript);
  const auto out2 = dec.decode(run2.packets, run2.meta);

  EXPECT_EQ(out1.values, out2.values);
  EXPECT_EQ(out1.stats.trimmed_coords, out2.stats.trimmed_coords);
  EXPECT_GT(st.trimmed + st.dropped, 0u);
}

TEST(Injector, ReplayWrongEpochIsAHardError) {
  auto v = gaussian_vec(2048, 6);
  TrimmableEncoder enc(cfg_rht());
  core::TrimTranscript transcript;
  TrimInjector inj({0.5, 0.0, 19});
  EncodedMessage run = enc.encode(v, 1, 1);
  inj.apply(run.packets, 1, &transcript);
  ASSERT_GT(transcript.size(), 0u);
  EXPECT_TRUE(transcript.contains_epoch(1));
  EXPECT_FALSE(transcript.contains_epoch(99));

  // Replaying against an epoch the transcript never saw used to be a
  // silent no-op — i.e. silently reproducing the wrong run. Now it throws.
  EncodedMessage other = enc.encode(v, 1, 1);
  EXPECT_THROW(TrimInjector::replay(other.packets, 99, transcript),
               std::invalid_argument);
}

TEST(Injector, ReplayEmptyTranscriptIsLegalNoOp) {
  // A recorded run can legitimately contain zero trims; replaying its
  // (empty) transcript must not throw and must change nothing.
  auto v = gaussian_vec(1024, 6);
  TrimmableEncoder enc(cfg_rht());
  core::TrimTranscript empty;
  EncodedMessage run = enc.encode(v, 1, 1);
  const std::size_t n = run.packets.size();
  const auto st = TrimInjector::replay(run.packets, 7, empty);
  EXPECT_EQ(st.trimmed, 0u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(run.packets.size(), n);
}

}  // namespace
}  // namespace trimgrad::net
