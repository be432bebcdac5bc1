// Tests for transcript (§5.4) and magnitude layout (§2).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "core/magnitude.h"
#include "core/prng.h"
#include "core/stats.h"
#include "core/transcript.h"

namespace trimgrad::core {
namespace {

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

// ---- transcript ----

TEST(Transcript, RecordAndLookup) {
  TrimTranscript t;
  t.record(3, 14, 7, 1);
  t.record(3, 14, 9, 2);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.lookup(3, 14, 7).value(), 1);
  EXPECT_EQ(t.lookup(3, 14, 9).value(), 2);
  EXPECT_FALSE(t.lookup(3, 14, 8).has_value());
  EXPECT_FALSE(t.lookup(4, 14, 7).has_value());
}

TEST(Transcript, SaveLoadRoundTrip) {
  TrimTranscript t;
  for (int i = 0; i < 100; ++i)
    t.record(i % 5, i % 11, static_cast<std::uint16_t>(i),
             static_cast<std::uint8_t>(1 + i % 2));
  std::stringstream ss;
  t.save(ss);
  const TrimTranscript back = TrimTranscript::load(ss);
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.lookup(2, 7, 7), t.lookup(2, 7, 7));
}

TEST(Transcript, EmptyTranscriptSavesNothing) {
  TrimTranscript t;
  std::stringstream ss;
  t.save(ss);
  EXPECT_TRUE(ss.str().empty());
  EXPECT_EQ(TrimTranscript::load(ss).size(), 0u);
}

TEST(Transcript, EventsPreserveOrder) {
  TrimTranscript t;
  t.record(1, 1, 5);
  t.record(1, 1, 2);
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].seq, 5);
  EXPECT_EQ(t.events()[1].seq, 2);
}

// ---- magnitude layout ----

TEST(Magnitude, OrderSortsByAbsDescending) {
  std::vector<float> v = {0.5f, -3.0f, 2.0f, -0.1f};
  auto perm = magnitude_order(v);
  EXPECT_EQ(perm, (std::vector<std::uint32_t>{1, 2, 0, 3}));
}

TEST(Magnitude, StableForTies) {
  std::vector<float> v = {1.0f, -1.0f, 1.0f};
  auto perm = magnitude_order(v);
  EXPECT_EQ(perm, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Magnitude, ApplyInvertRoundTrip) {
  auto v = gaussian_vec(1000, 5);
  auto perm = magnitude_order(v);
  auto placed = apply_permutation(v, perm);
  std::vector<std::uint8_t> all_survive(v.size(), 1);
  auto back = invert_permutation(placed, perm, all_survive);
  EXPECT_EQ(back, v);
}

TEST(Magnitude, PlacedValuesAreSorted) {
  auto v = gaussian_vec(500, 6);
  auto placed = apply_permutation(v, magnitude_order(v));
  for (std::size_t i = 1; i < placed.size(); ++i)
    EXPECT_GE(std::fabs(placed[i - 1]), std::fabs(placed[i]));
}

TEST(Magnitude, TrimmingTailLosesOnlySmallCoordinates) {
  // The §2 strawman's selling point: losing the last 20 % of the placement
  // order costs almost no L2 mass.
  auto v = gaussian_vec(10000, 7);
  auto perm = magnitude_order(v);
  auto placed = apply_permutation(v, perm);
  std::vector<std::uint8_t> survived(v.size(), 1);
  for (std::size_t i = v.size() * 8 / 10; i < v.size(); ++i) survived[i] = 0;
  auto back = invert_permutation(placed, perm, survived);
  EXPECT_LT(nmse(back, v), 0.03);
}

TEST(Magnitude, PermutationOverheadFormula) {
  EXPECT_EQ(permutation_overhead_bytes(0), 0u);
  EXPECT_EQ(permutation_overhead_bytes(1), 0u);
  EXPECT_EQ(permutation_overhead_bytes(2), 1u);      // 1 bit × 2 → 1 byte
  EXPECT_EQ(permutation_overhead_bytes(256), 256u);  // 8 bits × 256
  // The overhead is real: ~2 bytes/coord at 2^16 coords — why the paper
  // moved past this layout.
  EXPECT_EQ(permutation_overhead_bytes(1 << 16), (16u << 16) / 8);
}

}  // namespace
}  // namespace trimgrad::core
