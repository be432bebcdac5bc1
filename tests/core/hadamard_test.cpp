#include "core/hadamard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/prng.h"
#include "core/stats.h"

namespace trimgrad::core {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

TEST(Pow2Helpers, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1u << 15));
  EXPECT_FALSE(is_pow2((1u << 15) + 1));
}

TEST(Pow2Helpers, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Fwht, SizeTwoIsButterfly) {
  std::vector<float> v = {3.0f, 1.0f};
  fwht_inplace(v);
  EXPECT_FLOAT_EQ(v[0], 4.0f);
  EXPECT_FLOAT_EQ(v[1], 2.0f);
}

TEST(Fwht, MatchesNaiveHadamardMatrix) {
  // H_4 (unnormalized, Sylvester construction) applied to e_2.
  std::vector<float> v = {0, 0, 1, 0};
  fwht_inplace(v);
  // Column 2 of H_4 = [1, 1, -1, -1].
  EXPECT_FLOAT_EQ(v[0], 1.0f);
  EXPECT_FLOAT_EQ(v[1], 1.0f);
  EXPECT_FLOAT_EQ(v[2], -1.0f);
  EXPECT_FLOAT_EQ(v[3], -1.0f);
}

TEST(Fwht, OrthonormalIsInvolution) {
  auto v = random_vec(256, 1);
  auto orig = v;
  fwht_orthonormal_inplace(v);
  fwht_orthonormal_inplace(v);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], orig[i], 1e-4);
}

TEST(Fwht, OrthonormalPreservesL2Norm) {
  for (std::size_t n : {2u, 16u, 256u, 4096u}) {
    auto v = random_vec(n, n);
    const double before = l2_norm(v);
    fwht_orthonormal_inplace(v);
    EXPECT_NEAR(l2_norm(v), before, before * 1e-5) << "n=" << n;
  }
}

TEST(Rht, InverseRecoversInput) {
  for (std::size_t n : {4u, 64u, 1024u, 32768u}) {
    auto v = random_vec(n, 7 + n);
    auto orig = v;
    Xoshiro256 fwd(123), inv(123);
    rht_inplace(v, fwd);
    irht_inplace(v, inv);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(v[i], orig[i], 1e-3) << "n=" << n << " i=" << i;
  }
}

TEST(Rht, PreservesL2Norm) {
  auto v = random_vec(2048, 5);
  const double before = l2_norm(v);
  Xoshiro256 rng(55);
  rht_inplace(v, rng);
  EXPECT_NEAR(l2_norm(v), before, before * 1e-5);
}

TEST(Rht, RotatedCoordinatesAreCenteredNearZero) {
  // §3.2: after RHT the coordinates are symmetrically centered around zero
  // — even for a heavily skewed input.
  std::vector<float> v(4096, 1.0f);  // all-positive, nonzero mean
  Xoshiro256 rng(9);
  rht_inplace(v, rng);
  EXPECT_NEAR(mean(v), 0.0, 0.05 * l2_norm(v) / std::sqrt(4096.0));
}

TEST(Rht, DifferentSeedsProduceDifferentRotations) {
  auto v1 = random_vec(128, 3);
  auto v2 = v1;
  Xoshiro256 a(1), b(2);
  rht_inplace(v1, a);
  rht_inplace(v2, b);
  double max_diff = 0;
  for (std::size_t i = 0; i < v1.size(); ++i)
    max_diff = std::max(max_diff, std::fabs(static_cast<double>(v1[i]) - v2[i]));
  EXPECT_GT(max_diff, 1e-3);
}

TEST(RowSplit, ExactMultiple) {
  const RowSplit s = make_row_split(64, 16);
  EXPECT_EQ(s.n_rows, 4u);
  EXPECT_EQ(s.tail_padded, 0u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(s.padded_len(r), 16u);
    EXPECT_EQ(s.real_len(r), 16u);
    EXPECT_EQ(s.offset(r), r * 16);
  }
}

TEST(RowSplit, TailRowPadsToPow2) {
  const RowSplit s = make_row_split(40, 16);  // 2 full rows + 8-entry tail
  EXPECT_EQ(s.n_rows, 3u);
  EXPECT_EQ(s.tail_padded, 8u);
  EXPECT_EQ(s.padded_len(2), 8u);
  EXPECT_EQ(s.real_len(2), 8u);
}

TEST(RowSplit, TailShorterThanPow2Pads) {
  const RowSplit s = make_row_split(21, 16);  // tail of 5 -> padded to 8
  EXPECT_EQ(s.n_rows, 2u);
  EXPECT_EQ(s.padded_len(1), 8u);
  EXPECT_EQ(s.real_len(1), 5u);
}

TEST(RowSplit, EmptyInput) {
  const RowSplit s = make_row_split(0, 16);
  EXPECT_EQ(s.n_rows, 0u);
}

TEST(RowSplit, DefaultRowLenMatchesPaper) {
  const RowSplit s = make_row_split(1 << 20);
  EXPECT_EQ(s.row_len, std::size_t{1} << 15);  // 32768-entry rows, §3.2
  EXPECT_EQ(s.n_rows, 32u);
}

TEST(ExtractPaddedRow, CopiesAndZeroPads) {
  std::vector<float> flat = {1, 2, 3, 4, 5};
  const RowSplit s = make_row_split(flat.size(), 4);
  auto r0 = extract_padded_row(flat, s, 0);
  ASSERT_EQ(r0.size(), 4u);
  EXPECT_FLOAT_EQ(r0[0], 1);
  EXPECT_FLOAT_EQ(r0[3], 4);
  auto r1 = extract_padded_row(flat, s, 1);
  ASSERT_EQ(r1.size(), 1u);  // tail of 1 pads to pow2(1)=1
  EXPECT_FLOAT_EQ(r1[0], 5);
}

TEST(ExtractPaddedRow, ZeroPadsRaggedTail) {
  std::vector<float> flat(11, 2.5f);
  const RowSplit s = make_row_split(flat.size(), 8);
  const auto r1 = extract_padded_row(flat, s, 1);
  ASSERT_EQ(r1.size(), 4u);  // 3 real values pad to pow2(3)=4
  EXPECT_FLOAT_EQ(r1[0], 2.5f);
  EXPECT_FLOAT_EQ(r1[2], 2.5f);
  EXPECT_FLOAT_EQ(r1[3], 0.0f);
}

class FwhtSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FwhtSizeSweep, InvolutionHoldsAcrossSizes) {
  const std::size_t n = GetParam();
  auto v = random_vec(n, 1000 + n);
  auto orig = v;
  fwht_orthonormal_inplace(v);
  fwht_orthonormal_inplace(v);
  double worst = 0;
  for (std::size_t i = 0; i < n; ++i)
    worst = std::max(worst, std::fabs(static_cast<double>(v[i]) - orig[i]));
  EXPECT_LT(worst, 1e-3) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, FwhtSizeSweep,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 512, 2048,
                                           8192, 32768));

}  // namespace
}  // namespace trimgrad::core
