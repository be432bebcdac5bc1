#include "core/quantizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/prng.h"
#include "core/stats.h"

namespace trimgrad::core {
namespace {

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed,
                                float sigma = 1.0f) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = sigma * static_cast<float>(rng.gaussian());
  return v;
}

TEST(ScalarScale, SignUsesSigma) {
  auto v = gaussian_vec(50000, 1, 2.0f);
  const float s = scalar_scale(ScalarScheme::kSign, v);
  EXPECT_NEAR(s, 2.0f, 0.05f);
}

TEST(ScalarScale, SqSdUseTwoPointFiveSigma) {
  auto v = gaussian_vec(50000, 2, 1.0f);
  EXPECT_NEAR(scalar_scale(ScalarScheme::kSQ, v), 2.5f, 0.1f);
  EXPECT_NEAR(scalar_scale(ScalarScheme::kSD, v), 2.5f, 0.1f);
}

TEST(Dithers, SharedKeysAgree) {
  SharedRng a(StreamKey{1, 2, 3, 0});
  SharedRng b(StreamKey{1, 2, 3, 0});
  auto da = make_dithers(100, 2.0f, a);
  auto db = make_dithers(100, 2.0f, b);
  EXPECT_EQ(da, db);
}

TEST(Dithers, BoundedByFullStep) {
  auto d = make_dithers(10000, 3.0f, SharedRng(StreamKey{5, 0, 0, 0}));
  for (float x : d) {
    EXPECT_GE(x, -3.0f);
    EXPECT_LT(x, 3.0f);
  }
}

// ---- sign-magnitude ----

TEST(SignScheme, UntrimmedDecodeIsBitExact) {
  Xoshiro256 rng(1);
  for (float v : {0.0f, -0.0f, 1.5f, -1.5f, 3.14159e-10f, -2.7e20f}) {
    const HeadTail ht = scalar_encode(ScalarScheme::kSign, v, 1.0f, rng, 0.0f);
    EXPECT_EQ(scalar_decode_full(ScalarScheme::kSign, ht.head, ht.tail), v);
  }
}

TEST(SignScheme, TrimmedDecodeIsSignTimesSigma) {
  Xoshiro256 rng(1);
  const float sigma = 0.7f;
  const HeadTail pos = scalar_encode(ScalarScheme::kSign, 2.0f, sigma, rng, 0);
  const HeadTail neg = scalar_encode(ScalarScheme::kSign, -0.1f, sigma, rng, 0);
  EXPECT_FLOAT_EQ(scalar_decode_trimmed(ScalarScheme::kSign, pos.head, sigma, 0), sigma);
  EXPECT_FLOAT_EQ(scalar_decode_trimmed(ScalarScheme::kSign, neg.head, sigma, 0), -sigma);
}

// ---- stochastic quantization ----

TEST(SqScheme, UnbiasedForInRangeValues) {
  // E[decode] = v for v in [-L, L] — the paper's key property for SQ.
  Xoshiro256 rng(42);
  const float l = 2.5f;
  for (float v : {-2.0f, -0.5f, 0.0f, 0.3f, 1.7f}) {
    double acc = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
      const HeadTail ht = scalar_encode(ScalarScheme::kSQ, v, l, rng, 0);
      acc += scalar_decode_trimmed(ScalarScheme::kSQ, ht.head, l, 0);
    }
    EXPECT_NEAR(acc / n, v, 0.02) << "v=" << v;
  }
}

TEST(SqScheme, ClipsOutOfRangeValues) {
  Xoshiro256 rng(43);
  const float l = 1.0f;
  int plus = 0;
  for (int i = 0; i < 1000; ++i) {
    const HeadTail ht = scalar_encode(ScalarScheme::kSQ, 50.0f, l, rng, 0);
    plus += ht.head ? 1 : 0;
  }
  EXPECT_EQ(plus, 1000);  // clipped to +L -> always +1
}

TEST(SqScheme, UntrimmedDecodeWithinOneUlp) {
  // SQ tails drop the mantissa LSB: relative error bounded by 2^-23.
  Xoshiro256 rng(44);
  for (float v : {1.0f, -1.0f, 0.12345f, -9.87e-5f, 3.4e15f}) {
    const HeadTail ht = scalar_encode(ScalarScheme::kSQ, v, 1.0f, rng, 0);
    const float back = scalar_decode_full(ScalarScheme::kSQ, ht.head, ht.tail);
    EXPECT_NEAR(back, v, std::fabs(v) * 2.4e-7f) << v;
  }
}

TEST(SqScheme, ZeroScaleDegradesGracefully) {
  Xoshiro256 rng(45);
  const HeadTail ht = scalar_encode(ScalarScheme::kSQ, 0.0f, 0.0f, rng, 0);
  EXPECT_FLOAT_EQ(scalar_decode_trimmed(ScalarScheme::kSQ, ht.head, 0.0f, 0), 0.0f);
}

// ---- subtractive dithering ----

TEST(SdScheme, UnbiasedViaSharedDither) {
  // E_ε[L·sign(v+ε) − ε] = v for |v| ≤ L with full-step ε ~ U(−L, L).
  const float l = 2.0f;
  Xoshiro256 enc_rng(46);
  SharedRng dither_rng(StreamKey{9, 9, 9, 0});
  for (float v : {-0.9f, -0.2f, 0.0f, 0.4f, 0.95f}) {
    auto dithers = make_dithers(400000, l, SharedRng(StreamKey{9, 9, 9, 0}));
    double acc = 0;
    for (float d : dithers) {
      const HeadTail ht = scalar_encode(ScalarScheme::kSD, v, l, enc_rng, d);
      acc += scalar_decode_trimmed(ScalarScheme::kSD, ht.head, l, d);
    }
    EXPECT_NEAR(acc / static_cast<double>(dithers.size()), v, 0.02) << v;
  }
}

TEST(SdScheme, ErrorIsUniformOverStepAndInputIndependent) {
  // In the no-overload region |v| ≤ L the subtractive-dither error is
  // U(−L, L) regardless of the input (Schuchman condition): check both the
  // hard bound and that mean |error| ≈ L/2 at two different inputs.
  const float l = 1.0f;
  Xoshiro256 enc_rng(47);
  for (float v : {0.0f, 0.49f, -0.8f}) {
    auto dithers = make_dithers(100000, l, SharedRng(StreamKey{1, 2, 3, 0}));
    double worst = 0, mean_abs = 0;
    for (float d : dithers) {
      const HeadTail ht = scalar_encode(ScalarScheme::kSD, v, l, enc_rng, d);
      const float dec = scalar_decode_trimmed(ScalarScheme::kSD, ht.head, l, d);
      const double err = std::fabs(static_cast<double>(dec) - v);
      worst = std::max(worst, err);
      mean_abs += err;
    }
    EXPECT_LE(worst, l + 1e-5) << "v=" << v;
    EXPECT_NEAR(mean_abs / 100000, l / 2.0, 0.02) << "v=" << v;
  }
}

TEST(SdScheme, DeterministicGivenDither) {
  Xoshiro256 rng_a(48), rng_b(49);  // private rngs differ: SD must not care
  const HeadTail a = scalar_encode(ScalarScheme::kSD, 0.3f, 1.0f, rng_a, 0.1f);
  const HeadTail b = scalar_encode(ScalarScheme::kSD, 0.3f, 1.0f, rng_b, 0.1f);
  EXPECT_EQ(a.head, b.head);
  EXPECT_EQ(a.tail, b.tail);
}

// ---- vector encode ----

TEST(EncodeAll, ProducesOneHeadTailPerCoordinate) {
  auto v = gaussian_vec(1000, 50);
  Xoshiro256 rng(51);
  std::vector<std::uint8_t> heads;
  std::vector<std::uint32_t> tails;
  scalar_encode_all(ScalarScheme::kSign, v, 1.0f, rng, {}, heads, tails);
  EXPECT_EQ(heads.size(), v.size());
  EXPECT_EQ(tails.size(), v.size());
}

TEST(EncodeAll, SignHeadsMatchSigns) {
  std::vector<float> v = {1.0f, -2.0f, 0.5f, -0.1f};
  Xoshiro256 rng(52);
  std::vector<std::uint8_t> heads;
  std::vector<std::uint32_t> tails;
  scalar_encode_all(ScalarScheme::kSign, v, 1.0f, rng, {}, heads, tails);
  EXPECT_EQ(heads, (std::vector<std::uint8_t>{1, 0, 1, 0}));
}

// ---- cross-scheme property sweep ----

struct SchemeCase {
  SchemeCase(ScalarScheme s, double bound) : scheme(s), trim_nmse_bound(bound) {}
  ScalarScheme scheme;
  // gtest names each case by a byte dump of this struct; spelling the padding
  // out as zeros keeps those names the same from run to run.
  std::uint8_t padding[7] = {};
  double trim_nmse_bound;  // loose sanity bound on trimmed-decode NMSE
};
static_assert(sizeof(SchemeCase) == 16);

class TrimmedNmseSweep : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(TrimmedNmseSweep, FullyTrimmedNmseWithinBound) {
  const auto param = GetParam();
  auto v = gaussian_vec(20000, 60);
  const float scale = scalar_scale(param.scheme, v);
  auto dithers = param.scheme == ScalarScheme::kSD
                     ? make_dithers(v.size(), scale, SharedRng(StreamKey{4, 4, 4, 0}))
                     : std::vector<float>(v.size(), 0.0f);
  Xoshiro256 rng(61);
  std::vector<float> dec(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const HeadTail ht = scalar_encode(param.scheme, v[i], scale, rng, dithers[i]);
    dec[i] = scalar_decode_trimmed(param.scheme, ht.head, scale, dithers[i]);
  }
  EXPECT_LT(nmse(dec, v), param.trim_nmse_bound)
      << to_string(param.scheme);
}

INSTANTIATE_TEST_SUITE_P(
    AllScalarSchemes, TrimmedNmseSweep,
    ::testing::Values(
        // sign→±σ on gaussians: E[(σ·s−v)²]/σ² = 2−2E|v|/σ = 2−2√(2/π) ≈ 0.40
        SchemeCase{ScalarScheme::kSign, 0.5},
        // SQ at L=2.5σ has variance ≈ L² − v² per coord; NMSE ≈ 5.25
        SchemeCase{ScalarScheme::kSQ, 6.5},
        // SD error uniform-ish with var ≤ L²·(13/12)-ish; keep loose
        SchemeCase{ScalarScheme::kSD, 8.0}),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      return to_string(info.param.scheme);
    });

}  // namespace
}  // namespace trimgrad::core
