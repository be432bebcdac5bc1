// A/B bit-identity tests for the SIMD kernel dispatch layer (core/simd.h).
//
// Every kernel is run through each ISA the binary+CPU can execute (scalar
// always; AVX2/NEON when available) on the same inputs, and the outputs are
// compared with memcmp — the determinism contract says vector and scalar
// paths are *bit-identical*, not merely close. On machines without vector
// units the A/B collapses to scalar-vs-scalar and the tests pass trivially;
// CI's native-SIMD leg runs the real comparison.
#include "core/simd.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "core/codec.h"
#include "core/prng.h"
#include "core/wire.h"

namespace trimgrad::core {
namespace {

/// Restore the process-wide ISA on scope exit so a failing test doesn't
/// leak a forced-scalar setting into later tests.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_isa(saved_); }

 private:
  simd::Isa saved_;
};

/// All ISAs the current binary+CPU can actually execute.
std::vector<simd::Isa> runnable_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  const simd::Isa best = simd::set_isa(simd::compiled_isa());
  if (best != simd::Isa::kScalar) isas.push_back(best);
  return isas;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

template <typename T>
void expect_bytes_eq(const std::vector<T>& a, const std::vector<T>& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return;  // memcmp must not see the null data() of empties
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)))
      << what << ": outputs differ bitwise";
}

TEST(SimdDispatch, ForcedScalarSticksAndClamps) {
  IsaGuard guard;
  EXPECT_EQ(simd::set_isa(simd::Isa::kScalar), simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  // Requests above what the binary/CPU supports clamp instead of failing.
  const simd::Isa granted = simd::set_isa(simd::Isa::kAvx2);
  EXPECT_LE(static_cast<int>(granted),
            static_cast<int>(simd::compiled_isa()));
  EXPECT_EQ(simd::active_isa(), granted);
  EXPECT_STRNE(simd::to_string(granted), "");
}

TEST(SimdFwht, BitIdenticalAcrossIsas) {
  IsaGuard guard;
  for (std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                        std::size_t{16}, std::size_t{64}, std::size_t{256},
                        std::size_t{4096}}) {
    const auto input = random_vec(n, 0x5eed + n);
    std::vector<std::vector<float>> outs;
    for (simd::Isa isa : runnable_isas()) {
      simd::set_isa(isa);
      auto v = input;
      simd::fwht(v.data(), v.size());
      outs.push_back(std::move(v));
    }
    for (std::size_t i = 1; i < outs.size(); ++i) {
      expect_bytes_eq(outs[0], outs[i], "fwht");
    }
  }
}

TEST(SimdFwht, OrthonormalBitIdenticalAcrossIsas) {
  IsaGuard guard;
  for (std::size_t n : {std::size_t{2}, std::size_t{8}, std::size_t{32},
                        std::size_t{1024}, std::size_t{32768}}) {
    const auto input = random_vec(n, 0xfade + n);
    std::vector<std::vector<float>> outs;
    for (simd::Isa isa : runnable_isas()) {
      simd::set_isa(isa);
      auto v = input;
      simd::fwht_orthonormal(v.data(), v.size());
      outs.push_back(std::move(v));
    }
    for (std::size_t i = 1; i < outs.size(); ++i) {
      expect_bytes_eq(outs[0], outs[i], "fwht_orthonormal");
    }
  }
}

TEST(SimdSplitJoin, BitIdenticalAcrossIsasAllTailLengths) {
  IsaGuard guard;
  // Every length 1..33 exercises the vector body plus all tail remainders.
  for (std::size_t n = 1; n <= 33; ++n) {
    auto input = random_vec(n, 0xab1e + n);
    if (n > 2) input[1] = 0.0f;
    if (n > 3) input[2] = -0.0f;  // signed zero: head must follow the sign bit
    std::vector<std::uint8_t> trimmed(n);
    for (std::size_t i = 0; i < n; ++i) trimmed[i] = (i % 3 == 0) ? 1 : 0;

    std::vector<std::vector<std::uint8_t>> heads_by_isa;
    std::vector<std::vector<std::uint32_t>> mags_by_isa;
    std::vector<std::vector<float>> joined_by_isa;
    for (simd::Isa isa : runnable_isas()) {
      simd::set_isa(isa);
      std::vector<std::uint8_t> heads(n);
      std::vector<std::uint32_t> mags(n);
      simd::split_sign_mag(input.data(), n, heads.data(), mags.data());
      std::vector<float> joined(n);
      simd::join_sign_mag(heads.data(), mags.data(), trimmed.data(), 0.75f,
                          joined.data(), n);
      heads_by_isa.push_back(std::move(heads));
      mags_by_isa.push_back(std::move(mags));
      joined_by_isa.push_back(std::move(joined));
    }
    for (std::size_t i = 1; i < heads_by_isa.size(); ++i) {
      expect_bytes_eq(heads_by_isa[0], heads_by_isa[i], "split heads");
      expect_bytes_eq(mags_by_isa[0], mags_by_isa[i], "split mags");
      expect_bytes_eq(joined_by_isa[0], joined_by_isa[i], "join");
    }
    // Untrimmed coordinates round-trip bit-exactly through split+join.
    for (std::size_t i = 0; i < n; ++i) {
      if (trimmed[i]) continue;
      EXPECT_EQ(0, std::memcmp(&joined_by_isa[0][i], &input[i], 4)) << i;
    }
  }
}

TEST(SimdEncodeSd, BitIdenticalAcrossIsas) {
  IsaGuard guard;
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{1000}}) {
    const auto v = random_vec(n, 0xd17e + n);
    const auto dither = random_vec(n, 0x0d17 + n);
    std::vector<std::vector<std::uint8_t>> heads_by_isa;
    std::vector<std::vector<std::uint32_t>> tails_by_isa;
    for (simd::Isa isa : runnable_isas()) {
      simd::set_isa(isa);
      std::vector<std::uint8_t> heads(n);
      std::vector<std::uint32_t> tails(n);
      simd::encode_sd(v.data(), dither.data(), n, heads.data(), tails.data());
      heads_by_isa.push_back(std::move(heads));
      tails_by_isa.push_back(std::move(tails));
    }
    for (std::size_t i = 1; i < heads_by_isa.size(); ++i) {
      expect_bytes_eq(heads_by_isa[0], heads_by_isa[i], "sd heads");
      expect_bytes_eq(tails_by_isa[0], tails_by_isa[i], "sd tails");
    }
  }
}

/// Random values with 0, -0, ±Inf, a NaN and subnormals mixed in.
std::vector<float> special_vec(std::size_t n, std::uint64_t seed) {
  auto v = random_vec(n, seed);
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min()};
  for (std::size_t i = 0; i < n; i += 3) v[i] = specials[(i / 3) % 7];
  return v;
}

TEST(SimdRelu, BitIdenticalAcrossIsasAllTailLengths) {
  IsaGuard guard;
  for (std::size_t n = 0; n <= 40; ++n) {
    const auto x = special_vec(n, 0x4e1u + n);
    const auto g = random_vec(n, 0x9e1u + n);
    std::vector<std::vector<float>> y_by_isa, dx_by_isa;
    std::vector<std::vector<std::uint8_t>> mask_by_isa;
    for (simd::Isa isa : runnable_isas()) {
      simd::set_isa(isa);
      auto y = x;
      std::vector<std::uint8_t> mask(n, 0xaa);
      simd::relu_forward(y.data(), mask.data(), n);
      auto dx = g;
      simd::relu_backward(dx.data(), mask.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        // The definition: keep x where x > 0, else +0 (also for -0, NaN).
        const bool keep = x[i] > 0.0f;
        EXPECT_EQ(mask[i], keep ? 1 : 0) << "i=" << i;
        const float want_y = keep ? x[i] : 0.0f;
        const float want_dx = keep ? g[i] : 0.0f;
        EXPECT_EQ(0, std::memcmp(&y[i], &want_y, 4)) << "y, i=" << i;
        EXPECT_EQ(0, std::memcmp(&dx[i], &want_dx, 4)) << "dx, i=" << i;
      }
      y_by_isa.push_back(std::move(y));
      dx_by_isa.push_back(std::move(dx));
      mask_by_isa.push_back(std::move(mask));
    }
    for (std::size_t i = 1; i < y_by_isa.size(); ++i) {
      expect_bytes_eq(y_by_isa[0], y_by_isa[i], "relu forward");
      expect_bytes_eq(mask_by_isa[0], mask_by_isa[i], "relu mask");
      expect_bytes_eq(dx_by_isa[0], dx_by_isa[i], "relu backward");
    }
  }
}

TEST(SimdAccumulate, BitIdenticalAcrossIsasAllTailLengths) {
  IsaGuard guard;
  for (std::size_t n = 0; n <= 40; ++n) {
    const auto dst0 = special_vec(n, 0xacc0u + n);
    const auto src = special_vec(n, 0xacc1u + 3 * n);
    std::vector<std::vector<float>> out_by_isa;
    for (simd::Isa isa : runnable_isas()) {
      simd::set_isa(isa);
      auto dst = dst0;
      simd::accumulate(dst.data(), src.data(), n);
      out_by_isa.push_back(std::move(dst));
    }
    for (std::size_t i = 1; i < out_by_isa.size(); ++i) {
      expect_bytes_eq(out_by_isa[0], out_by_isa[i], "accumulate");
    }
  }
}

TEST(SimdEndToEnd, RhtEncoderProducesIdenticalWireBytesAcrossIsas) {
  IsaGuard guard;
  const auto grad = random_vec(5000, 0xe2e);
  CodecConfig cfg;
  cfg.scheme = Scheme::kRHT;
  std::vector<std::vector<std::uint8_t>> wire_by_isa;
  for (simd::Isa isa : runnable_isas()) {
    simd::set_isa(isa);
    TrimmableEncoder enc(cfg);
    const auto msg = enc.encode(grad, /*round=*/3, /*layer=*/1);
    std::vector<std::uint8_t> wire;
    for (const auto& pkt : msg.packets) {
      const auto bytes = serialize_packet(pkt);
      wire.insert(wire.end(), bytes.begin(), bytes.end());
    }
    wire_by_isa.push_back(std::move(wire));
  }
  for (std::size_t i = 1; i < wire_by_isa.size(); ++i) {
    expect_bytes_eq(wire_by_isa[0], wire_by_isa[i], "rht wire bytes");
  }
}

TEST(SimdCrc32c, AllImplementationsAgree) {
  IsaGuard guard;
  Xoshiro256 rng(0xc2c);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, std::size_t{63},
                        std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const std::uint32_t ref = crc32c_reference(data, 0x12345678u);
    EXPECT_EQ(crc32c_table(data, 0x12345678u), ref) << "n=" << n;
    EXPECT_EQ(crc32c_hw(data, 0x12345678u), ref) << "n=" << n;
    for (simd::Isa isa : runnable_isas()) {
      simd::set_isa(isa);
      EXPECT_EQ(crc32c(data, 0x12345678u), ref)
          << "n=" << n << " isa=" << simd::to_string(isa);
    }
  }
}

}  // namespace
}  // namespace trimgrad::core
