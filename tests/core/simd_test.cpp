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

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/bitpack.h"
#include "core/codec.h"
#include "core/prng.h"
#include "core/stats.h"
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
  // Every power of two: the AVX2 body runs 1, 2 or 5 stages in its first
  // sweep and then two stages per sweep, so each stage count's parity and
  // every fused-final-stage position is covered.
  for (std::size_t n = 1; n <= (std::size_t{1} << 15); n <<= 1) {
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
  for (std::size_t n = 1; n <= (std::size_t{1} << 15); n <<= 1) {
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

/// Inputs laced with signed zeros, infinities, a NaN and a subnormal.
std::vector<float> laced_vec(std::size_t n, std::uint64_t seed) {
  auto v = random_vec(n, seed);
  const float special[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN(), 1e-40f};
  for (std::size_t i = 0; i < n; i += 5) v[i] = special[(i / 5) % 6];
  return v;
}

std::array<std::uint64_t, 4> row_state(std::uint64_t row) {
  return SharedRng(StreamKey{7, 1, 2, row}).state();
}

TEST(SimdRandomSigns, ReferenceIsOneDrawPerCoordinate) {
  // No NaN here: the compiler may fold the ternary's x * -1.0f into a
  // negation, which flips a NaN's sign where the kernel's multiply keeps it.
  auto input = laced_vec(300, 1);
  for (float& x : input) x = std::isnan(x) ? 3.0f : x;
  auto st = row_state(0);
  std::vector<float> out(input.size());
  simd::random_signs(input.data(), out.data(), input.size(), st.data());
  SharedRng rng(StreamKey{7, 1, 2, 0});
  std::vector<float> want(input.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    want[i] = input[i] * ((rng() & 1u) != 0 ? 1.0f : -1.0f);
  expect_bytes_eq(want, out, "random_signs");
  EXPECT_EQ(st, rng.state()) << "state must end n draws on";
}

TEST(SimdRandomSigns, FourRowKernelMatchesPerRowStreamsOnEveryIsa) {
  IsaGuard guard;
  // Lengths around the 8-draw block, and the fabric row length.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, std::size_t{31},
                        std::size_t{1024}, std::size_t{1029}}) {
    std::vector<std::vector<float>> want(4), in(4);
    std::array<std::array<std::uint64_t, 4>, 4> want_state;
    for (std::size_t r = 0; r < 4; ++r) {
      in[r] = laced_vec(n, 40 + r);
      want[r].resize(n);
      want_state[r] = row_state(r);
      simd::random_signs(in[r].data(), want[r].data(), n,
                         want_state[r].data());
    }
    for (simd::Isa isa : runnable_isas()) {
      simd::set_isa(isa);
      for (const bool in_place : {false, true}) {
        std::vector<std::vector<float>> out(4);
        std::uint64_t st[4][4];
        const float* ip[4];
        float* op[4];
        for (std::size_t r = 0; r < 4; ++r) {
          out[r] = in_place ? in[r] : std::vector<float>(n);
          ip[r] = in_place ? out[r].data() : in[r].data();
          op[r] = out[r].data();
          const auto s0 = row_state(r);
          std::copy(s0.begin(), s0.end(), st[r]);
        }
        simd::random_signs4(ip, op, n, st);
        for (std::size_t r = 0; r < 4; ++r) {
          expect_bytes_eq(want[r], out[r], "random_signs4");
          EXPECT_TRUE(std::equal(st[r], st[r] + 4, want_state[r].begin()))
              << "row " << r << " state, n=" << n << " isa "
              << simd::to_string(isa);
        }
      }
    }
  }
}

TEST(SimdRowNorms, FourRowSumsMatchStatsOnEveryIsa) {
  IsaGuard guard;
  for (std::size_t n = 0; n <= 37; ++n) {
    for (const std::size_t len : {n, n + 1024}) {
      std::vector<std::vector<float>> rows(4);
      const float* p[4];
      double want_sq[4], want_abs[4];
      for (std::size_t r = 0; r < 4; ++r) {
        rows[r] = laced_vec(len, 90 + r + len);
        if (r == 3)  // one row of finite values only, so its sums are finite
          for (float& x : rows[r]) x = std::isfinite(x) ? x : 2.5f;
        p[r] = rows[r].data();
        want_sq[r] = l2_norm_sq(rows[r]);
        want_abs[r] = l1_norm(rows[r]);
      }
      for (simd::Isa isa : runnable_isas()) {
        simd::set_isa(isa);
        double sq[4], abs[4];
        simd::sum_sq4(p, len, sq);
        simd::sum_abs4(p, len, abs);
        EXPECT_EQ(0, std::memcmp(sq, want_sq, sizeof(sq))) << "len " << len;
        EXPECT_EQ(0, std::memcmp(abs, want_abs, sizeof(abs))) << "len " << len;
      }
    }
  }
}

TEST(SimdHeadBits, PackAndJoinMatchBitStreamOnEveryIsa) {
  IsaGuard guard;
  for (std::size_t n = 0; n <= 80; ++n) {
    const auto r = laced_vec(n, 300 + n);
    std::vector<std::uint8_t> bools(n);
    std::vector<std::uint32_t> mags(n);
    for (std::size_t i = 0; i < n; ++i) {
      bools[i] = std::signbit(r[i]) ? 0 : 1;
      mags[i] = float_bits(r[i]) ^ (i % 2 == 0 ? 0x80000000u : 0u);
    }
    BitWriter w;
    w.put_bits8(bools.data(), n);
    const std::vector<std::uint8_t> want = std::move(w).finish();
    for (simd::Isa isa : runnable_isas()) {
      simd::set_isa(isa);
      std::vector<std::uint8_t> packed(bytes_for_bits(n));
      simd::pack_heads(r.data(), n, packed.data());
      expect_bytes_eq(want, packed, "pack_heads");
      // Join from the packed heads; the buffer ends exactly at the last
      // head bit.
      for (const bool trimmed : {false, true}) {
        std::vector<float> got(n), exp(n);
        simd::join_heads(want.data(), trimmed ? nullptr : mags.data(), -0.75f,
                         got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t mag =
              trimmed ? float_bits(0.75f) : mags[i] & 0x7fffffffu;
          exp[i] = bits_float((bools[i] ? 0u : 0x80000000u) | mag);
        }
        expect_bytes_eq(exp, got, "join_heads");
      }
    }
  }
}

TEST(SimdTails31, PackAndUnpackMatchBitStreamOnEveryIsa) {
  IsaGuard guard;
  Xoshiro256 rng(0x31);
  for (std::size_t n = 0; n <= 90; ++n) {
    for (const std::size_t len : {n, n + 364}) {
      std::vector<std::uint32_t> vals(len);
      for (auto& v : vals) v = static_cast<std::uint32_t>(rng());
      BitWriter w;
      for (std::uint32_t v : vals) w.put(v, 31);
      const std::vector<std::uint8_t> want = std::move(w).finish();
      for (simd::Isa isa : runnable_isas()) {
        simd::set_isa(isa);
        std::vector<std::uint8_t> packed(want.size());
        simd::pack31(vals.data(), len, packed.data());
        expect_bytes_eq(want, packed, "pack31");
        // Exactly sized input: the unpacker must not read past it.
        std::vector<std::uint32_t> back(len);
        simd::unpack31(packed.data(), packed.size(), len, back.data());
        for (std::size_t i = 0; i < len; ++i)
          ASSERT_EQ(back[i], vals[i] & 0x7fffffffu)
              << "i=" << i << " len=" << len;
      }
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
