#include "core/lowrank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/codec.h"
#include "core/prng.h"
#include "core/stats.h"

namespace trimgrad::core {
namespace {

/// Matrix with planted low-rank structure: sum of `true_rank` decaying
/// outer products plus optional noise.
std::vector<float> planted_matrix(std::size_t rows, std::size_t cols,
                                  std::size_t true_rank, float noise,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> m(rows * cols, 0.0f);
  for (std::size_t k = 0; k < true_rank; ++k) {
    const float strength = std::pow(0.4f, static_cast<float>(k));
    std::vector<float> u(rows), v(cols);
    for (auto& x : u) x = static_cast<float>(rng.gaussian());
    for (auto& x : v) x = static_cast<float>(rng.gaussian());
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        m[i * cols + j] += strength * u[i] * v[j];
      }
    }
  }
  for (auto& x : m) x += noise * static_cast<float>(rng.gaussian());
  return m;
}

TEST(PowerFactorize, ExactlyRecoversTrueRankMatrix) {
  const std::size_t rows = 48, cols = 32;
  const auto m = planted_matrix(rows, cols, 3, 0.0f, 1);
  const auto f = power_factorize(m, rows, cols, 3, 3, 7);
  const auto rec = f.reconstruct(3);
  EXPECT_LT(nmse(rec, m), 1e-6);
}

TEST(PowerFactorize, HigherRankNeverHurts) {
  const std::size_t rows = 40, cols = 24;
  const auto m = planted_matrix(rows, cols, 6, 0.05f, 2);
  double prev = 1e9;
  for (std::size_t r : {1u, 2u, 4u, 8u}) {
    const auto f = power_factorize(m, rows, cols, r, 3, 7);
    const double e = nmse(f.reconstruct(r), m);
    EXPECT_LE(e, prev + 1e-9) << r;
    prev = e;
  }
}

TEST(PowerFactorize, ImportanceIsDescending) {
  const auto m = planted_matrix(30, 20, 5, 0.1f, 3);
  const auto f = power_factorize(m, 30, 20, 5, 3, 7);
  for (std::size_t k = 1; k < f.importance.size(); ++k) {
    EXPECT_GE(f.importance[k - 1], f.importance[k]);
  }
}

TEST(PowerFactorize, PrefixReconstructionDegradesGracefully) {
  // Using only the top components must track the planted decay.
  const auto m = planted_matrix(64, 32, 4, 0.0f, 4);
  const auto f = power_factorize(m, 64, 32, 4, 3, 7);
  double prev = -1.0;
  for (std::size_t use = 4; use >= 1; --use) {
    const double e = nmse(f.reconstruct(use), m);
    EXPECT_GE(e, prev - 1e-9) << use;  // error grows as components drop
    prev = e;
    if (use == 1) {
      // Top component of a 0.4-decay spectrum keeps >=80 % of the energy.
      EXPECT_LT(e, 0.25);
    }
  }
}

TEST(PowerFactorize, QIsOrthonormal) {
  const auto m = planted_matrix(32, 24, 4, 0.2f, 5);
  const auto f = power_factorize(m, 32, 24, 4, 2, 7);
  for (std::size_t a = 0; a < f.rank; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      double dot = 0;
      for (std::size_t j = 0; j < f.cols; ++j) {
        dot += double(f.q[a * f.cols + j]) * f.q[b * f.cols + j];
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-4) << a << "," << b;
    }
  }
}

TEST(PowerFactorize, DeterministicInSeed) {
  const auto m = planted_matrix(20, 16, 2, 0.1f, 6);
  const auto a = power_factorize(m, 20, 16, 2, 2, 99);
  const auto b = power_factorize(m, 20, 16, 2, 2, 99);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.q, b.q);
}

// ---- packet-train layout (Scheme::kLowRank) ----

CodecConfig lowrank_cfg(std::size_t rank, std::size_t cols) {
  CodecConfig cfg;
  cfg.scheme = Scheme::kLowRank;
  cfg.lowrank_rank = rank;
  cfg.lowrank_cols = cols;
  return cfg;
}

/// The factorization TrimmableEncoder computes for message 1 of epoch 1.
LowRankFactors encoder_factors(const CodecConfig& cfg,
                               const std::vector<float>& m, std::size_t rows,
                               std::size_t cols) {
  return power_factorize(m, rows, cols, cfg.lowrank_rank, kLowRankPowerIters,
                         mix64(cfg.shared_seed, mix64(1, 1)));
}

TEST(LowRankScheme, UntrimmedDecodeMatchesFactorization) {
  const std::size_t rows = 128, cols = 64;
  const auto m = planted_matrix(rows, cols, 4, 0.0f, 7);
  const CodecConfig cfg = lowrank_cfg(4, cols);
  TrimmableEncoder enc(cfg);
  const auto msg = enc.encode(m, 1, 1);
  const auto dec = TrimmableDecoder(cfg).decode(msg.packets, msg.meta);
  EXPECT_LT(nmse(dec.values, m), 1e-5);
  EXPECT_EQ(dec.stats.full_coords, m.size());
}

TEST(LowRankScheme, PacketsCoverAllRowsOnceWithinMtu) {
  const std::size_t rows = 500, cols = 32;
  const auto m = planted_matrix(rows, cols, 2, 0.1f, 8);
  const CodecConfig cfg = lowrank_cfg(4, cols);
  TrimmableEncoder enc(cfg);
  const auto msg = enc.encode(m, 1, 1);
  ASSERT_EQ(msg.meta.lr_rows, rows);
  ASSERT_EQ(msg.meta.lr_cols, cols);
  std::vector<int> cover(rows, 0);
  for (const auto& p : msg.packets) {
    for (std::size_t i = 0; i < p.n_coords; ++i) ++cover[p.coord_base + i];
    EXPECT_LE(p.wire_bytes(), cfg.layout.mtu_bytes);
  }
  for (int c : cover) EXPECT_EQ(c, 1);
}

TEST(LowRankScheme, TrimAffectsOnlyLeastImportantRanks) {
  // The §5.3 desideratum: trim ANY subset of packets — those slices must
  // equal the reconstruction from the head components alone, i.e. the
  // damage is confined to the least-important components.
  const std::size_t rows = 384, cols = 48;
  const auto m = planted_matrix(rows, cols, 4, 0.0f, 9);
  for (const std::size_t rank : {4u, 8u}) {
    const std::size_t head_k = std::max<std::size_t>(1, rank / 4);
    const CodecConfig cfg = lowrank_cfg(rank, cols);
    const auto f = encoder_factors(cfg, m, rows, cols);
    const auto full = f.reconstruct(rank);
    const auto head = f.reconstruct(head_k);
    for (const std::size_t stride : {1u, 2u, 3u}) {
      TrimmableEncoder enc(cfg);
      auto msg = enc.encode(m, 1, 1);
      ASSERT_EQ(msg.meta.lr_head, head_k);
      ASSERT_GT(msg.packets.size(), 3u);
      for (std::size_t i = 0; i < msg.packets.size(); i += stride)
        msg.packets[i].trim();
      const auto dec = TrimmableDecoder(cfg).decode(msg.packets, msg.meta);
      for (const auto& pkt : msg.packets) {
        const auto& expect = pkt.trimmed ? head : full;
        for (std::size_t i = 0; i < pkt.n_coords; ++i) {
          const std::size_t row = pkt.coord_base + i;
          for (std::size_t j = 0; j < cols; ++j) {
            ASSERT_NEAR(dec.values[row * cols + j], expect[row * cols + j],
                        1e-4)
                << "rank " << rank << " stride " << stride << " row " << row;
          }
        }
      }
    }
  }
}

TEST(LowRankScheme, LostPacketsZeroTheirRows) {
  const std::size_t rows = 200, cols = 16;
  const auto m = planted_matrix(rows, cols, 2, 0.0f, 12);
  const CodecConfig cfg = lowrank_cfg(2, cols);
  TrimmableEncoder enc(cfg);
  const auto msg = enc.encode(m, 1, 1);
  const std::vector<GradientPacket> kept(msg.packets.begin() + 1,
                                         msg.packets.end());
  const auto dec = TrimmableDecoder(cfg).decode(kept, msg.meta);
  const GradientPacket& lost = msg.packets[0];
  for (std::size_t i = 0; i < lost.n_coords; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      EXPECT_FLOAT_EQ(dec.values[(lost.coord_base + i) * cols + j], 0.0f);
    }
  }
  EXPECT_EQ(dec.stats.lost_coords, lost.n_coords * cols);
}

TEST(LowRankScheme, CompressionRatioMatchesRankFraction) {
  const std::size_t rows = 1024, cols = 512;
  const auto m = planted_matrix(rows, cols, 2, 0.1f, 13);
  TrimmableEncoder enc(lowrank_cfg(4, cols));
  const auto msg = enc.encode(m, 1, 1);
  // (rows+cols)·rank floats vs rows·cols — a big win for real layers.
  const double expected =
      static_cast<double>((rows + cols) * 4) / (rows * cols);
  EXPECT_LT(static_cast<double>(msg.total_wire_bytes()) / (m.size() * 4),
            expected * 1.5);
}

}  // namespace
}  // namespace trimgrad::core
