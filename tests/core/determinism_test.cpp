// Thread-count invariance of the parallelized codecs (the ISSUE 2
// contract): the wire bytes an encoder emits and the floats a decoder
// recovers must be byte-identical whether the global pool has 1, 2, or 8
// threads. Trimmed and dropped packets are part of the check — trimming is
// where coordinate accounting is easiest to get wrong under reordering.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/codec.h"
#include "core/prng.h"
#include "core/threadpool.h"

namespace trimgrad::core {
namespace {

const std::vector<std::size_t> kPoolSizes = {1, 2, 8};

std::vector<float> test_gradient(std::size_t n) {
  Xoshiro256 rng(42);
  std::vector<float> g(n);
  for (auto& x : g) x = rng.uniform(-2.0f, 2.0f);
  return g;
}

/// Every header field and payload byte of a packet, flattened — "what went
/// on the wire", so byte-equality means wire-equality.
std::vector<std::uint8_t> wire_image(const std::vector<GradientPacket>& pkts) {
  std::vector<std::uint8_t> out;
  for (const auto& p : pkts) {
    const std::uint32_t hdr[4] = {p.msg_id, p.row_id, p.coord_base,
                                  (std::uint32_t(p.n_coords) << 16) | p.seq};
    const auto* hb = reinterpret_cast<const std::uint8_t*>(hdr);
    out.insert(out.end(), hb, hb + sizeof(hdr));
    out.push_back(static_cast<std::uint8_t>(p.scheme));
    out.push_back(p.p_bits);
    out.push_back(p.q_bits);
    out.push_back(p.trimmed ? 1 : 0);
    out.insert(out.end(), p.head_region.begin(), p.head_region.end());
    out.insert(out.end(), p.tail_region.begin(), p.tail_region.end());
  }
  return out;
}

std::vector<std::uint8_t> float_image(const std::vector<float>& v) {
  std::vector<std::uint8_t> out(v.size() * sizeof(float));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

TEST(Determinism, RhtEncodeTrimDecodeInvariantAcrossPoolSizes) {
  // 100k coords at row_len 4096 → 25 rows, enough to split across 8 threads.
  const auto grad = test_gradient(100000);
  CodecConfig cfg;
  cfg.scheme = Scheme::kRHT;
  cfg.rht_row_len = std::size_t{1} << 12;

  std::vector<std::uint8_t> ref_wire, ref_values;
  std::vector<float> ref_scales;
  for (const std::size_t threads : kPoolSizes) {
    ThreadPool::set_global_threads(threads);
    TrimmableEncoder enc(cfg);
    auto msg = enc.encode(grad, /*msg_id=*/3, /*epoch=*/2);

    // Congestion: trim every 3rd packet, drop every 7th.
    std::vector<GradientPacket> delivered;
    for (std::size_t i = 0; i < msg.packets.size(); ++i) {
      if (i % 7 == 0) continue;
      if (i % 3 == 0) msg.packets[i].trim();
      delivered.push_back(msg.packets[i]);
    }
    const auto wire = wire_image(delivered);

    TrimmableDecoder dec(cfg);
    const auto result = dec.decode(delivered, msg.meta);
    const auto values = float_image(result.values);

    if (threads == kPoolSizes.front()) {
      ref_wire = wire;
      ref_values = values;
      ref_scales = msg.meta.row_scales;
      ASSERT_GT(msg.packets.size(), 8u);
    } else {
      EXPECT_EQ(wire, ref_wire) << "wire bytes differ at " << threads;
      EXPECT_EQ(values, ref_values) << "decoded floats differ at " << threads;
      EXPECT_EQ(msg.meta.row_scales, ref_scales);
    }
  }
  ThreadPool::set_global_threads(1);
}

TEST(Determinism, RhtPacketSeqMatchesSequentialOrder) {
  const auto grad = test_gradient(50000);
  CodecConfig cfg;
  cfg.scheme = Scheme::kRHT;
  cfg.rht_row_len = std::size_t{1} << 12;
  ThreadPool::set_global_threads(8);
  TrimmableEncoder enc(cfg);
  const auto msg = enc.encode(grad, 1, 1);
  // Rows are encoded in parallel into pre-sized slots; the emitted order
  // must still be the sequential one: seq == position, rows ascending.
  for (std::size_t i = 0; i < msg.packets.size(); ++i) {
    EXPECT_EQ(msg.packets[i].seq, static_cast<std::uint16_t>(i));
    if (i > 0) {
      EXPECT_GE(msg.packets[i].row_id, msg.packets[i - 1].row_id);
    }
  }
  ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace trimgrad::core
