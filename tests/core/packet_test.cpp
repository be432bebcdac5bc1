#include "core/packet.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "core/codec_registry.h"

namespace trimgrad::core {
namespace {

TEST(PacketLayout, PaperMtuArithmetic) {
  // §2's worked example: 1500-byte MTU, 42-byte header, P=1/Q=31.
  PacketLayout layout;
  EXPECT_EQ(layout.payload_bytes(), 1458u);
  // "about n = 365 coordinates": floor(1458·8 / 32) = 364.
  EXPECT_EQ(layout.coords_per_packet(), 364u);
  // Head region ceil(364/8) = 46 bytes; paper rounds to "45 bytes".
  EXPECT_EQ(layout.head_region_bytes(layout.coords_per_packet()), 46u);
  // Trim point 42 + 46 = 88 bytes; paper's is 87 (same rounding).
  EXPECT_EQ(layout.trim_point_bytes(), 88u);
  // Compression ratio ≈ 94 % ("achieving a compression ratio of 94.2%").
  EXPECT_NEAR(layout.trim_ratio(), 0.94, 0.01);
}

TEST(PacketLayout, TrimRatioApproachesQOverPQ) {
  // §2: trimming shrinks the packet by approximately Q/(P+Q).
  for (unsigned p : {1u, 2u, 4u, 8u, 16u}) {
    PacketLayout layout;
    layout.p_bits = p;
    layout.q_bits = 32 - p;
    const double expected = static_cast<double>(layout.q_bits) / 32.0;
    EXPECT_NEAR(layout.trim_ratio(), expected, 0.05) << "P=" << p;
  }
}

TEST(PacketLayout, SmallMtu) {
  PacketLayout layout;
  layout.mtu_bytes = 256;
  EXPECT_EQ(layout.payload_bytes(), 214u);
  EXPECT_EQ(layout.coords_per_packet(), 53u);
  EXPECT_GT(layout.trim_ratio(), 0.8);
}

TEST(PacketLayout, BaselineLayoutHasNoHeadRegion) {
  PacketLayout layout;
  layout.p_bits = 0;
  layout.q_bits = 32;
  EXPECT_EQ(layout.coords_per_packet(), 364u);
  EXPECT_EQ(layout.head_region_bytes(364), 0u);
}

TEST(GradientPacket, WireBytesSumsRegions) {
  GradientPacket pkt;
  pkt.head_region.assign(46, 0);
  pkt.tail_region.assign(1412, 0);
  EXPECT_EQ(pkt.wire_bytes(), 42u + 46u + 1412u);
}

TEST(GradientPacket, TrimDropsTailAndSetsFlag) {
  GradientPacket pkt;
  pkt.scheme = Scheme::kRHT;
  pkt.head_region.assign(46, 0xaa);
  pkt.tail_region.assign(1412, 0xbb);
  const auto expected_trimmed = pkt.trimmed_wire_bytes();
  pkt.trim();
  EXPECT_TRUE(pkt.trimmed);
  EXPECT_TRUE(pkt.tail_region.empty());
  EXPECT_EQ(pkt.head_region.size(), 46u);
  EXPECT_EQ(pkt.wire_bytes(), expected_trimmed);
}

TEST(GradientPacket, TrimmedCopyMatchesCopyThenTrim) {
  GradientPacket pkt;
  pkt.msg_id = 7;
  pkt.row_id = 3;
  pkt.coord_base = 512;
  pkt.n_coords = 256;
  pkt.seq = 9;
  pkt.scheme = Scheme::kRHT;
  pkt.p_bits = 2;
  pkt.q_bits = 15;
  pkt.head_region.assign(46, 0xaa);
  pkt.tail_region.assign(1412, 0xbb);
  GradientPacket expected = pkt;
  expected.trim();
  const GradientPacket got = pkt.trimmed_copy();
  EXPECT_EQ(got.msg_id, expected.msg_id);
  EXPECT_EQ(got.row_id, expected.row_id);
  EXPECT_EQ(got.coord_base, expected.coord_base);
  EXPECT_EQ(got.n_coords, expected.n_coords);
  EXPECT_EQ(got.seq, expected.seq);
  EXPECT_EQ(got.scheme, expected.scheme);
  EXPECT_EQ(got.p_bits, expected.p_bits);
  EXPECT_EQ(got.q_bits, expected.q_bits);
  EXPECT_EQ(got.trimmed, expected.trimmed);
  EXPECT_EQ(got.head_region, expected.head_region);
  EXPECT_EQ(got.tail_region, expected.tail_region);
  EXPECT_EQ(pkt.tail_region.size(), 1412u);  // the original keeps its tail
}

TEST(GradientPacket, TrimIsIdempotent) {
  GradientPacket pkt;
  pkt.scheme = Scheme::kSign;
  pkt.head_region.assign(10, 1);
  pkt.tail_region.assign(100, 2);
  pkt.trim();
  const auto size_after_first = pkt.wire_bytes();
  pkt.trim();
  EXPECT_EQ(pkt.wire_bytes(), size_after_first);
}

TEST(GradientPacket, BaselineTrimLosesEverything) {
  // Fig. 2a: no head/tail split, so trimming a baseline packet leaves only
  // the header — all coordinates are gone.
  GradientPacket pkt;
  pkt.scheme = Scheme::kBaseline;
  pkt.tail_region.assign(1456, 3);
  pkt.trim();
  EXPECT_EQ(pkt.wire_bytes(), kTransportHeaderBytes);
}

TEST(SchemeNames, AllDistinct) {
  // Decode dispatches on the wire value, so every registered entry needs a
  // name and a wire scheme of its own, and a full codec. Bytes 5 and 6
  // (retired codecs') name none.
  const auto& reg = CodecRegistry::global();
  std::set<std::string> names;
  std::set<Scheme> schemes;
  for (const auto& name : reg.names()) {
    const CodecInfo& info = reg.at(name);
    EXPECT_TRUE(info.encode && info.decode && info.accepts) << name;
    EXPECT_TRUE(names.insert(name).second) << name;
    EXPECT_TRUE(schemes.insert(info.scheme).second) << name;
    EXPECT_EQ(&reg.of(info.scheme), &info) << name;
  }
  EXPECT_EQ(reg.find(static_cast<Scheme>(5)), nullptr);
  EXPECT_EQ(reg.find(static_cast<Scheme>(6)), nullptr);
  EXPECT_THROW((void)reg.at(""), std::invalid_argument);  // the empty slots
  EXPECT_EQ(reg.name_of(kPaperScheme), "rht");
}

}  // namespace
}  // namespace trimgrad::core
