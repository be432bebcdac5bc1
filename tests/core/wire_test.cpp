#include "core/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
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

CodecConfig cfg_of(Scheme s) {
  CodecConfig cfg;
  cfg.scheme = s;
  cfg.rht_row_len = 1 << 10;
  return cfg;
}

bool packets_equal(const GradientPacket& a, const GradientPacket& b) {
  return a.msg_id == b.msg_id && a.row_id == b.row_id &&
         a.coord_base == b.coord_base && a.n_coords == b.n_coords &&
         a.seq == b.seq && a.scheme == b.scheme && a.p_bits == b.p_bits &&
         a.q_bits == b.q_bits && a.trimmed == b.trimmed &&
         a.head_region == b.head_region && a.tail_region == b.tail_region;
}

class WireSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(WireSchemes, SerializeParseRoundTrip) {
  TrimmableEncoder enc(cfg_of(GetParam()));
  const auto msg = enc.encode(gaussian_vec(3000, 1), 7, 3);
  for (const auto& pkt : msg.packets) {
    const auto bytes = serialize_packet(pkt);
    const auto back = parse_packet(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(packets_equal(pkt, *back));
  }
}

TEST_P(WireSchemes, TrimmedPacketRoundTrips) {
  TrimmableEncoder enc(cfg_of(GetParam()));
  auto msg = enc.encode(gaussian_vec(1500, 2), 1, 1);
  msg.packets[0].trim();
  const auto bytes = serialize_packet(msg.packets[0]);
  const auto back = parse_packet(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->trimmed);
  EXPECT_TRUE(packets_equal(msg.packets[0], *back));
}

TEST_P(WireSchemes, ByteTruncationAtTrimPointEqualsTrim) {
  // The design's defining property, tested on literal bytes: a switch that
  // cuts the buffer at the trim point produces exactly trim().
  TrimmableEncoder enc(cfg_of(GetParam()));
  auto msg = enc.encode(gaussian_vec(2000, 3), 2, 5);
  for (auto& pkt : msg.packets) {
    auto bytes = serialize_packet(pkt);
    bytes.resize(wire_trim_point(pkt));  // the switch's cut
    const auto parsed = parse_packet(bytes);
    ASSERT_TRUE(parsed.has_value());
    pkt.trim();  // the in-memory model of the same action
    EXPECT_TRUE(packets_equal(pkt, *parsed));
  }
}

/// Every registered codec, as its wire scheme.
std::vector<Scheme> registered_schemes() {
  std::vector<Scheme> out;
  for (const auto& name : CodecRegistry::global().names())
    out.push_back(CodecRegistry::global().at(name).scheme);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Schemes, WireSchemes,
                         ::testing::ValuesIn(registered_schemes()),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return CodecRegistry::global().name_of(info.param);
                         });

TEST(Wire, TruncationInsideTailStillParsesAsTrimmed) {
  TrimmableEncoder enc(cfg_of(Scheme::kRHT));
  const auto msg = enc.encode(gaussian_vec(1000, 4), 1, 1);
  auto bytes = serialize_packet(msg.packets[0]);
  bytes.resize(wire_trim_point(msg.packets[0]) + 7);  // mid-tail cut
  const auto parsed = parse_packet(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->trimmed);
  EXPECT_TRUE(parsed->tail_region.empty());
}

TEST(Wire, TruncationInsideHeadIsMalformed) {
  TrimmableEncoder enc(cfg_of(Scheme::kRHT));
  const auto msg = enc.encode(gaussian_vec(1000, 5), 1, 1);
  auto bytes = serialize_packet(msg.packets[0]);
  bytes.resize(wire_trim_point(msg.packets[0]) - 3);
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

TEST(Wire, BadMagicRejected) {
  TrimmableEncoder enc(cfg_of(Scheme::kSign));
  const auto msg = enc.encode(gaussian_vec(100, 6), 1, 1);
  auto bytes = serialize_packet(msg.packets[0]);
  bytes[0] ^= 0xff;
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

TEST(Wire, TrailingGarbageRejected) {
  TrimmableEncoder enc(cfg_of(Scheme::kSign));
  const auto msg = enc.encode(gaussian_vec(100, 7), 1, 1);
  auto bytes = serialize_packet(msg.packets[0]);
  bytes.push_back(0xde);
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

TEST(Wire, EmptyAndTinyBuffersRejected) {
  EXPECT_FALSE(parse_packet({}).has_value());
  std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(parse_packet(tiny).has_value());
}

TEST(Wire, Crc32cMatchesKnownVectorAndChains) {
  // RFC 3720 test vector: CRC32C("123456789") = 0xE3069283.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c(digits), 0xE3069283u);
  // Chaining: crc(a || b) == crc(b, seed = crc(a)).
  const auto whole = crc32c(digits);
  const auto chained =
      crc32c(std::span(digits).subspan(4), crc32c(std::span(digits).first(4)));
  EXPECT_EQ(whole, chained);
}

TEST(Wire, Crc32cRfc3720VectorsOnEveryImplementation) {
  // The full RFC 3720 §B.4 test vector set, run against the bitwise
  // reference, the slice-by-8 tables, the hardware path, and the dispatcher.
  std::vector<std::uint8_t> zeros(32, 0x00);
  std::vector<std::uint8_t> ones(32, 0xff);
  std::vector<std::uint8_t> inc(32), dec(32);
  for (std::size_t i = 0; i < 32; ++i) {
    inc[i] = static_cast<std::uint8_t>(i);
    dec[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  const struct {
    std::span<const std::uint8_t> data;
    std::uint32_t expect;
  } vectors[] = {
      {digits, 0xE3069283u}, {zeros, 0x8A9136AAu}, {ones, 0x62A8AB43u},
      {inc, 0x46DD794Eu},    {dec, 0x113FDB5Cu},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(crc32c_reference(v.data), v.expect);
    EXPECT_EQ(crc32c_table(v.data), v.expect);
    EXPECT_EQ(crc32c_hw(v.data), v.expect);
    EXPECT_EQ(crc32c(v.data), v.expect);
  }
}

TEST(Wire, Crc32cImplementationsAgreeOnRandomLengthsAndSeeds) {
  Xoshiro256 rng(0xc4c);
  for (std::size_t n = 0; n <= 70; ++n) {
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const std::uint32_t seed = static_cast<std::uint32_t>(rng());
    const std::uint32_t ref = crc32c_reference(data, seed);
    EXPECT_EQ(crc32c_table(data, seed), ref) << "n=" << n;
    EXPECT_EQ(crc32c_hw(data, seed), ref) << "n=" << n;
    EXPECT_EQ(crc32c(data, seed), ref) << "n=" << n;
  }
}

TEST(Wire, VerdictsDistinguishFullTrimmedCorruptMalformed) {
  TrimmableEncoder enc(cfg_of(Scheme::kRHT));
  const auto msg = enc.encode(gaussian_vec(1200, 11), 1, 1);
  const auto& pkt = msg.packets[0];
  const auto bytes = serialize_packet(pkt);

  EXPECT_EQ(parse_packet_verified(bytes).verdict, WireVerdict::kFull);

  auto cut = bytes;
  cut.resize(wire_trim_point(pkt));
  EXPECT_EQ(parse_packet_verified(cut).verdict, WireVerdict::kTrimmed);

  auto mangled_head = bytes;
  mangled_head[kWireHeaderBytes + 3] ^= 0x40;  // inside the head region
  const auto ph = parse_packet_verified(mangled_head);
  EXPECT_EQ(ph.verdict, WireVerdict::kCorrupt);
  EXPECT_FALSE(ph.packet.has_value());

  ASSERT_FALSE(pkt.tail_region.empty());
  auto mangled_tail = bytes;
  mangled_tail.back() ^= 0x01;  // inside a fully present tail
  const auto pt = parse_packet_verified(mangled_tail);
  EXPECT_EQ(pt.verdict, WireVerdict::kCorrupt);
  EXPECT_FALSE(pt.packet.has_value());

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(parse_packet_verified(bad_magic).verdict,
            WireVerdict::kMalformed);
}

TEST(Wire, EveryHeaderByteFlipIsDetected) {
  // Exhaustive single-byte flips over the header prefix: each must yield
  // kCorrupt or kMalformed — never a quietly wrong packet. (A flip in the
  // length fields usually breaks framing; a flip elsewhere breaks a CRC.)
  TrimmableEncoder enc(cfg_of(Scheme::kSQ));
  const auto msg = enc.encode(gaussian_vec(900, 12), 3, 9);
  const auto bytes = serialize_packet(msg.packets[0]);
  for (std::size_t i = 0; i < kWireHeaderBytes; ++i) {
    auto flipped = bytes;
    flipped[i] ^= 0x10;
    const auto parsed = parse_packet_verified(flipped);
    EXPECT_TRUE(parsed.verdict == WireVerdict::kCorrupt ||
                parsed.verdict == WireVerdict::kMalformed)
        << "flip at header byte " << i << " parsed as "
        << to_string(parsed.verdict);
    EXPECT_FALSE(parsed.packet.has_value()) << "byte " << i;
  }
}

TEST(Wire, TrimmedBufferWithMangledHeadIsCorruptNotTrimmed) {
  // The checksum split's whole point: a cut is distinguishable from a cut
  // *plus* damage. Trim the buffer, then flip one surviving head byte.
  TrimmableEncoder enc(cfg_of(Scheme::kRHT));
  const auto msg = enc.encode(gaussian_vec(1000, 13), 1, 1);
  auto bytes = serialize_packet(msg.packets[0]);
  bytes.resize(wire_trim_point(msg.packets[0]));
  bytes[kWireHeaderBytes] ^= 0x80;
  const auto parsed = parse_packet_verified(bytes);
  EXPECT_EQ(parsed.verdict, WireVerdict::kCorrupt);
  EXPECT_FALSE(parsed.packet.has_value());
}

TEST(WireMeta, ByteFlipAnywhereRejectsMeta) {
  MessageMeta meta;
  meta.msg_id = 5;
  meta.scheme = Scheme::kRHT;
  meta.total_coords = 4096;
  meta.row_len = 1 << 10;
  meta.row_scales = {0.5f, 1.5f};
  const auto bytes = serialize_meta(meta);
  ASSERT_TRUE(parse_meta(bytes).has_value());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto flipped = bytes;
    flipped[i] ^= 0x04;
    EXPECT_FALSE(parse_meta(flipped).has_value()) << "flip at byte " << i;
  }
}

TEST(Wire, EndToEndThroughBytesDecodesCorrectly) {
  // Full pipeline over literal bytes: encode -> serialize -> trim half the
  // buffers by truncation -> parse -> decode.
  const auto v = gaussian_vec(8192, 8);
  TrimmableEncoder enc(cfg_of(Scheme::kRHT));
  TrimmableDecoder dec(cfg_of(Scheme::kRHT));
  const auto msg = enc.encode(v, 9, 2);

  std::vector<GradientPacket> received;
  for (std::size_t i = 0; i < msg.packets.size(); ++i) {
    auto bytes = serialize_packet(msg.packets[i]);
    if (i % 2 == 0) bytes.resize(wire_trim_point(msg.packets[i]));
    auto parsed = parse_packet(bytes);
    ASSERT_TRUE(parsed.has_value());
    received.push_back(std::move(*parsed));
  }
  const auto meta_bytes = serialize_meta(msg.meta);
  const auto meta = parse_meta(meta_bytes);
  ASSERT_TRUE(meta.has_value());
  const auto out = dec.decode(received, *meta);
  EXPECT_GT(out.stats.trimmed_coords, 0u);
  EXPECT_LT(nmse(out.values, v), 0.4);
}

// A CRC only proves the sender wrote the regions, not that they are as
// long as the header's n_coords and q_bits claim. Every registry decoder
// must count such a packet's coordinates as lost without reading past its
// regions (under ASan an over-read fails here).
TEST(WirePacket, ShortRegionsAreLostNotOverread) {
  for (const std::string& name : CodecRegistry::global().names()) {
    SCOPED_TRACE(name);
    CodecConfig cfg = cfg_of(CodecRegistry::global().at(name).scheme);
    TrimmableEncoder enc(cfg);
    TrimmableDecoder dec(cfg);
    const auto msg = enc.encode(gaussian_vec(2000, 4), 5, 1);
    ASSERT_FALSE(msg.packets.empty());
    const GradientPacket& sent = msg.packets.front();
    ASSERT_GT(sent.n_coords, 24u);

    auto through_wire = [&](const GradientPacket& pkt, WireVerdict want) {
      const auto parsed = parse_packet_verified(serialize_packet(pkt));
      EXPECT_EQ(parsed.verdict, want);
      std::vector<GradientPacket> got;
      if (parsed.packet) got.push_back(*parsed.packet);
      return dec.decode(got, msg.meta);
    };
    auto expect_all_lost = [&](const DecodeResult& out) {
      EXPECT_EQ(out.stats.full_coords, 0u);
      EXPECT_EQ(out.stats.trimmed_coords, 0u);
      EXPECT_EQ(out.stats.lost_coords, msg.meta.total_coords);
    };

    // Head region 2 bytes, tail region 3 bytes, header unchanged.
    GradientPacket shorted = sent;
    shorted.head_region.resize(
        std::min<std::size_t>(2, sent.head_region.size()));
    shorted.tail_region.resize(3);
    expect_all_lost(through_wire(shorted, WireVerdict::kFull));

    // Trimmed on the wire with a short head region.
    GradientPacket short_head = shorted.trimmed_copy();
    if (!short_head.head_region.empty() || name == "baseline") {
      expect_all_lost(through_wire(short_head, WireVerdict::kTrimmed));
    }

    // Tail widths of 0 and above 32 bits name no decodable tail (baseline
    // ships fixed 32-bit floats and ignores q_bits).
    if (name != "baseline") {
      for (const std::uint8_t q : {std::uint8_t{0}, std::uint8_t{40}}) {
        GradientPacket bad_q = sent;
        bad_q.q_bits = q;
        expect_all_lost(through_wire(bad_q, WireVerdict::kFull));
      }
    }
  }
}

TEST(WireMeta, RoundTripsAllFields) {
  MessageMeta meta;
  meta.msg_id = 42;
  meta.epoch = 0x1234567890abcdefULL;
  meta.scheme = Scheme::kRHT;
  meta.total_coords = 100000;
  meta.row_len = 1 << 15;
  meta.scalar_scale = 0.0f;
  meta.row_scales = {1.5f, -2.25f, 0.001f, 3e10f};
  const auto bytes = serialize_meta(meta);
  const auto back = parse_meta(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->msg_id, meta.msg_id);
  EXPECT_EQ(back->epoch, meta.epoch);
  EXPECT_EQ(back->scheme, meta.scheme);
  EXPECT_EQ(back->total_coords, meta.total_coords);
  EXPECT_EQ(back->row_len, meta.row_len);
  EXPECT_EQ(back->row_scales, meta.row_scales);
}

TEST(WireMeta, TruncatedMetaRejected) {
  MessageMeta meta;
  meta.row_scales = {1.0f, 2.0f};
  auto bytes = serialize_meta(meta);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(parse_meta(bytes).has_value());
}

// A CRC-valid meta is still untrusted input: fields the decoder would
// index or divide by must be rejected at parse time, not crash decode.
TEST(WireMeta, RhtRowLenMustBeNonzeroPowerOfTwo) {
  MessageMeta meta;
  meta.scheme = Scheme::kRHT;
  meta.total_coords = 4096;
  meta.row_scales = {1.0f, 1.0f, 1.0f, 1.0f};
  for (const std::uint32_t row_len : {0u, 3u, 1000u, 0x80000001u}) {
    meta.row_len = row_len;
    EXPECT_FALSE(parse_meta(serialize_meta(meta)).has_value()) << row_len;
  }
  meta.row_len = 1024;
  const auto back = parse_meta(serialize_meta(meta));
  ASSERT_TRUE(back.has_value());
  const TrimmableDecoder dec(cfg_of(Scheme::kRHT));
  EXPECT_EQ(dec.decode({}, *back).stats.lost_coords, 4096u);
}

TEST(Wire, SchemeBytesWithoutACodecAreMalformed) {
  // Both parsers reject a CRC-valid header whose scheme byte names no
  // registered codec (5 and 6 among them) as malformed input, not by
  // throwing from the registry lookup.
  TrimmableEncoder enc(cfg_of(Scheme::kSD));
  const auto msg = enc.encode(gaussian_vec(500, 11), 1, 1);
  ASSERT_TRUE(parse_meta(serialize_meta(msg.meta)).has_value());
  std::size_t unregistered = 0;
  for (unsigned v = 0; v < 256; ++v) {
    const auto scheme = static_cast<Scheme>(v);
    GradientPacket pkt = msg.packets[0];
    pkt.scheme = scheme;
    const ParsedPacket parsed = parse_packet_verified(serialize_packet(pkt));
    if (CodecRegistry::global().find(scheme) != nullptr) {
      EXPECT_EQ(parsed.verdict, WireVerdict::kFull) << v;
      continue;
    }
    ++unregistered;
    EXPECT_EQ(parsed.verdict, WireVerdict::kMalformed) << v;
    EXPECT_FALSE(parsed.packet.has_value()) << v;
    MessageMeta meta = msg.meta;
    meta.scheme = scheme;
    std::optional<MessageMeta> back;
    EXPECT_NO_THROW(back = parse_meta(serialize_meta(meta))) << v;
    EXPECT_FALSE(back.has_value()) << v;
  }
  EXPECT_EQ(unregistered, 256 - CodecRegistry::global().names().size());
}

TEST(WireMeta, LowRankShapeMustMatchTotalCoords) {
  // Decode allocates rows × rank floats for P and one state byte per row,
  // so the shape must be the one the encoder derives from total_coords.
  TrimmableEncoder enc(cfg_of(Scheme::kLowRank));
  const auto msg = enc.encode(gaussian_vec(1000, 9), 1, 1);
  ASSERT_TRUE(parse_meta(serialize_meta(msg.meta)).has_value());
  ASSERT_EQ(msg.meta.lr_cols, 64u);
  ASSERT_EQ(msg.meta.lr_rows, 16u);

  MessageMeta huge;  // CRC-valid, and asks decode for an 8 GiB P
  huge.scheme = Scheme::kLowRank;
  huge.total_coords = 1;
  huge.lr_rows = 0x7fffffffu;
  huge.lr_cols = 1;
  huge.lr_rank = 1;
  huge.lr_q = {1.0f};
  EXPECT_FALSE(parse_meta(serialize_meta(huge)).has_value());

  const auto rejects = [&](auto&& tamper) {
    MessageMeta m = msg.meta;
    tamper(m);
    return !parse_meta(serialize_meta(m)).has_value();
  };
  EXPECT_TRUE(rejects([](MessageMeta& m) { m.lr_cols = 0; }));
  EXPECT_TRUE(rejects([](MessageMeta& m) { m.lr_cols = 1001; }));
  EXPECT_TRUE(rejects([](MessageMeta& m) { m.lr_rows = 17; }));
  EXPECT_TRUE(rejects([](MessageMeta& m) { m.lr_rank = 0; }));
  EXPECT_TRUE(rejects([](MessageMeta& m) {
    m.lr_rank = 17;  // > min(rows, cols)
    m.lr_q.resize(64 * 17);
  }));
  EXPECT_TRUE(rejects([](MessageMeta& m) { m.lr_head = m.lr_rank + 1; }));
  EXPECT_TRUE(rejects([](MessageMeta& m) { m.lr_q.pop_back(); }));
  // An empty message carries no shape at all.
  EXPECT_TRUE(rejects([](MessageMeta& m) { m.total_coords = 0; }));
  MessageMeta empty;
  empty.scheme = Scheme::kLowRank;
  EXPECT_TRUE(parse_meta(serialize_meta(empty)).has_value());
}

TEST(WireMeta, MetaMagicDistinctFromPacketMagic) {
  MessageMeta meta;
  const auto bytes = serialize_meta(meta);
  EXPECT_FALSE(parse_packet(bytes).has_value());
}

}  // namespace
}  // namespace trimgrad::core
