#include "core/wire.h"

#include <bit>
#include <cstring>
#include <vector>

#include "core/codec_registry.h"
#include "core/le_bytes.h"
#include "core/simd.h"

#if defined(__x86_64__) || defined(_M_X64)
#define TRIMGRAD_WIRE_X86 1
#include <nmmintrin.h>
#if defined(__SSE4_2__)
#define TG_SSE42
#else
#define TG_SSE42 __attribute__((target("sse4.2")))
#endif
#endif

namespace trimgrad::core {

namespace {

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  bool has(std::size_t n) const noexcept { return off_ + n <= data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - off_; }

  std::uint16_t u16() noexcept { return load_u16(take(2)); }
  std::uint32_t u32() noexcept { return load_u32(take(4)); }
  std::uint64_t u64() noexcept { return load_u64(take(8)); }
  float f32() noexcept { return load_f32(take(4)); }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    const std::uint8_t* p = take(n);
    return {p, p + n};
  }

 private:
  /// Start of the next n bytes, which the caller checked with has().
  const std::uint8_t* take(std::size_t n) noexcept {
    const std::uint8_t* p = data_.subspan(off_, n).data();
    off_ += n;
    return p;
  }

  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
};

/// The codec a header's scheme byte names, or nullptr when none is
/// registered under it: both parsers reject such a byte as malformed.
const CodecInfo* codec_of_byte(std::uint8_t scheme) noexcept {
  return CodecRegistry::global().find(static_cast<Scheme>(scheme));
}

/// Offset of the head_crc field (the non-CRC header prefix it covers).
constexpr std::size_t kCrcFieldOffset = 28;

/// Slice-by-8 lookup tables: t[0] is the classic per-byte table; t[k]
/// advances a byte's contribution k more bytes through the shift register,
/// so eight parallel lookups retire a 64-bit word per step.
struct Crc32cTables {
  std::uint32_t t[8][256];
};

constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables tb{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0x82f63b78u & (0u - (c & 1u)));
    }
    tb.t[0][b] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      tb.t[k][b] = (tb.t[k - 1][b] >> 8) ^ tb.t[0][tb.t[k - 1][b] & 0xffu];
    }
  }
  return tb;
}

constexpr Crc32cTables kCrcTables = make_crc32c_tables();

#if TRIMGRAD_WIRE_X86

TG_SSE42 std::uint32_t crc32c_hw_impl(std::span<const std::uint8_t> data,
                                      std::uint32_t seed) noexcept {
  std::uint64_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    crc = _mm_crc32_u64(crc, w);
  }
  std::uint32_t crc32 = static_cast<std::uint32_t>(crc);
  for (; n != 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool cpu_has_crc32() noexcept {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}

#endif  // TRIMGRAD_WIRE_X86

}  // namespace

std::uint32_t crc32c_reference(std::span<const std::uint8_t> data,
                               std::uint32_t seed) noexcept {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                           std::uint32_t seed) noexcept {
  const auto& t = kCrcTables.t;
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; n -= 8, p += 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      w ^= crc;
      crc = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
            t[4][(w >> 24) & 0xff] ^ t[3][(w >> 32) & 0xff] ^
            t[2][(w >> 40) & 0xff] ^ t[1][(w >> 48) & 0xff] ^
            t[0][(w >> 56) & 0xff];
    }
  }
  for (; n != 0; --n, ++p) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
  return ~crc;
}

std::uint32_t crc32c_hw(std::span<const std::uint8_t> data,
                        std::uint32_t seed) noexcept {
#if TRIMGRAD_WIRE_X86
  if (cpu_has_crc32()) return crc32c_hw_impl(data, seed);
#endif
  return crc32c_table(data, seed);
}

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
#if TRIMGRAD_WIRE_X86
  // Honor the simd-layer scalar override so TRIMGRAD_SIMD=scalar runs the
  // whole wire path through portable code (checksums are byte-identical
  // either way — this is a testing/diagnostics knob, not a behavior switch).
  if (simd::active_isa() != simd::Isa::kScalar && cpu_has_crc32())
    return crc32c_hw_impl(data, seed);
#endif
  return crc32c_table(data, seed);
}

const char* to_string(WireVerdict v) noexcept {
  switch (v) {
    case WireVerdict::kFull: return "full";
    case WireVerdict::kTrimmed: return "trimmed";
    case WireVerdict::kCorrupt: return "corrupt";
    case WireVerdict::kMalformed: return "malformed";
  }
  return "?";
}

std::vector<std::uint8_t> serialize_packet(const GradientPacket& pkt) {
  std::vector<std::uint8_t> out;
  out.reserve(kWireHeaderBytes + pkt.head_region.size() +
              pkt.tail_region.size());
  put_u32(out, kWireMagic);
  put_u32(out, pkt.msg_id);
  put_u32(out, pkt.row_id);
  put_u32(out, pkt.coord_base);
  put_u16(out, pkt.n_coords);
  put_u16(out, pkt.seq);
  out.push_back(static_cast<std::uint8_t>(pkt.scheme));
  out.push_back(pkt.p_bits);
  out.push_back(pkt.q_bits);
  out.push_back(pkt.trimmed ? 1 : 0);
  put_u16(out, static_cast<std::uint16_t>(pkt.head_region.size()));
  put_u16(out, static_cast<std::uint16_t>(pkt.tail_region.size()));
  put_u32(out, 0);  // head_crc, patched below
  put_u32(out, 0);  // tail_crc, patched below
  out.insert(out.end(), pkt.head_region.begin(), pkt.head_region.end());
  out.insert(out.end(), pkt.tail_region.begin(), pkt.tail_region.end());
  // Fused encode+CRC: checksum the assembled wire bytes while they are
  // still cache-hot, then patch the two CRC fields in place. head_crc
  // chains the header prefix [0, 28) with the head region (skipping the
  // zeroed CRC fields themselves); tail_crc covers the tail alone, so a
  // trim (which removes exactly the tail) invalidates neither.
  const std::size_t head_at = kWireHeaderBytes;
  const std::size_t tail_at = head_at + pkt.head_region.size();
  const std::uint32_t head_crc =
      crc32c({out.data() + head_at, pkt.head_region.size()},
             crc32c({out.data(), kCrcFieldOffset}));
  const std::uint32_t tail_crc =
      crc32c({out.data() + tail_at, pkt.tail_region.size()});
  store_u32(out.data() + kCrcFieldOffset, head_crc);
  store_u32(out.data() + kCrcFieldOffset + 4, tail_crc);
  return out;
}

std::size_t wire_trim_point(const GradientPacket& pkt) noexcept {
  return kWireHeaderBytes + pkt.head_region.size();
}

ParsedPacket parse_packet_verified(std::span<const std::uint8_t> data) {
  Cursor c(data);
  if (!c.has(kWireHeaderBytes)) return {};
  if (c.u32() != kWireMagic) return {};

  GradientPacket pkt;
  pkt.msg_id = c.u32();
  pkt.row_id = c.u32();
  pkt.coord_base = c.u32();
  pkt.n_coords = c.u16();
  pkt.seq = c.u16();
  const CodecInfo* codec = codec_of_byte(data[20]);
  if (codec == nullptr) return {};
  pkt.scheme = codec->scheme;
  pkt.p_bits = data[21];
  pkt.q_bits = data[22];
  const bool flagged_trimmed = (data[23] & 1) != 0;
  c.bytes(4);  // skip scheme/p/q/flags already read positionally
  const std::uint16_t head_bytes = c.u16();
  const std::uint16_t tail_bytes = c.u16();
  const std::uint32_t head_crc = c.u32();
  const std::uint32_t tail_crc = c.u32();

  // The head region must be intact — switches never cut into it.
  if (!c.has(head_bytes)) return {};
  pkt.head_region = c.bytes(head_bytes);
  if (crc32c(pkt.head_region, crc32c(data.first(kCrcFieldOffset))) !=
      head_crc) {
    return {WireVerdict::kCorrupt, std::nullopt};
  }

  WireVerdict verdict = WireVerdict::kFull;
  if (c.remaining() >= tail_bytes) {
    pkt.tail_region = c.bytes(tail_bytes);
    if (c.remaining() != 0) return {};  // trailing garbage
    if (crc32c(pkt.tail_region) != tail_crc) {
      return {WireVerdict::kCorrupt, std::nullopt};
    }
    pkt.trimmed = flagged_trimmed && pkt.tail_region.empty();
    if (flagged_trimmed && !pkt.tail_region.empty()) {
      // Inconsistent flag: treat the bytes as authoritative.
      pkt.trimmed = false;
    }
    if (pkt.trimmed) verdict = WireVerdict::kTrimmed;
  } else {
    // Byte-truncated in the tail region: this is what a trimming switch
    // produces (head_crc above already vouched for everything kept).
    // Whatever partial tail survived is unusable (tails are only decodable
    // in full), so drop it.
    pkt.trimmed = true;
    pkt.tail_region.clear();
    verdict = WireVerdict::kTrimmed;
  }
  return {verdict, std::move(pkt)};
}

std::optional<GradientPacket> parse_packet(
    std::span<const std::uint8_t> data) {
  return parse_packet_verified(data).packet;
}

std::vector<std::uint8_t> serialize_meta(const MessageMeta& meta) {
  std::vector<std::uint8_t> out;
  put_u32(out, kWireMagic ^ 0xffffffffu);  // distinct magic for metadata
  put_u32(out, meta.msg_id);
  put_u64(out, meta.epoch);
  out.push_back(static_cast<std::uint8_t>(meta.scheme));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);  // padding
  put_u32(out, meta.total_coords);
  put_u32(out, meta.row_len);
  put_f32(out, meta.scalar_scale);
  put_u32(out, static_cast<std::uint32_t>(meta.row_scales.size()));
  for (float f : meta.row_scales) put_f32(out, f);
  // The low-rank shape and reliable factor. Always present (zero for the
  // schemes that do not use them) so the layout stays positional.
  put_u32(out, meta.lr_rows);
  put_u32(out, meta.lr_cols);
  put_u16(out, meta.lr_rank);
  put_u16(out, meta.lr_head);
  put_u32(out, static_cast<std::uint32_t>(meta.lr_q.size()));
  for (float f : meta.lr_q) put_f32(out, f);
  put_u32(out, crc32c({out.data(), out.size()}));  // trailing checksum
  return out;
}

std::optional<MessageMeta> parse_meta(std::span<const std::uint8_t> data) {
  // Verify the trailing CRC first: metadata is never trimmed, so any
  // mismatch means damage and the whole buffer is rejected.
  if (data.size() < 36) return std::nullopt;
  const auto body = data.first(data.size() - 4);
  Cursor crc_c(data.subspan(body.size()));
  if (crc32c(body) != crc_c.u32()) return std::nullopt;
  data = body;
  Cursor c(data);
  if (!c.has(32)) return std::nullopt;
  if (c.u32() != (kWireMagic ^ 0xffffffffu)) return std::nullopt;
  MessageMeta meta;
  meta.msg_id = c.u32();
  meta.epoch = c.u64();
  const CodecInfo* codec = codec_of_byte(data[16]);
  if (codec == nullptr) return std::nullopt;
  meta.scheme = codec->scheme;
  c.bytes(4);  // scheme + padding
  meta.total_coords = c.u32();
  meta.row_len = c.u32();
  meta.scalar_scale = c.f32();
  const std::uint32_t n_scales = c.u32();
  if (!c.has(static_cast<std::size_t>(n_scales) * 4)) return std::nullopt;
  meta.row_scales.reserve(n_scales);
  for (std::uint32_t i = 0; i < n_scales; ++i)
    meta.row_scales.push_back(c.f32());
  if (!c.has(16)) return std::nullopt;
  meta.lr_rows = c.u32();
  meta.lr_cols = c.u32();
  meta.lr_rank = c.u16();
  meta.lr_head = c.u16();
  const std::uint32_t n_q = c.u32();
  if (!c.has(static_cast<std::size_t>(n_q) * 4)) return std::nullopt;
  meta.lr_q.reserve(n_q);
  for (std::uint32_t i = 0; i < n_q; ++i) meta.lr_q.push_back(c.f32());
  if (c.remaining() != 0) return std::nullopt;
  // A CRC only proves the sender wrote these bytes, not that the decoder
  // can use them: the scheme's codec rejects the fields it would trust.
  if (!codec->accepts(meta)) return std::nullopt;
  return meta;
}

}  // namespace trimgrad::core
