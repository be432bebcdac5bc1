// Trimmable packet wire format (paper §2).
//
// Payload layout: the P-bit heads of all n coordinates in the packet come
// first, then the Q-bit tails, so a switch can compress the packet by
// cutting everything after the first `header + ceil(P·n/8)` bytes. With
// P = 1, Q = 31 and a 1500-byte MTU this is the paper's "trim at 87 bytes"
// configuration (42-byte Ethernet/IP/UDP header + ≈45 bytes of sign bits),
// a 94.2 % size reduction.
//
// `GradientPacket` is the in-memory model of such a packet: explicit header
// fields plus separately held head/tail byte regions, with `trim()`
// implementing exactly what the switch does. The network simulator wraps
// these in frames and calls `trim()` on queue overflow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace trimgrad::core {

/// Modeled Ethernet + IPv4 + UDP header size, as in the paper's arithmetic.
inline constexpr std::size_t kTransportHeaderBytes = 42;

/// Gradient-encoding scheme carried in the packet header. The values are
/// wire bytes: 5 and 6 (retired codecs') name no codec, and the parsers
/// reject them like any other unregistered byte.
enum class Scheme : std::uint8_t {
  kBaseline = 0,  ///< raw float32 coordinates, no head/tail split (Fig. 2a)
  kSign = 1,      ///< §3.1 sign-magnitude
  kSQ = 2,        ///< §3.1 stochastic quantization
  kSD = 3,        ///< §3.1 subtractive dithering
  kRHT = 4,       ///< §3.2 randomized-Hadamard-transform (DRIVE-style)
  kLowRank = 7,   ///< §5.2 PowerSGD factors, rank-ordered trimmable layout
};

/// The paper's codec, the one a default CodecConfig selects.
inline constexpr Scheme kPaperScheme = Scheme::kRHT;

/// Static layout arithmetic for a (P, Q) split at a given MTU. All of §2's
/// in-text numbers fall out of these formulas (bench_sec2_layout prints
/// them next to the paper's).
struct PacketLayout {
  std::size_t mtu_bytes = 1500;
  std::size_t header_bytes = kTransportHeaderBytes;
  unsigned p_bits = 1;
  unsigned q_bits = 31;

  std::size_t payload_bytes() const noexcept { return mtu_bytes - header_bytes; }

  /// Max coordinates per packet: floor(payload_bits / (P+Q)).
  std::size_t coords_per_packet() const noexcept {
    return payload_bytes() * 8 / (p_bits + q_bits);
  }

  /// Head region size for n coordinates: ceil(P·n / 8).
  std::size_t head_region_bytes(std::size_t n) const noexcept {
    return (static_cast<std::size_t>(p_bits) * n + 7) / 8;
  }

  /// Tail region size for n coordinates: ceil(Q·n / 8).
  std::size_t tail_region_bytes(std::size_t n) const noexcept {
    return (static_cast<std::size_t>(q_bits) * n + 7) / 8;
  }

  /// The switch trim point: header + full head region for a full packet.
  std::size_t trim_point_bytes() const noexcept {
    return header_bytes + head_region_bytes(coords_per_packet());
  }

  /// Wire size of a full (untrimmed) packet with n coordinates.
  std::size_t full_packet_bytes(std::size_t n) const noexcept {
    return header_bytes + head_region_bytes(n) + tail_region_bytes(n);
  }

  /// Fraction of the full packet removed by trimming: 1 − trimmed/full.
  double trim_ratio() const noexcept;
};

/// One trimmable gradient packet.
struct GradientPacket {
  // ---- modeled header fields (ride inside the 42-byte header budget) ----
  std::uint32_t msg_id = 0;      ///< collective message id
  std::uint32_t row_id = 0;      ///< RHT row index (0 for scalar schemes)
  std::uint32_t coord_base = 0;  ///< index of the first coordinate carried
  std::uint16_t n_coords = 0;    ///< number of coordinates carried
  std::uint16_t seq = 0;         ///< packet sequence number within message
  Scheme scheme{};
  std::uint8_t p_bits = 1;
  std::uint8_t q_bits = 31;
  bool trimmed = false;  ///< set by the switch (or injector) on trim

  // ---- payload regions ----
  std::vector<std::uint8_t> head_region;  ///< ceil(P·n/8) bytes
  std::vector<std::uint8_t> tail_region;  ///< ceil(Q·n/8) bytes; empty if trimmed

  /// Simulated wire size in bytes (header + surviving payload).
  std::size_t wire_bytes() const noexcept {
    return kTransportHeaderBytes + head_region.size() + tail_region.size();
  }

  /// What the switch does under congestion: drop the tail region and mark
  /// the packet. Idempotent. The same cut for every scheme: the baseline
  /// puts all of its raw floats in the tail (Fig. 2a), so a trimmed baseline
  /// packet keeps only its header and loses every coordinate, matching the
  /// reliable-transport baseline that must retransmit.
  void trim() noexcept {
    trimmed = true;
    tail_region.clear();
    tail_region.shrink_to_fit();
  }

  /// A trimmed copy, built without ever copying the tail region: what a
  /// switch forwards when the sender keeps the original for retransmission.
  GradientPacket trimmed_copy() const {
    return GradientPacket{msg_id,      row_id, coord_base,
                          n_coords,    seq,    scheme,
                          p_bits,      q_bits, /*trimmed=*/true,
                          head_region, /*tail_region=*/{}};
  }

  /// Size this packet would have after trimming (the switch's trim point).
  std::size_t trimmed_wire_bytes() const noexcept {
    return kTransportHeaderBytes + head_region.size();
  }
};

}  // namespace trimgrad::core
