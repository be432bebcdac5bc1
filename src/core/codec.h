// End-to-end trimmable gradient message codec.
//
// `TrimmableEncoder` turns a flat gradient buffer into a train of
// `GradientPacket`s (plus a small reliable `MessageMeta` carrying the decode
// scales — the paper's "small packets that will not be trimmed").
// `TrimmableDecoder` reconstructs the gradient from whatever arrives: any
// subset of the packets may have been trimmed by switches (tails gone) or
// lost entirely; the decoder degrades gracefully per coordinate.
//
// Both dispatch to the scheme's entry in core/codec_registry.h, which holds
// everything scheme-specific (the §3.1 scalar heads, the §3.2 RHT rows, the
// baseline's raw floats, the §5.2 low-rank factors).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/packet.h"
#include "core/prng.h"

namespace trimgrad::core {

struct CodecInfo;

/// Encoder/decoder configuration. Both sides must agree on everything here
/// except `private_seed` (sender-only stochastic-rounding randomness).
struct CodecConfig {
  Scheme scheme = kPaperScheme;
  PacketLayout layout{};                     ///< MTU / header / P / Q split
  std::size_t rht_row_len = std::size_t{1} << 15;  ///< RHT row length (pow2)
  std::uint64_t shared_seed = 1;             ///< base seed for SharedRng keys
  std::uint64_t private_seed = 0x5eed;       ///< SQ stochastic rounding
  std::size_t lowrank_rank = 4;    ///< lowrank: target rank r
  std::size_t lowrank_cols = 64;   ///< lowrank: reshape width cap
};

/// Reliable side-channel metadata for one encoded message.
struct MessageMeta {
  std::uint32_t msg_id = 0;
  std::uint64_t epoch = 0;
  Scheme scheme{};
  std::uint32_t total_coords = 0;
  std::uint32_t row_len = 0;        ///< RHT row length; 0 for non-RHT
  float scalar_scale = 0.0f;        ///< σ (sign) or L (SQ/SD); 0 for RHT
  std::vector<float> row_scales;    ///< per-row f for RHT; empty otherwise
  // lowrank: matrix shape, component split, and the reliable Q factor.
  std::uint32_t lr_rows = 0, lr_cols = 0;
  std::uint16_t lr_rank = 0;   ///< components encoded per packet
  std::uint16_t lr_head = 0;   ///< components in the untrimmable head region
  std::vector<float> lr_q;     ///< m×r column-major, orthonormal

  /// Modeled wire size of the metadata packet(s): header + fixed fields +
  /// one float per row scale (+ the low-rank shape and Q factor when
  /// present). Counted against the reliable channel.
  std::size_t wire_bytes() const noexcept;
};

/// Result of encoding one message.
struct EncodedMessage {
  std::vector<GradientPacket> packets;
  MessageMeta meta;

  std::size_t total_wire_bytes() const noexcept;  ///< packets + metadata
};

/// How each coordinate was recovered, for accounting/tests.
struct DecodeStats {
  std::size_t total_coords = 0;
  std::size_t full_coords = 0;     ///< tail survived: (near-)exact decode
  std::size_t trimmed_coords = 0;  ///< head-only decode
  std::size_t lost_coords = 0;     ///< packet never arrived: zero-filled
};

struct DecodeResult {
  std::vector<float> values;
  DecodeStats stats;
};

/// Gradient → trimmable packets.
class TrimmableEncoder {
 public:
  /// Throws std::invalid_argument if any codec but the baseline gets a
  /// layout.q_bits outside 1..31.
  explicit TrimmableEncoder(CodecConfig cfg);

  /// Encode a gradient buffer as message `msg_id` of `epoch`. Deterministic
  /// given the config and inputs, except for SQ's stochastic rounding which
  /// draws from the encoder's private RNG stream.
  EncodedMessage encode(std::span<const float> grad, std::uint32_t msg_id,
                        std::uint64_t epoch);

  const CodecConfig& config() const noexcept { return cfg_; }

 private:
  CodecConfig cfg_;
  const CodecInfo* codec_;
  Xoshiro256 private_rng_;
};

/// Trimmable packets (any subset trimmed or missing) → gradient estimate.
class TrimmableDecoder {
 public:
  explicit TrimmableDecoder(CodecConfig cfg) : cfg_(std::move(cfg)) {}

  /// Decode from received packets + reliable metadata. Packets may arrive
  /// in any order; missing coordinates decode to 0.
  DecodeResult decode(std::span<const GradientPacket> packets,
                      const MessageMeta& meta) const;

  const CodecConfig& config() const noexcept { return cfg_; }

 private:
  CodecConfig cfg_;
};

}  // namespace trimgrad::core
