// String-keyed codec registry: the one place that knows each compression
// scheme.
//
// Every entry maps a name onto a core::Scheme wire value and owns that
// scheme's codec — how it fills the trimmable packet train in core/packet.h,
// how it rebuilds the gradient from whatever part of the train arrived, and
// which metadata it accepts off the wire. TrimmableEncoder/TrimmableDecoder
// and parse_meta dispatch through the entry, so ddp::Trainer, the sweep
// grids and every CompressionPolicy can put any registered codec on the
// fabric. DESIGN.md ("Adding a codec") has the recipe.
//
// Mirrors net::TransportRegistry so an ExperimentSpec can validate both of
// its names against one mechanism and error with the registered lists.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/codec.h"

namespace trimgrad::core {

/// One scheme's codec. Before `encode` runs, the encoder has set the meta's
/// msg_id, epoch, scheme and total_coords; before `decode` runs, the decoder
/// has zero-filled `out.values` and set `out.stats.total_coords`.
struct CodecInfo {
  std::string name;
  Scheme scheme{};
  /// Fill `out.packets` and the scheme's own MessageMeta fields.
  void (*encode)(const CodecConfig& cfg, Xoshiro256& private_rng,
                 std::span<const float> grad, EncodedMessage& out) = nullptr;
  /// Rebuild the gradient and its full/trimmed/lost stats from whatever
  /// packets arrived (any subset, any order, trimmed or not).
  void (*decode)(const CodecConfig& cfg,
                 std::span<const GradientPacket> packets,
                 const MessageMeta& meta, DecodeResult& out) = nullptr;
  /// parse_meta's check: false when a field decode would trust (an index,
  /// a divisor, an allocation size) does not fit the message.
  bool (*accepts)(const MessageMeta& meta) = nullptr;
};

class CodecRegistry {
 public:
  /// The process-wide registry with the built-in codecs.
  static const CodecRegistry& global();

  /// Throws std::invalid_argument listing the registered names.
  const CodecInfo& at(const std::string& name) const;
  /// The entry of a wire scheme, or nullptr if none: how the wire parsers
  /// reject a scheme byte that names no codec.
  const CodecInfo* find(Scheme scheme) const noexcept;
  /// The entry of a wire scheme; throws std::invalid_argument if none.
  const CodecInfo& of(Scheme scheme) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;
  /// The registered name of a wire scheme (what of(scheme).name holds).
  const std::string& name_of(Scheme scheme) const { return of(scheme).name; }

 private:
  /// Indexed by wire byte, so find() is one lookup. A retired codec's byte
  /// keeps an empty entry (null encode) rather than being reused.
  std::vector<CodecInfo> codecs_;
};

}  // namespace trimgrad::core
