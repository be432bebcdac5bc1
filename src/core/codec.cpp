#include "core/codec.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "core/codec_registry.h"
#include "core/hadamard.h"
#include "core/metrics.h"
#include "core/trace.h"

namespace trimgrad::core {

namespace {

// encode()/decode() entry points are sequential (the parallelism lives in
// the codecs' per-row loops), so message-level spans are safe to record;
// per-coordinate tallies are integer counters and may also come from the
// row workers.
struct CodecTelemetry {
  Counter enc_messages, enc_coords, enc_wire_bytes, enc_packets;
  Counter dec_messages, dec_full, dec_trimmed, dec_lost;
  Histogram loss_fraction;

  static const CodecTelemetry& get() {
    auto& reg = MetricsRegistry::global();
    static const CodecTelemetry t{
        reg.counter("codec.encode.messages"),
        reg.counter("codec.encode.coords"),
        reg.counter("codec.encode.wire_bytes"),
        reg.counter("codec.encode.packets"),
        reg.counter("codec.decode.messages"),
        reg.counter("codec.decode.full_coords"),
        reg.counter("codec.decode.trimmed_coords"),
        reg.counter("codec.decode.lost_coords"),
        reg.histogram("codec.decode.loss_fraction",
                      {0.0, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5}),
    };
    return t;
  }
};

}  // namespace

std::size_t MessageMeta::wire_bytes() const noexcept {
  // header + msg_id(4) + epoch(8) + scheme(1) + total(4) + row_len(4) +
  // scalar scale(4) + row scales.
  std::size_t bytes = kTransportHeaderBytes + 25 + 4 * row_scales.size();
  if (lr_rank > 0) bytes += 12 + 4 * lr_q.size();
  return bytes;
}

std::size_t EncodedMessage::total_wire_bytes() const noexcept {
  std::size_t total = meta.wire_bytes();
  for (const auto& p : packets) total += p.wire_bytes();
  return total;
}

TrimmableEncoder::TrimmableEncoder(CodecConfig cfg)
    : cfg_(std::move(cfg)),
      codec_(&CodecRegistry::global().of(cfg_.scheme)),
      private_rng_(cfg_.private_seed) {
  // A head carries the sign, so a tail holds at most the 31 magnitude bits;
  // only the baseline (raw floats, which sets its own Q) takes any q.
  const unsigned q = cfg_.layout.q_bits;
  if (cfg_.scheme != Scheme::kBaseline && (q < 1 || q > 31)) {
    throw std::invalid_argument("codec '" + codec_->name +
                                "' needs q_bits in 1..31, got " +
                                std::to_string(q));
  }
  assert(is_pow2(cfg_.rht_row_len));
  assert(cfg_.layout.coords_per_packet() > 0);
}

EncodedMessage TrimmableEncoder::encode(std::span<const float> grad,
                                        std::uint32_t msg_id,
                                        std::uint64_t epoch) {
  TraceLog::Span trace_span = TraceLog::global().span("codec.encode", "codec");
  trace_span.arg("coords", static_cast<double>(grad.size()));
  EncodedMessage out;
  out.meta.msg_id = msg_id;
  out.meta.epoch = epoch;
  out.meta.scheme = cfg_.scheme;
  out.meta.total_coords = static_cast<std::uint32_t>(grad.size());
  codec_->encode(cfg_, private_rng_, grad, out);
  const CodecTelemetry& t = CodecTelemetry::get();
  t.enc_messages.add();
  t.enc_coords.add(grad.size());
  t.enc_wire_bytes.add(out.total_wire_bytes());
  t.enc_packets.add(out.packets.size());
  return out;
}

DecodeResult TrimmableDecoder::decode(std::span<const GradientPacket> packets,
                                      const MessageMeta& meta) const {
  TraceLog::Span trace_span = TraceLog::global().span("codec.decode", "codec");
  trace_span.arg("coords", static_cast<double>(meta.total_coords));
  DecodeResult out;
  out.values.assign(meta.total_coords, 0.0f);
  out.stats.total_coords = meta.total_coords;
  CodecRegistry::global().of(meta.scheme).decode(cfg_, packets, meta, out);
  const CodecTelemetry& t = CodecTelemetry::get();
  t.dec_messages.add();
  t.dec_full.add(out.stats.full_coords);
  t.dec_trimmed.add(out.stats.trimmed_coords);
  t.dec_lost.add(out.stats.lost_coords);
  if (out.stats.total_coords > 0) {
    t.loss_fraction.observe(
        static_cast<double>(out.stats.trimmed_coords + out.stats.lost_coords) /
        static_cast<double>(out.stats.total_coords));
  }
  return out;
}

}  // namespace trimgrad::core
