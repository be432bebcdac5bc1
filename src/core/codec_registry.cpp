// The built-in codecs. Each scheme is one encode/decode/accepts triple
// registered in CodecRegistry::global() at the bottom of this file; nothing
// else in the library branches on a Scheme value.
#include "core/codec_registry.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/bitpack.h"
#include "core/hadamard.h"
#include "core/lowrank.h"
#include "core/magnitude.h"
#include "core/quantizer.h"
#include "core/rht_codec.h"
#include "core/sparsify.h"
#include "core/threadpool.h"

namespace trimgrad::core {

namespace {

/// sparsify: share of coordinates kept before encoding; the MLT observation
/// puts the near-free share at ~0.8 dropped.
constexpr double kTopKKeep = 0.25;

/// Expand a stored q-bit tail back to the 31-bit container, filling the
/// dropped low bits with their bucket midpoint.
std::uint32_t tail_expand(std::uint32_t stored, unsigned q) noexcept {
  if (q >= 31) return stored;
  return (stored << (31 - q)) | (1u << (30 - q));
}

/// Header fields of one packet of `meta`'s message; the codec fills the
/// two payload regions.
GradientPacket packet_header(const MessageMeta& meta, std::size_t row_id,
                             std::size_t coord_base, std::size_t n,
                             std::size_t seq, unsigned p_bits,
                             unsigned q_bits) {
  GradientPacket pkt;
  pkt.msg_id = meta.msg_id;
  pkt.row_id = static_cast<std::uint32_t>(row_id);
  pkt.coord_base = static_cast<std::uint32_t>(coord_base);
  pkt.n_coords = static_cast<std::uint16_t>(n);
  pkt.seq = static_cast<std::uint16_t>(seq);
  pkt.scheme = meta.scheme;
  pkt.p_bits = static_cast<std::uint8_t>(p_bits);
  pkt.q_bits = static_cast<std::uint8_t>(q_bits);
  return pkt;
}

/// Pack `heads.size()` head bits and q-bit tails into a packet.
GradientPacket make_packet(const CodecConfig& cfg, const MessageMeta& meta,
                           std::size_t row_id, std::size_t coord_base,
                           std::size_t seq, std::span<const std::uint8_t> heads,
                           std::span<const std::uint32_t> tails) {
  const unsigned q = cfg.layout.q_bits;
  GradientPacket pkt = packet_header(meta, row_id, coord_base, heads.size(),
                                     seq, cfg.layout.p_bits, q);
  BitWriter head_w;
  head_w.put_bits8(heads.data(), heads.size());
  pkt.head_region = std::move(head_w).finish();

  BitWriter tail_w;
  if (q >= 31) {
    // Default layout: 31-bit tails are stored verbatim.
    tail_w.put_run(tails.data(), tails.size(), 31);
  } else {
    // Ahead-of-time compression (§5.3): a sender that expects congestion
    // lowers Q and keeps only the top q bits (sign/exponent side).
    std::vector<std::uint32_t> stored(tails.size());
    for (std::size_t i = 0; i < tails.size(); ++i)
      stored[i] = tails[i] >> (31 - q);
    tail_w.put_run(stored.data(), stored.size(), q);
  }
  pkt.tail_region = std::move(tail_w).finish();
  return pkt;
}

bool accepts_any(const MessageMeta&) { return true; }

// ---------------------------------------------------------------- baseline --
// Fig. 2a: raw float32 payload, all of it tail (P = 0, Q = 32). Trimming or
// losing a packet loses its coordinates outright; the reliable-transport
// baseline in src/net retransmits instead.

void encode_baseline(const CodecConfig& cfg, Xoshiro256&,
                     std::span<const float> grad, EncodedMessage& out) {
  PacketLayout layout = cfg.layout;
  layout.p_bits = 0;
  layout.q_bits = 32;
  const std::size_t per_pkt = layout.coords_per_packet();
  for (std::size_t base = 0; base < grad.size(); base += per_pkt) {
    const std::size_t n = std::min(per_pkt, grad.size() - base);
    GradientPacket pkt =
        packet_header(out.meta, 0, base, n, out.packets.size(), 0, 32);
    BitWriter w;
    for (float v : grad.subspan(base, n)) w.put(float_bits(v), 32);
    pkt.tail_region = std::move(w).finish();
    out.packets.push_back(std::move(pkt));
  }
}

void decode_baseline(const CodecConfig&,
                     std::span<const GradientPacket> packets,
                     const MessageMeta& meta, DecodeResult& out) {
  std::size_t covered = 0;
  for (const auto& pkt : packets) {
    if (pkt.trimmed) continue;  // baseline trim loses the payload
    BitReader r(pkt.tail_region);
    for (std::size_t j = 0; j < pkt.n_coords; ++j) {
      const std::size_t idx = pkt.coord_base + j;
      if (idx >= out.values.size()) break;
      out.values[idx] = bits_float(static_cast<std::uint32_t>(r.get(32)));
      ++covered;
    }
  }
  out.stats.full_coords = covered;
  out.stats.lost_coords = meta.total_coords - covered;
}

// ------------------------------------------------------- §3.1 scalar heads --
// sign/sq/sd: one head bit and a q-bit tail per coordinate, with the
// message-level scale (σ or L) in the metadata. sparsify and magnitude ride
// SD heads/tails over a transformed buffer; SD's shared-dither
// reconstruction needs no extra sender state.

template <ScalarScheme ss>
void encode_scalar(const CodecConfig& cfg, Xoshiro256& private_rng,
                   std::span<const float> values, EncodedMessage& out) {
  const float scale = scalar_scale(ss, values);
  out.meta.scalar_scale = scale;
  std::vector<float> dithers;
  if (ss == ScalarScheme::kSD) {
    const StreamKey key{cfg.shared_seed, out.meta.epoch, out.meta.msg_id, 0};
    dithers = make_dithers(values.size(), scale, SharedRng(key));
  }
  std::vector<std::uint8_t> heads;
  std::vector<std::uint32_t> tails;
  scalar_encode_all(ss, values, scale, private_rng, dithers, heads, tails);
  const std::size_t per_pkt = cfg.layout.coords_per_packet();
  for (std::size_t base = 0; base < values.size(); base += per_pkt) {
    const std::size_t n = std::min(per_pkt, values.size() - base);
    out.packets.push_back(make_packet(
        cfg, out.meta, 0, base, out.packets.size(),
        std::span(heads).subspan(base, n), std::span(tails).subspan(base, n)));
  }
}

template <ScalarScheme ss>
void decode_scalar(const CodecConfig& cfg,
                   std::span<const GradientPacket> packets,
                   const MessageMeta& meta, DecodeResult& out) {
  std::vector<float> dithers;
  if (ss == ScalarScheme::kSD) {
    dithers = make_dithers(
        meta.total_coords, meta.scalar_scale,
        SharedRng(StreamKey{cfg.shared_seed, meta.epoch, meta.msg_id, 0}));
  }
  std::vector<std::uint8_t> seen(meta.total_coords, 0);
  for (const auto& pkt : packets) {
    BitReader heads(pkt.head_region);
    BitReader tails(pkt.tail_region);
    for (std::size_t j = 0; j < pkt.n_coords; ++j) {
      const bool h = heads.get_bit();
      const std::size_t idx = pkt.coord_base + j;
      if (idx >= out.values.size()) continue;
      const float dither = ss == ScalarScheme::kSD ? dithers[idx] : 0.0f;
      if (pkt.trimmed) {
        out.values[idx] =
            scalar_decode_trimmed(ss, h, meta.scalar_scale, dither);
        seen[idx] = 1;
        ++out.stats.trimmed_coords;
      } else {
        out.values[idx] = scalar_decode_full(
            ss, h,
            tail_expand(static_cast<std::uint32_t>(tails.get(pkt.q_bits)),
                        pkt.q_bits));
        seen[idx] = 1;
        ++out.stats.full_coords;
      }
    }
  }
  for (std::uint8_t s : seen)
    if (s == 0) ++out.stats.lost_coords;
}

/// sparsify (§5.3): drop the smallest-magnitude share before encoding, then
/// ship the survivors trimmably so switches can still compress further
/// under unpredicted congestion.
void encode_sparsify(const CodecConfig& cfg, Xoshiro256& private_rng,
                     std::span<const float> grad, EncodedMessage& out) {
  std::vector<float> kept(grad.begin(), grad.end());
  topk_sparsify_inplace(kept, kTopKKeep);
  encode_scalar<ScalarScheme::kSD>(cfg, private_rng, kept, out);
}

/// magnitude (§2 strawman): magnitude-ordered placement. The permutation
/// rides the reliable metadata (cost made explicit in
/// MessageMeta::wire_bytes).
void encode_magnitude(const CodecConfig& cfg, Xoshiro256& private_rng,
                      std::span<const float> grad, EncodedMessage& out) {
  out.meta.perm = magnitude_order(grad);
  encode_scalar<ScalarScheme::kSD>(
      cfg, private_rng, apply_permutation(grad, out.meta.perm), out);
}

void decode_magnitude(const CodecConfig& cfg,
                      std::span<const GradientPacket> packets,
                      const MessageMeta& meta, DecodeResult& out) {
  decode_scalar<ScalarScheme::kSD>(cfg, packets, meta, out);
  if (meta.perm.size() != out.values.size()) return;
  // The packets carried placement order; restore coordinate order.
  std::vector<float> orig(out.values.size(), 0.0f);
  for (std::size_t i = 0; i < out.values.size(); ++i)
    orig[meta.perm[i]] = out.values[i];
  out.values = std::move(orig);
}

/// A permutation decode may scatter through: every index of
/// [0, total_coords) exactly once (or none, which decode skips).
bool accepts_magnitude(const MessageMeta& meta) {
  if (meta.perm.empty()) return true;
  if (meta.perm.size() != meta.total_coords) return false;
  std::vector<bool> seen(meta.total_coords, false);
  for (const std::uint32_t v : meta.perm) {
    if (v >= meta.total_coords || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

// ----------------------------------------------------------------- lowrank --
// §5.2 PowerSGD factors (core/lowrank.h) in a rank-ordered trimmable layout:
// the gradient is reshaped to rows × cols, the small Q factor rides the
// metadata, and P is sliced row-wise across packets with the most important
// components in the head region.

void encode_lowrank(const CodecConfig& cfg, Xoshiro256&,
                    std::span<const float> grad, EncodedMessage& out) {
  if (grad.empty()) return;
  const std::size_t n = grad.size();
  const std::size_t cols =
      std::min(std::max<std::size_t>(cfg.lowrank_cols, 1), n);
  const std::size_t rows = (n + cols - 1) / cols;
  std::vector<float> m(rows * cols, 0.0f);
  std::copy(grad.begin(), grad.end(), m.begin());
  const std::size_t rank =
      std::clamp<std::size_t>(cfg.lowrank_rank, 1, std::min(rows, cols));
  const LowRankFactors f = power_factorize(
      m, rows, cols, rank, kLowRankPowerIters,
      mix64(cfg.shared_seed, mix64(out.meta.epoch, out.meta.msg_id)));
  // Importance-ordered component split: the first lr_head components go
  // into the untrimmable head region, the rest into the tail — a switch
  // trim always cuts the smallest-singular-value ranks (§5.2).
  const std::size_t head_k = std::max<std::size_t>(1, rank / 4);
  out.meta.lr_rows = static_cast<std::uint32_t>(rows);
  out.meta.lr_cols = static_cast<std::uint32_t>(cols);
  out.meta.lr_rank = static_cast<std::uint16_t>(rank);
  out.meta.lr_head = static_cast<std::uint16_t>(head_k);
  out.meta.lr_q = f.q;
  const std::size_t rows_per = std::max<std::size_t>(
      1, cfg.layout.payload_bytes() / (rank * sizeof(float)));
  for (std::size_t r0 = 0; r0 < rows; r0 += rows_per) {
    const std::size_t nr = std::min(rows_per, rows - r0);
    GradientPacket pkt =
        packet_header(out.meta, 0, r0, nr, out.packets.size(), head_k, rank);
    BitWriter head_w, tail_w;
    for (std::size_t k = 0; k < rank; ++k) {
      BitWriter& w = k < head_k ? head_w : tail_w;
      for (std::size_t i = 0; i < nr; ++i)
        w.put(float_bits(f.p[k * rows + r0 + i]), 32);
    }
    pkt.head_region = std::move(head_w).finish();
    pkt.tail_region = std::move(tail_w).finish();
    out.packets.push_back(std::move(pkt));
  }
}

void decode_lowrank(const CodecConfig&, std::span<const GradientPacket> packets,
                    const MessageMeta& meta, DecodeResult& out) {
  const std::size_t rows = meta.lr_rows;
  const std::size_t cols = meta.lr_cols;
  const std::size_t rank = meta.lr_rank;
  if (rows == 0 || cols == 0 || rank == 0 || meta.lr_q.size() != cols * rank) {
    out.stats.lost_coords = meta.total_coords;
    return;
  }
  // Assemble the P factor from surviving slices. Components a trim cut
  // away stay zero — reconstruction then uses exactly the surviving
  // (most important) ranks of each row slice.
  std::vector<float> p(rows * rank, 0.0f);
  std::vector<std::uint8_t> row_state(rows, 2);  // 0 full, 1 trim, 2 lost
  for (const auto& pkt : packets) {
    const std::size_t head_k = pkt.p_bits;
    const std::size_t r0 = pkt.coord_base;
    const std::size_t nr = pkt.n_coords;
    if (pkt.q_bits != rank || head_k > rank || r0 + nr > rows) continue;
    BitReader hr(pkt.head_region);
    for (std::size_t k = 0; k < head_k; ++k)
      for (std::size_t i = 0; i < nr; ++i)
        p[k * rows + r0 + i] =
            bits_float(static_cast<std::uint32_t>(hr.get(32)));
    if (!pkt.trimmed) {
      BitReader tr(pkt.tail_region);
      for (std::size_t k = head_k; k < rank; ++k)
        for (std::size_t i = 0; i < nr; ++i)
          p[k * rows + r0 + i] =
              bits_float(static_cast<std::uint32_t>(tr.get(32)));
    }
    const std::uint8_t state = pkt.trimmed ? 1 : 0;
    for (std::size_t i = r0; i < r0 + nr; ++i)
      row_state[i] = std::min(row_state[i], state);
  }
  // M̂ = P·Qᵀ row by row, only the real (unpadded) coordinates.
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t base = i * cols;
    if (base >= out.values.size()) break;
    const std::size_t real = std::min(cols, out.values.size() - base);
    for (std::size_t k = 0; k < rank; ++k) {
      const float pv = p[k * rows + i];
      if (pv == 0.0f) continue;
      const float* qc = meta.lr_q.data() + k * cols;
      for (std::size_t j = 0; j < real; ++j)
        out.values[base + j] += pv * qc[j];
    }
    if (row_state[i] == 0) {
      out.stats.full_coords += real;
    } else if (row_state[i] == 1) {
      out.stats.trimmed_coords += real;
    } else {
      out.stats.lost_coords += real;
    }
  }
}

/// The shape the encoder writes for total_coords, so decode's P and row
/// buffers stay proportional to the message: rows = ceil(n / cols),
/// 1 <= rank <= min(rows, cols), head <= rank, Q is cols × rank; all zero
/// for an empty message.
bool accepts_lowrank(const MessageMeta& meta) {
  const std::uint64_t n = meta.total_coords;
  const std::uint64_t rows = meta.lr_rows, cols = meta.lr_cols;
  const std::uint64_t rank = meta.lr_rank;
  if (n == 0) {
    return rows == 0 && cols == 0 && rank == 0 && meta.lr_head == 0 &&
           meta.lr_q.empty();
  }
  return cols >= 1 && cols <= n && rows == (n + cols - 1) / cols &&
         rank >= 1 && rank <= std::min(rows, cols) && meta.lr_head <= rank &&
         meta.lr_q.size() == cols * rank;
}

// --------------------------------------------------------------------- RHT --
// §3.2: the message is split into power-of-two rows (default 2^15 entries,
// the paper's GPU-L1-sized rows), each row independently rotated; packets
// never span rows, and each row's unbiased scale f rides in the metadata.

void encode_rht(const CodecConfig& cfg, Xoshiro256&,
                std::span<const float> grad, EncodedMessage& out) {
  const std::size_t per_pkt = cfg.layout.coords_per_packet();
  const RowSplit split = make_row_split(grad.size(), cfg.rht_row_len);
  out.meta.row_len = static_cast<std::uint32_t>(cfg.rht_row_len);
  out.meta.row_scales.assign(split.n_rows, 0.0f);
  // Rows are bit-exactly independent (per-row StreamKey), so encode them
  // across the pool. Packet counts are known up front, so each row writes
  // into its own pre-sized slice of out.packets and seq numbers stay
  // identical to the sequential order.
  std::vector<std::size_t> pkt_base(split.n_rows + 1, 0);
  for (std::size_t r = 0; r < split.n_rows; ++r) {
    pkt_base[r + 1] =
        pkt_base[r] + (split.padded_len(r) + per_pkt - 1) / per_pkt;
  }
  out.packets.resize(pkt_base[split.n_rows]);
  parallel_for(split.n_rows, 1, [&](std::size_t r0, std::size_t r1) {
    // Per-chunk scratch: row copy and head/tail arrays are reused across
    // the rows of this chunk instead of reallocated per row.
    std::vector<float> row;
    RhtEncodedRow enc;
    for (std::size_t r = r0; r < r1; ++r) {
      extract_padded_row_into(grad, split, r, row);
      const StreamKey key{cfg.shared_seed, out.meta.epoch, out.meta.msg_id, r};
      rht_encode_row_inplace(row, key, enc);
      out.meta.row_scales[r] = enc.scale_f;
      // Packets never span rows: coord_base is global, row-local offset
      // recovered as coord_base − row·row_len at decode.
      const std::size_t row_base = split.offset(r);
      std::size_t slot = pkt_base[r];
      for (std::size_t off = 0; off < enc.heads.size(); off += per_pkt) {
        const std::size_t n = std::min(per_pkt, enc.heads.size() - off);
        out.packets[slot] = make_packet(cfg, out.meta, r, row_base + off, slot,
                                        std::span(enc.heads).subspan(off, n),
                                        std::span(enc.tails).subspan(off, n));
        ++slot;
      }
    }
  });
}

void decode_rht(const CodecConfig& cfg, std::span<const GradientPacket> packets,
                const MessageMeta& meta, DecodeResult& out) {
  const RowSplit split = make_row_split(meta.total_coords, meta.row_len);
  // Bucket packets by row once (also turns the old rows×packets scan into a
  // single pass), then decode rows across the pool: each row writes a
  // disjoint slice of out.values and its own stats slot, so results and
  // stats are identical for any thread count.
  std::vector<std::vector<const GradientPacket*>> by_row(split.n_rows);
  for (const auto& pkt : packets) {
    if (pkt.row_id < split.n_rows) by_row[pkt.row_id].push_back(&pkt);
  }
  std::vector<DecodeStats> row_stats(split.n_rows);
  parallel_for(split.n_rows, 1, [&](std::size_t r0, std::size_t r1) {
    // Per-chunk scratch reused across this chunk's rows.
    std::vector<std::uint8_t> heads, state, trimmed_mask;
    std::vector<std::uint32_t> tails;
    std::vector<float> row;
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t padded = split.padded_len(r);
      const std::size_t row_base = split.offset(r);
      heads.assign(padded, 0);
      tails.assign(padded, 0);
      // 0 = full, 1 = trimmed (head survives), 2 = lost (nothing).
      state.assign(padded, 2);
      for (const GradientPacket* pkt : by_row[r]) {
        // Bulk unpack. The reference per-coordinate loop reads a head bit
        // for every j but skips writes (and never consumes tail bits) where
        // local = coord_base − row_base + j lands outside [0, padded); with
        // size_t wrap-around a coord_base below row_base means a leading
        // skip of j0 = −start coordinates.
        const std::size_t start = pkt->coord_base - row_base;
        std::size_t j0 = 0;
        std::size_t local0 = start;
        if (start >= padded) {
          j0 = std::size_t{0} - start;  // first j that wraps to local 0
          if (j0 >= pkt->n_coords) continue;  // fully out of range
          local0 = 0;
        }
        const std::size_t n_ok =
            std::min<std::size_t>(pkt->n_coords - j0, padded - local0);
        BitReader hr(pkt->head_region);
        hr.skip(j0);
        hr.get_bits8(heads.data() + local0, n_ok);
        if (pkt->trimmed) {
          std::fill_n(state.begin() + local0, n_ok, std::uint8_t{1});
        } else {
          BitReader tr(pkt->tail_region);
          tr.get_run(tails.data() + local0, n_ok, pkt->q_bits);
          if (pkt->q_bits < 31) {
            for (std::size_t k = 0; k < n_ok; ++k)
              tails[local0 + k] = tail_expand(tails[local0 + k], pkt->q_bits);
          }
          std::fill_n(state.begin() + local0, n_ok, std::uint8_t{0});
        }
      }
      // Lost coordinates decode as r̂ = 0 (no sign information at all);
      // substitute r̂ directly: head=1 (+0.0), tail=0, not trimmed. Single
      // branchless pass: the compares are cheap and predictable where the
      // branchy version mispredicted on mixed-state rows.
      trimmed_mask.resize(padded);
      for (std::size_t i = 0; i < padded; ++i) {
        const std::uint8_t lost = state[i] == 2;
        trimmed_mask[i] = state[i] == 1;
        heads[i] |= lost;
        tails[i] &= std::uint32_t{lost} - 1u;  // lost: &0, else: &~0
      }
      const StreamKey key{cfg.shared_seed, meta.epoch, meta.msg_id, r};
      const float f = r < meta.row_scales.size() ? meta.row_scales[r] : 0.0f;
      const std::size_t real = split.real_len(r);
      if (real == padded) {
        // Full row: decode straight into the output slice, no bounce
        // through scratch.
        rht_decode_row_to(heads, tails, trimmed_mask, f, key,
                          std::span(out.values).subspan(row_base, padded));
      } else {
        rht_decode_row_into(heads, tails, trimmed_mask, f, key, row);
        std::copy_n(row.begin(), real, out.values.begin() + row_base);
      }
      // Padded coordinates don't count toward stats. Branchless sums
      // vectorize; lost falls out of the other two.
      std::size_t full = 0, trim = 0;
      for (std::size_t i = 0; i < real; ++i) {
        full += state[i] == 0;
        trim += state[i] == 1;
      }
      row_stats[r].full_coords = full;
      row_stats[r].trimmed_coords = trim;
      row_stats[r].lost_coords = real - full - trim;
    }
  });
  for (const DecodeStats& rs : row_stats) {
    out.stats.full_coords += rs.full_coords;
    out.stats.trimmed_coords += rs.trimmed_coords;
    out.stats.lost_coords += rs.lost_coords;
  }
}

/// make_row_split divides by the row length and assumes a power of two.
bool accepts_rht(const MessageMeta& meta) {
  return std::has_single_bit(meta.row_len);
}

}  // namespace

const CodecRegistry& CodecRegistry::global() {
  static const CodecRegistry* reg = [] {
    auto* r = new CodecRegistry();
    r->codecs_ = {
        {"baseline", Scheme::kBaseline, encode_baseline, decode_baseline,
         accepts_any},
        {"sign", Scheme::kSign, encode_scalar<ScalarScheme::kSign>,
         decode_scalar<ScalarScheme::kSign>, accepts_any},
        {"sq", Scheme::kSQ, encode_scalar<ScalarScheme::kSQ>,
         decode_scalar<ScalarScheme::kSQ>, accepts_any},
        {"sd", Scheme::kSD, encode_scalar<ScalarScheme::kSD>,
         decode_scalar<ScalarScheme::kSD>, accepts_any},
        {"rht", Scheme::kRHT, encode_rht, decode_rht, accepts_rht},
        {"sparsify", Scheme::kTopK, encode_sparsify,
         decode_scalar<ScalarScheme::kSD>, accepts_any},
        {"magnitude", Scheme::kMagnitude, encode_magnitude, decode_magnitude,
         accepts_magnitude},
        {"lowrank", Scheme::kLowRank, encode_lowrank, decode_lowrank,
         accepts_lowrank},
    };
    return r;
  }();
  return *reg;
}

const CodecInfo& CodecRegistry::at(const std::string& name) const {
  for (const auto& c : codecs_) {
    if (c.name == name) return c;
  }
  std::string msg = "unknown codec '" + name + "'; registered:";
  for (const auto& n : names()) msg += " " + n;
  throw std::invalid_argument(msg);
}

const CodecInfo& CodecRegistry::of(Scheme scheme) const {
  for (const auto& c : codecs_) {
    if (c.scheme == scheme) return c;
  }
  throw std::invalid_argument("scheme has no registered codec");
}

std::vector<std::string> CodecRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(codecs_.size());
  for (const auto& c : codecs_) out.push_back(c.name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace trimgrad::core
