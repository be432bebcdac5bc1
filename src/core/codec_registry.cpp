// The built-in codecs. Each scheme is one encode/decode/accepts triple
// registered in CodecRegistry::global() at the bottom of this file; outside
// it, only TrimmableEncoder's Q check (which exempts the baseline) branches
// on a Scheme value.
#include "core/codec_registry.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/bitpack.h"
#include "core/hadamard.h"
#include "core/lowrank.h"
#include "core/quantizer.h"
#include "core/rht_codec.h"
#include "core/simd.h"
#include "core/threadpool.h"

namespace trimgrad::core {

namespace {

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

/// Pack `heads.size()` head bits and q-bit tails into a packet. A tail keeps
/// the top q bits of a 31-bit magnitude (ahead-of-time compression, §5.3: a
/// sender that expects congestion lowers Q and keeps only the sign/exponent
/// side); TrimmableEncoder holds q to 1..31.
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
  pkt.tail_region.resize(bytes_for_bits(tails.size() * q));
  pack_run(tails.data(), tails.size(), q, 31 - q, pkt.tail_region.data());
  return pkt;
}

/// Whether a packet's regions hold what its header promises for one head
/// bit per coordinate: ceil(n/8) head bytes and, unless trimmed, a tail
/// width of 1..32 bits with ceil(n·q/8) tail bytes. Decoders count any
/// other packet's coordinates as lost and never read it.
bool regions_hold(const GradientPacket& pkt) noexcept {
  const std::size_t n = pkt.n_coords;
  if (pkt.head_region.size() < bytes_for_bits(n)) return false;
  if (pkt.trimmed) return true;
  return pkt.q_bits >= 1 && pkt.q_bits <= 32 &&
         pkt.tail_region.size() >= bytes_for_bits(n * pkt.q_bits);
}

/// Coordinates of `pkt` that land in [0, size): a prefix of the packet,
/// since coord_base + j only grows with j.
std::size_t in_range(const GradientPacket& pkt, std::size_t size) noexcept {
  if (pkt.coord_base >= size) return 0;
  return std::min<std::size_t>(pkt.n_coords, size - pkt.coord_base);
}

/// Grows `v` to at least n elements (never shrinks) and returns its data.
/// The decoders' thread-local scratch (like gemm_nt's pack buffer) stops
/// allocating once it has reached the largest shape.
template <typename T>
T* grown(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// Sets bits [a, b) of `bits` and returns how many were clear.
std::size_t cover(std::uint64_t* bits, std::size_t a, std::size_t b) noexcept {
  std::size_t fresh = 0;
  while (a < b) {
    const std::size_t w = a / 64, lo = a % 64;
    const std::size_t hi = std::min<std::size_t>(64, lo + (b - a));
    const std::uint64_t mask =
        (hi == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1) &
        (~std::uint64_t{0} << lo);
    fresh += static_cast<std::size_t>(std::popcount(mask & ~bits[w]));
    bits[w] |= mask;
    a += hi - lo;
  }
  return fresh;
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
    // Big-endian float bits: one byte-swapping copy.
    pkt.tail_region.resize(4 * n);
    pack_run(grad.data() + base, n, 32, 0, pkt.tail_region.data());
    out.packets.push_back(std::move(pkt));
  }
}

void decode_baseline(const CodecConfig&,
                     std::span<const GradientPacket> packets,
                     const MessageMeta& meta, DecodeResult& out) {
  // A coordinate counts once however many copies of it arrive (a
  // retransmit that also got through), so full + lost = total.
  thread_local std::vector<std::uint64_t> covered;
  const std::size_t words = (out.values.size() + 63) / 64;
  std::uint64_t* bits = grown(covered, words);
  std::fill_n(bits, words, std::uint64_t{0});
  std::size_t full = 0;
  for (const auto& pkt : packets) {
    if (pkt.trimmed) continue;  // baseline trim loses the payload
    if (pkt.tail_region.size() < 4 * std::size_t{pkt.n_coords}) continue;
    const std::size_t n = in_range(pkt, out.values.size());
    const std::uint8_t* src = pkt.tail_region.data();
    float* dst = out.values.data() + pkt.coord_base;
    for (std::size_t j = 0; j < n; ++j, src += 4) {
      dst[j] = bits_float(std::uint32_t{src[0]} << 24 |
                          std::uint32_t{src[1]} << 16 |
                          std::uint32_t{src[2]} << 8 | src[3]);
    }
    full += cover(bits, pkt.coord_base, pkt.coord_base + n);
  }
  out.stats.full_coords = full;
  out.stats.lost_coords = meta.total_coords - full;
}

// ------------------------------------------------------- §3.1 scalar heads --
// sign/sq/sd: one head bit and a q-bit tail per coordinate, with the
// message-level scale (σ or L) in the metadata.

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
  thread_local std::vector<std::uint8_t> heads;
  thread_local std::vector<std::uint32_t> tails;
  for (const auto& pkt : packets) {
    if (!regions_hold(pkt)) continue;
    // Only the in-range prefix is decoded (and counted: a coordinate that
    // arrives twice counts twice, a never-seen one as lost).
    const std::size_t base = pkt.coord_base;
    const std::size_t n = in_range(pkt, out.values.size());
    if (n == 0) continue;
    BitReader(pkt.head_region).get_bits8(grown(heads, n), n);
    float* dst = out.values.data() + base;
    if (pkt.trimmed) {
      for (std::size_t j = 0; j < n; ++j) {
        const float dither = ss == ScalarScheme::kSD ? dithers[base + j] : 0.0f;
        dst[j] = scalar_decode_trimmed(ss, heads[j] != 0, meta.scalar_scale,
                                       dither);
      }
      out.stats.trimmed_coords += n;
    } else {
      const unsigned q = pkt.q_bits;
      unpack_run(pkt.tail_region, n, q, grown(tails, n));
      for (std::size_t j = 0; j < n; ++j)
        dst[j] =
            scalar_decode_full(ss, heads[j] != 0, tail_expand(tails[j], q));
      out.stats.full_coords += n;
    }
    std::fill_n(seen.begin() + static_cast<std::ptrdiff_t>(base), n,
                std::uint8_t{1});
  }
  for (std::uint8_t s : seen)
    if (s == 0) ++out.stats.lost_coords;
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
    if (pkt.head_region.size() < 4 * head_k * nr) continue;
    if (!pkt.trimmed && pkt.tail_region.size() < 4 * (rank - head_k) * nr)
      continue;
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

/// How the RHT arm walks a split: full rows four at a time (the lockstep
/// kernels), then the leftover full rows as one smaller group, then a
/// shorter last row on its own (zero-padded to its power of two).
struct RowGroups {
  std::size_t full;    ///< rows of row_len coordinates
  std::size_t n_rows;  ///< full, plus one if the last row is shorter

  explicit RowGroups(const RowSplit& split)
      : full(split.n_rows - (split.tail_padded != 0 ? 1 : 0)),
        n_rows(split.n_rows) {}
  std::size_t count() const noexcept { return (full + 3) / 4 + n_rows - full; }
  std::size_t first(std::size_t g) const noexcept {
    return std::min(4 * g, full);
  }
  std::size_t size(std::size_t g) const noexcept {
    return 4 * g < full ? std::min<std::size_t>(4, full - 4 * g) : 1;
  }
};

/// Per-thread scratch of the RHT arm.
struct RhtScratch {
  std::vector<float> rows;               ///< rotated rows / the ragged row
  std::vector<std::uint32_t> tails;      ///< one packet's unpacked tails
  std::vector<std::uint64_t> covered;    ///< one row's coverage bitmap
  std::vector<std::uint32_t> by_row;     ///< packet indices, grouped by row
  std::vector<std::size_t> row_end;      ///< end of each row's indices
  std::vector<std::size_t> row_full;     ///< full coordinates per row
  std::vector<std::size_t> row_trimmed;  ///< trimmed coordinates per row

  static RhtScratch& local() {
    thread_local RhtScratch s;
    return s;
  }
};

void encode_rht(const CodecConfig& cfg, Xoshiro256&,
                std::span<const float> grad, EncodedMessage& out) {
  const std::size_t per_pkt = cfg.layout.coords_per_packet();
  const unsigned q = cfg.layout.q_bits;
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
  const RowGroups groups(split);
  parallel_for(groups.count(), 1, [&](std::size_t g0, std::size_t g1) {
    RhtScratch& scratch = RhtScratch::local();
    for (std::size_t g = g0; g < g1; ++g) {
      const std::size_t first = groups.first(g), count = groups.size(g);
      const std::size_t n = split.padded_len(first);
      float* rot_base = grown(scratch.rows, 4 * n);
      const float* in[4];
      float* rot[4];
      StreamKey keys[4];
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t r = first + k;
        const std::size_t real = split.real_len(r);
        rot[k] = rot_base + k * n;
        keys[k] = {cfg.shared_seed, out.meta.epoch, out.meta.msg_id, r};
        in[k] = grad.data() + split.offset(r);
        if (real != n) {  // the ragged row: rotate a zero-padded copy
          std::copy_n(in[k], real, rot[k]);
          std::fill(rot[k] + real, rot[k] + n, 0.0f);
          in[k] = rot[k];
        }
      }
      rht_rotate_rows(in, rot, count, n, keys, &out.meta.row_scales[first]);
      // Heads and tails are packed straight from the rotated rows. Packets
      // never span rows: coord_base is global, the row-local offset is
      // recovered as coord_base − row·row_len at decode.
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t r = first + k;
        std::size_t slot = pkt_base[r];
        for (std::size_t off = 0; off < n; off += per_pkt, ++slot) {
          const std::size_t m = std::min(per_pkt, n - off);
          GradientPacket& pkt = out.packets[slot];
          pkt = packet_header(out.meta, r, split.offset(r) + off, m, slot,
                              cfg.layout.p_bits, q);
          pkt.head_region.resize(bytes_for_bits(m));
          simd::pack_heads(rot[k] + off, m, pkt.head_region.data());
          pkt.tail_region.resize(bytes_for_bits(m * q));
          pack_run(rot[k] + off, m, q, 31 - q, pkt.tail_region.data());
        }
      }
    }
  });
}

/// Where a packet of the row starting at row_base (padded length n) lands:
/// its first `count` coordinates go to row slots [local0, local0 + count).
/// A packet whose coord_base lies outside the row lands nowhere, so its
/// coordinates count as lost rather than pairing heads with wrong tails.
struct Landing {
  std::size_t local0 = 0, count = 0;
};

Landing land(const GradientPacket& pkt, std::size_t row_base,
             std::size_t n) noexcept {
  if (pkt.coord_base < row_base || pkt.coord_base - row_base >= n) return {};
  const std::size_t local0 = pkt.coord_base - row_base;
  return {local0, std::min<std::size_t>(pkt.n_coords, n - local0)};
}

void decode_rht(const CodecConfig& cfg, std::span<const GradientPacket> packets,
                const MessageMeta& meta, DecodeResult& out) {
  const RowSplit split = make_row_split(meta.total_coords, meta.row_len);
  // Packet indices grouped by row in arrival order (a counting sort), so
  // each row sees its packets in the order they arrived: when packets
  // overlap, the last one to arrive decides the coordinate.
  RhtScratch& caller = RhtScratch::local();
  std::vector<std::size_t>& row_end = caller.row_end;
  std::vector<std::uint32_t>& by_row = caller.by_row;
  row_end.assign(split.n_rows + 1, 0);
  for (const auto& pkt : packets)
    if (pkt.row_id < split.n_rows) ++row_end[pkt.row_id + 1];
  for (std::size_t r = 0; r < split.n_rows; ++r) row_end[r + 1] += row_end[r];
  grown(by_row, row_end[split.n_rows]);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (packets[i].row_id < split.n_rows)
      by_row[row_end[packets[i].row_id]++] = static_cast<std::uint32_t>(i);
  }
  // row_end[r] now ends row r's indices; row r begins where r - 1 ends.
  const auto row_begin = [&](std::size_t r) {
    return r == 0 ? std::size_t{0} : row_end[r - 1];
  };
  std::vector<std::size_t>& row_full = caller.row_full;
  std::vector<std::size_t>& row_trimmed = caller.row_trimmed;
  row_full.assign(split.n_rows, 0);
  row_trimmed.assign(split.n_rows, 0);
  // Rows decode across the pool: each writes a disjoint slice of
  // out.values and its own stats slots, so results and stats are identical
  // for any thread count.
  const RowGroups groups(split);
  parallel_for(groups.count(), 1, [&](std::size_t g0, std::size_t g1) {
    RhtScratch& scratch = RhtScratch::local();
    for (std::size_t g = g0; g < g1; ++g) {
      const std::size_t first = groups.first(g), count = groups.size(g);
      const std::size_t n = split.padded_len(first);
      float* rows[4];
      StreamKey keys[4];
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t r = first + k;
        const std::size_t real = split.real_len(r);
        const std::size_t row_base = split.offset(r);
        // Full rows decode straight into the output; the ragged row into
        // scratch, of which only the real coordinates are copied out.
        float* row =
            real == n ? out.values.data() + row_base : grown(scratch.rows, n);
        rows[k] = row;
        keys[k] = {cfg.shared_seed, meta.epoch, meta.msg_id, r};
        // Lost coordinates decode as r̂ = +0 (no sign information at all).
        std::fill_n(row, n, 0.0f);
        const float f = r < meta.row_scales.size() ? meta.row_scales[r] : 0.0f;
        for (std::size_t i = row_begin(r); i < row_end[r]; ++i) {
          const GradientPacket& pkt = packets[by_row[i]];
          if (!regions_hold(pkt)) continue;
          const Landing l = land(pkt, row_base, n);
          if (l.count == 0) continue;
          const std::uint32_t* mags = nullptr;  // trimmed: ±f
          if (!pkt.trimmed) {
            std::uint32_t* t = grown(scratch.tails, l.count);
            unpack_run(pkt.tail_region, l.count, pkt.q_bits, t);
            if (pkt.q_bits < 31) {
              for (std::size_t j = 0; j < l.count; ++j)
                t[j] = tail_expand(t[j], pkt.q_bits);
            }
            mags = t;
          }
          simd::join_heads(pkt.head_region.data(), mags, f, row + l.local0,
                           l.count);
        }
        // Stats over the real coordinates: walking the row's packets from
        // the last arrival back, each coordinate counts for the first
        // packet that covers it.
        std::uint64_t* bits = grown(scratch.covered, (real + 63) / 64);
        std::fill_n(bits, (real + 63) / 64, std::uint64_t{0});
        for (std::size_t i = row_end[r]; i-- > row_begin(r);) {
          const GradientPacket& pkt = packets[by_row[i]];
          if (!regions_hold(pkt)) continue;
          const Landing l = land(pkt, row_base, n);
          const std::size_t end = std::min(l.local0 + l.count, real);
          if (l.local0 >= end) continue;
          const std::size_t fresh = cover(bits, l.local0, end);
          (pkt.trimmed ? row_trimmed[r] : row_full[r]) += fresh;
        }
      }
      rht_unrotate_rows(rows, count, n, keys);
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t r = first + k;
        if (rows[k] != out.values.data() + split.offset(r)) {
          std::copy_n(rows[k], split.real_len(r),
                      out.values.data() + split.offset(r));
        }
      }
    }
  });
  for (std::size_t r = 0; r < split.n_rows; ++r) {
    out.stats.full_coords += row_full[r];
    out.stats.trimmed_coords += row_trimmed[r];
    out.stats.lost_coords += split.real_len(r) - row_full[r] - row_trimmed[r];
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
        // 5 and 6: bytes of retired codecs, never reused.
        {},
        {},
        {"lowrank", Scheme::kLowRank, encode_lowrank, decode_lowrank,
         accepts_lowrank},
    };
    return r;
  }();
  return *reg;
}

const CodecInfo& CodecRegistry::at(const std::string& name) const {
  for (const auto& c : codecs_) {
    if (c.encode != nullptr && c.name == name) return c;
  }
  std::string msg = "unknown codec '" + name + "'; registered:";
  for (const auto& n : names()) msg += " " + n;
  throw std::invalid_argument(msg);
}

const CodecInfo* CodecRegistry::find(Scheme scheme) const noexcept {
  const auto b = static_cast<std::size_t>(scheme);
  if (b >= codecs_.size() || codecs_[b].encode == nullptr) return nullptr;
  return &codecs_[b];
}

const CodecInfo& CodecRegistry::of(Scheme scheme) const {
  if (const CodecInfo* c = find(scheme)) return *c;
  throw std::invalid_argument("scheme has no registered codec");
}

std::vector<std::string> CodecRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(codecs_.size());
  for (const auto& c : codecs_) {
    if (c.encode != nullptr) out.push_back(c.name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace trimgrad::core
