// Cross-commit bit freeze of every registry codec. Each case encodes one
// gradient, delivers its packets five ways (all full; trimmed and dropped;
// a trimmed duplicate after and before its full packet; packets moved
// outside their row) and hashes what went on the wire, the reliable
// metadata, the decoded floats and the DecodeStats. The hashes are
// constants taken from the implementation before the fused RHT codec, so a
// codec rewrite that moves a single bit on any ISA or pool size fails here
// rather than only in a same-build comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/codec.h"
#include "core/codec_registry.h"
#include "core/prng.h"
#include "core/simd.h"
#include "core/threadpool.h"

namespace trimgrad::core {
namespace {

/// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hash_packets(Fnv1a& h, const std::vector<GradientPacket>& pkts) {
  h.pod(static_cast<std::uint64_t>(pkts.size()));
  for (const GradientPacket& p : pkts) {
    h.pod(p.msg_id);
    h.pod(p.row_id);
    h.pod(p.coord_base);
    h.pod(p.n_coords);
    h.pod(p.seq);
    h.pod(static_cast<std::uint8_t>(p.scheme));
    h.pod(p.p_bits);
    h.pod(p.q_bits);
    h.pod(static_cast<std::uint8_t>(p.trimmed));
    h.vec(p.head_region);
    h.vec(p.tail_region);
  }
}

void hash_meta(Fnv1a& h, const MessageMeta& m) {
  h.pod(m.msg_id);
  h.pod(m.epoch);
  h.pod(static_cast<std::uint8_t>(m.scheme));
  h.pod(m.total_coords);
  h.pod(m.row_len);
  h.pod(m.scalar_scale);
  h.vec(m.row_scales);
  // The length prefix of a permutation field every surviving codec left
  // empty; hashing it keeps the frozen constants valid after its removal.
  h.pod(std::uint64_t{0});
  h.pod(m.lr_rows);
  h.pod(m.lr_cols);
  h.pod(m.lr_rank);
  h.pod(m.lr_head);
  h.vec(m.lr_q);
}

void hash_decode(Fnv1a& h, const DecodeResult& r) {
  h.vec(r.values);
  h.pod(static_cast<std::uint64_t>(r.stats.total_coords));
  h.pod(static_cast<std::uint64_t>(r.stats.full_coords));
  h.pod(static_cast<std::uint64_t>(r.stats.trimmed_coords));
  h.pod(static_cast<std::uint64_t>(r.stats.lost_coords));
}

/// Gaussian coordinates of mixed scale, with exact +0 and -0 sprinkled in.
std::vector<float> golden_gradient(std::size_t n) {
  Xoshiro256 rng(0x901d);
  std::vector<float> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = (i % 97 == 0) ? 8.0 : 0.01;
    g[i] = static_cast<float>(rng.gaussian() * scale);
    if (i % 251 == 0) g[i] = 0.0f;
    if (i % 509 == 0) g[i] = -0.0f;
  }
  return g;
}

/// The five delivery patterns, each a packet list handed to the decoder.
std::vector<std::vector<GradientPacket>> deliveries(
    const std::vector<GradientPacket>& sent, std::size_t total,
    std::size_t row_len) {
  std::vector<std::vector<GradientPacket>> out(5);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const GradientPacket& p = sent[i];
    out[0].push_back(p);
    // Congestion: every 7th dropped, every 3rd of the rest trimmed.
    if (i % 7 != 6) out[1].push_back(i % 3 == 2 ? p.trimmed_copy() : p);
    // A trimmed duplicate arriving after, then before, its full packet.
    out[2].push_back(p);
    if (i % 5 == 0) out[2].push_back(p.trimmed_copy());
    if (i % 5 == 0) out[3].push_back(p.trimmed_copy());
    out[3].push_back(p);
    out[4].push_back(p);
  }
  // Packets whose coord_base lies outside their row_id's row (or straddles
  // the end of the row or message): stray copies after the full set.
  if (!sent.empty()) {
    GradientPacket next_row = sent[sent.size() / 2];
    next_row.row_id += 1;
    out[4].push_back(next_row);
    GradientPacket straddle = sent.front().trimmed_copy();
    straddle.coord_base += static_cast<std::uint32_t>(
        std::min(row_len, total) - std::min<std::size_t>(100, total));
    out[4].push_back(straddle);
    GradientPacket past_end = sent.back();
    past_end.coord_base =
        static_cast<std::uint32_t>(total - std::min<std::size_t>(100, total));
    out[4].push_back(past_end);
  }
  return out;
}

struct GoldenCase {
  const char* codec;
  std::size_t coords;
  std::size_t row_len;
  unsigned q_bits;
};

std::string case_name(const GoldenCase& c) {
  return std::string(c.codec) + "_n" + std::to_string(c.coords) + "_row" +
         std::to_string(c.row_len) + "_q" + std::to_string(c.q_bits);
}

// GoogleTest prints a parameter into every case's listed name; without this
// it dumps the struct's bytes, starting with the registry pointer `codec`.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << case_name(c); }

struct Hashes {
  std::uint64_t wire;    ///< packets + metadata
  std::uint64_t decode;  ///< floats + stats of all five deliveries
};

Hashes run_case(const GoldenCase& c) {
  CodecConfig cfg;
  cfg.scheme = CodecRegistry::global().at(c.codec).scheme;
  cfg.layout.q_bits = c.q_bits;
  cfg.rht_row_len = c.row_len;
  const std::vector<float> grad = golden_gradient(c.coords);
  TrimmableEncoder enc(cfg);
  const EncodedMessage msg = enc.encode(grad, /*msg_id=*/7, /*epoch=*/3);
  Fnv1a wire;
  hash_packets(wire, msg.packets);
  hash_meta(wire, msg.meta);
  Fnv1a decoded;
  TrimmableDecoder dec(cfg);
  for (const auto& d : deliveries(msg.packets, c.coords, c.row_len))
    hash_decode(decoded, dec.decode(d, msg.meta));
  return {wire.value(), decoded.value()};
}

struct Golden {
  const char* name;
  std::uint64_t wire;
  std::uint64_t decode;
};

// Taken from the codecs as they stood before the fused RHT rewrite. The
// baseline decode hashes were retaken when its stats began counting a
// coordinate once however many copies arrive (the fifth delivery's stray
// packets repeat coordinates already delivered).
constexpr Golden kGolden[] = {
    {"baseline_n49866_row1024_q31", 0x96e9b893865394a2ull,
     0xb8f9eff12c913653ull},
    {"baseline_n100000_row4096_q31", 0x6d6cc2fcf63faaacull,
     0x7571a76c23dd8d85ull},
    {"baseline_n32768_row32768_q31", 0x9adb6f79b42d72deull,
     0x3dafa59bbf595df9ull},
    {"lowrank_n49866_row1024_q31", 0x30b089c48f830560ull,
     0xd63cc88a1505434aull},
    {"lowrank_n100000_row4096_q31", 0xc83357bb268c7864ull,
     0x828b0938164e78f1ull},
    {"lowrank_n32768_row32768_q31", 0x772e7876015dd644ull,
     0x5ebe24fd1ac6ef58ull},
    {"rht_n49866_row1024_q31", 0x24ec847689d9cbdcull, 0x3128c345891c9a5full},
    {"rht_n49866_row1024_q16", 0x11a71bf0a94d0a86ull, 0x6a285213c464e4ecull},
    {"rht_n49866_row1024_q8", 0x32fb8b4fa9898b93ull, 0x286876cac5bdfc9bull},
    {"rht_n100000_row4096_q31", 0xda4e942049f78429ull, 0xbabe6adc5369146aull},
    {"rht_n100000_row4096_q16", 0x1727ae8231fa395cull, 0x13f1181f3ed2dff6ull},
    {"rht_n100000_row4096_q8", 0x57db5c0a45c6b32eull, 0xa1f5011addf387a5ull},
    {"rht_n32768_row32768_q31", 0x38ef1f4fa288a298ull, 0xf86fee3449c40451ull},
    {"rht_n32768_row32768_q16", 0xd96c87386aa8022bull, 0x1c57f9cb2a5b01fdull},
    {"rht_n32768_row32768_q8", 0x8501c0a1736897dfull, 0xb7f5c1e7ea33c5baull},
    {"sd_n49866_row1024_q31", 0x7d767d5d2d4fee47ull, 0xe87c24b30cb7721dull},
    {"sd_n49866_row1024_q16", 0x76ff64c175d03078ull, 0x8791f60736a3d33cull},
    {"sd_n49866_row1024_q8", 0x37976af7d65cb5aull, 0x370dc6055f2c4393ull},
    {"sd_n100000_row4096_q31", 0x212a185c82342ed0ull, 0x8ee984f2b5b38193ull},
    {"sd_n100000_row4096_q16", 0x2ece4fcb1b89b4b7ull, 0x5e80f35a59cf5037ull},
    {"sd_n100000_row4096_q8", 0xf223c48befa2ee0full, 0x5dde44dc6677c4b6ull},
    {"sd_n32768_row32768_q31", 0x4718c6e7ba7c4d7ull, 0x63bbe801f7335b16ull},
    {"sd_n32768_row32768_q16", 0xdc168b06e774ddddull, 0x9ee0e8b6069819abull},
    {"sd_n32768_row32768_q8", 0xb9a9fee72aacccadull, 0x82822c4941b83f69ull},
    {"sign_n49866_row1024_q31", 0x3f5f326e34507101ull, 0x476b91baaf05b2bdull},
    {"sign_n49866_row1024_q16", 0x3007e2ca5ea0115dull, 0x6332daa98905f6f9ull},
    {"sign_n49866_row1024_q8", 0x4cf215ab6f5cd338ull, 0x87bdf5ba77907a50ull},
    {"sign_n100000_row4096_q31", 0xcdd4917ba7feebd9ull, 0xe1df45b5160cd1edull},
    {"sign_n100000_row4096_q16", 0x47a965cfc417db7aull, 0xfafa5a51af02fc49ull},
    {"sign_n100000_row4096_q8", 0x30fac5bece24651full, 0xe71cdba60ae03805ull},
    {"sign_n32768_row32768_q31", 0x64567997c661537cull, 0xd56f91602cc2470cull},
    {"sign_n32768_row32768_q16", 0xb7e48ef412ee0e69ull, 0x4e300d62b82b464cull},
    {"sign_n32768_row32768_q8", 0x480834517be36c76ull, 0x95bd72fbfe258e5full},
    {"sq_n49866_row1024_q31", 0xd0b199b70251b037ull, 0x3fd200b2b8f9cfe5ull},
    {"sq_n49866_row1024_q16", 0x528278817db9a08dull, 0x7f3af6e469af059dull},
    {"sq_n49866_row1024_q8", 0xc331d8aadc475582ull, 0xf4e3a0814968263cull},
    {"sq_n100000_row4096_q31", 0xcfd10bc767e5ffbbull, 0x1e9bb9664a3098a1ull},
    {"sq_n100000_row4096_q16", 0x175f7b4ba83d416bull, 0x71c244c7259e3769ull},
    {"sq_n100000_row4096_q8", 0x2722a622da8daff4ull, 0xd4e1f926aa6c3c05ull},
    {"sq_n32768_row32768_q31", 0x3b4e416868fbdc91ull, 0x713aaf44dc0f3fd5ull},
    {"sq_n32768_row32768_q16", 0xe886a8e386051fe7ull, 0x773b9ae64e4c13ccull},
    {"sq_n32768_row32768_q8", 0xe1bb2e8cd9ee4e8eull, 0x9c65d8ecf70c0fffull},
};

std::vector<GoldenCase> all_cases() {
  struct Shape {
    std::size_t coords, row_len;
  };
  const Shape shapes[] = {
      {49866, 1024},
      {100000, 4096},
      {std::size_t{1} << 15, std::size_t{1} << 15}};
  std::vector<GoldenCase> out;
  for (const std::string& name : CodecRegistry::global().names()) {
    const bool takes_q =
        name == "sign" || name == "sq" || name == "sd" || name == "rht";
    for (const Shape& s : shapes) {
      for (const unsigned q : {31u, 16u, 8u}) {
        if (q != 31 && !takes_q) continue;
        out.push_back({CodecRegistry::global().at(name).name.c_str(),
                       s.coords, s.row_len, q});
      }
    }
  }
  return out;
}

class CodecGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(CodecGolden, BitsMatchFrozenHashes) {
  const GoldenCase& c = GetParam();
  const std::string name = case_name(c);
  const Golden* want = nullptr;
  for (const Golden& g : kGolden)
    if (name == g.name) want = &g;

  const simd::Isa saved = simd::active_isa();
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::set_isa(simd::compiled_isa()) != simd::Isa::kScalar)
    isas.push_back(simd::active_isa());
  for (const simd::Isa isa : isas) {
    for (const std::size_t threads : {1, 4}) {
      simd::set_isa(isa);
      ThreadPool::set_global_threads(threads);
      const Hashes got = run_case(c);
      if (want == nullptr) {
        ADD_FAILURE() << "no frozen hashes; add {\"" << name << "\", 0x"
                      << std::hex << got.wire << "ull, 0x" << got.decode
                      << "ull},";
        break;
      }
      EXPECT_EQ(got.wire, want->wire)
          << "wire/meta bits moved on " << simd::to_string(isa) << " x "
          << threads << " threads";
      EXPECT_EQ(got.decode, want->decode)
          << "decoded floats/stats moved on " << simd::to_string(isa)
          << " x " << threads << " threads";
    }
    if (want == nullptr) break;
  }
  simd::set_isa(saved);
  ThreadPool::set_global_threads(1);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CodecGolden, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return case_name(info.param);
    });

TEST(CodecGolden, EveryFrozenHashHasACase) {
  // A retired codec or shape must take its constants with it, so the table
  // only ever freezes bits that some case still checks.
  std::set<std::string> cases;
  for (const GoldenCase& c : all_cases()) cases.insert(case_name(c));
  for (const Golden& g : kGolden)
    EXPECT_EQ(cases.count(g.name), 1u) << g.name << " has no case";
}

}  // namespace
}  // namespace trimgrad::core
