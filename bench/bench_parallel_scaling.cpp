// Parallel-scaling microbench for the threaded hot paths (see the DESIGN.md
// threading model): row-parallel RHT encode+decode, the blocked GEMM
// kernels, and one DDP trainer round, each timed at pool sizes 1/2/4/8
// against the single-thread baseline. Per-kernel sections (fwht, quantize,
// bitpack, crc32c) time the single-thread SIMD primitives those paths are
// built from — flat across thread counts by construction, but sensitive to
// the active ISA (reported in the JSON as "isa").
//
// Emits a human-readable table on stdout and machine-readable
// BENCH_parallel.json in the working directory. Also cross-checks that the
// decoded gradients hash identically at every thread count — the
// determinism contract the unit tests enforce, re-verified here at bench
// scale. Speedups saturate at the machine's core count (reported in the
// JSON as hardware_threads); on a single-core container the curves are
// flat by construction.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "collective/inject_channel.h"
#include "core/bitpack.h"
#include "core/codec.h"
#include "core/hadamard.h"
#include "core/prng.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "core/wire.h"
#include "ddp/trainer.h"
#include "ml/data.h"
#include "ml/model.h"
#include "ml/tensor.h"

namespace {

using Clock = std::chrono::steady_clock;
using trimgrad::core::ThreadPool;

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s < best) best = s;
  }
  return best;
}

std::uint64_t fnv(std::uint64_t h, const float* p, std::size_t n) {
  // FNV-style mix over 8-byte blocks. The determinism cross-check only
  // needs equality within one run, and the hash sits inside the timed
  // sections — the byte-at-a-time dependent-multiply chain was costing more
  // than some of the kernels being measured.
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  const std::size_t bytes = n * sizeof(float);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b + i, 8);
    h = (h ^ w) * 1099511628211ULL;
  }
  for (; i < bytes; ++i) {
    h = (h ^ b[i]) * 1099511628211ULL;
  }
  return h;
}

struct Section {
  const char* name;
  std::vector<double> seconds;   // one per thread count
  std::vector<std::uint64_t> hashes;
  std::uint64_t items = 0;       // work units per rep, for throughput
};

}  // namespace

int main() {
  using namespace trimgrad;

  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};

  // TRIMGRAD_SMOKE shrinks every workload for CI smoke runs. The JSON
  // carries per-section item counts, so throughput (items/s) stays
  // comparable against a full-size baseline.
  const bool smoke = std::getenv("TRIMGRAD_SMOKE") != nullptr;

  // --- Workloads -----------------------------------------------------------
  // Codec: a 4M-coordinate gradient (16 MB) in the paper's 2^15-entry rows
  // (smoke: 512K coordinates).
  core::Xoshiro256 rng(7);
  std::vector<float> grad(std::size_t{1} << (smoke ? 19 : 22));
  for (auto& x : grad) x = rng.uniform(-1.0f, 1.0f);
  core::CodecConfig ccfg;
  ccfg.scheme = core::Scheme::kRHT;

  // GEMM: C(512x768) += A(512x640)·B(640x768), ~250 MFLOP per call.
  const std::size_t M = smoke ? 128 : 512, K = smoke ? 160 : 640,
                    N = smoke ? 192 : 768;
  std::vector<float> ga(M * K), gb(K * N), gc(M * N);
  for (auto& x : ga) x = rng.uniform(-1.0f, 1.0f);
  for (auto& x : gb) x = rng.uniform(-1.0f, 1.0f);

  // Trainer: one epoch of a small MLP DDP run over a clean channel.
  ml::SynthCifarConfig dcfg;
  dcfg.classes = 10;
  dcfg.height = dcfg.width = 16;
  // Smoke keeps the full global batch (below) so per-round fixed overhead
  // doesn't skew items/s; only the number of rounds shrinks.
  dcfg.train_per_class = smoke ? 12 : 24;
  dcfg.test_per_class = 4;
  ml::SynthCifar data(dcfg);
  ddp::TrainerConfig tcfg;
  tcfg.world = 4;
  tcfg.global_batch = 48;
  tcfg.epochs = 1;
  tcfg.eval_every = 0;
  tcfg.codec.scheme = core::Scheme::kRHT;
  tcfg.codec.rht_row_len = std::size_t{1} << 12;

  Section s_codec{"rht_encode_decode", {}, {}, grad.size()};
  Section s_gemm{"gemm", {}, {}, static_cast<std::uint64_t>(M) * K * N};
  Section s_trainer{"trainer_round", {}, {},
                    static_cast<std::uint64_t>(dcfg.classes) *
                        dcfg.train_per_class};

  // Per-kernel sections: single-thread SIMD primitives, items = floats (or
  // bytes for crc32c) per rep. Scratch shared across reps; each rep
  // reinitializes from grad so the work is identical.
  Section s_fwht{"fwht", {}, {}, grad.size()};
  Section s_quant{"quantize", {}, {}, grad.size()};
  Section s_bitpack{"bitpack", {}, {}, grad.size()};
  Section s_crc{"crc32c", {}, {}, grad.size() * sizeof(float)};
  const std::size_t kRow = std::size_t{1} << 12;
  std::vector<float> k_scratch(grad.size());
  std::vector<std::uint8_t> k_heads(grad.size());
  std::vector<std::uint32_t> k_tails(grad.size());
  std::vector<std::uint8_t> k_heads2(grad.size());
  std::vector<std::uint32_t> k_tails2(grad.size());
  const std::vector<std::uint8_t> k_trim(grad.size(), 0);

  const int reps = smoke ? 2 : 3;
  const int trainer_reps = smoke ? 1 : 2;
  for (const std::size_t t : thread_counts) {
    ThreadPool::set_global_threads(t);

    // RHT encode + decode round trip. Every rep produces the identical
    // output (that is the determinism contract under test), so the
    // cross-thread-count hash is taken once after timing rather than
    // spending hash time inside the measured region.
    core::TrimmableEncoder enc(ccfg);
    core::TrimmableDecoder dec(ccfg);
    core::DecodeResult codec_out;
    s_codec.seconds.push_back(time_best_of(reps, [&] {
      auto msg = enc.encode(grad, 1, 1);
      codec_out = dec.decode(msg.packets, msg.meta);
    }));
    s_codec.hashes.push_back(fnv(1469598103934665603ULL,
                                 codec_out.values.data(),
                                 codec_out.values.size()));

    // GEMM (forward-shaped kernel).
    s_gemm.seconds.push_back(time_best_of(reps, [&] {
      std::fill(gc.begin(), gc.end(), 0.0f);
      ml::gemm_accumulate(ga.data(), gb.data(), gc.data(), M, K, N);
    }));
    s_gemm.hashes.push_back(
        fnv(1469598103934665603ULL, gc.data(), gc.size()));

    // One DDP epoch (fresh trainer each rep so state is identical).
    std::uint64_t tr_hash = 1469598103934665603ULL;
    s_trainer.seconds.push_back(time_best_of(trainer_reps, [&] {
      collective::InjectChannel::Config chcfg;
      chcfg.world = tcfg.world;
      collective::InjectChannel channel(chcfg);
      ddp::DdpTrainer trainer(data, channel, tcfg, [&dcfg] {
        ml::ModelConfig mcfg;
        mcfg.classes = dcfg.classes;
        mcfg.height = dcfg.height;
        mcfg.width = dcfg.width;
        return ml::make_mlp(mcfg, 128);
      });
      const auto rec = trainer.run_epoch(0);
      const auto params = trainer.replica(0).flat_params();
      tr_hash = fnv(tr_hash, params.data(), params.size());
      const float loss = static_cast<float>(rec.train_loss);
      tr_hash = fnv(tr_hash, &loss, 1);
    }));
    s_trainer.hashes.push_back(tr_hash);

    // FWHT: orthonormal transform over 4K-float rows (the paper's codec
    // row shape), fresh data per rep.
    s_fwht.seconds.push_back(time_best_of(reps, [&] {
      std::copy(grad.begin(), grad.end(), k_scratch.begin());
      for (std::size_t at = 0; at + kRow <= k_scratch.size(); at += kRow) {
        core::fwht_orthonormal_inplace(
            std::span<float>(k_scratch.data() + at, kRow));
      }
    }));
    s_fwht.hashes.push_back(
        fnv(1469598103934665603ULL, k_scratch.data(), k_scratch.size()));

    // Quantize: sign/magnitude split + join round trip over the gradient.
    s_quant.seconds.push_back(time_best_of(reps, [&] {
      core::simd::split_sign_mag(grad.data(), grad.size(), k_heads.data(),
                                 k_tails.data());
      core::simd::join_sign_mag(k_heads.data(), k_tails.data(), k_trim.data(),
                                1.0f, k_scratch.data(), grad.size());
    }));
    s_quant.hashes.push_back(
        fnv(1469598103934665603ULL, k_scratch.data(), k_scratch.size()));

    // Bitpack: bulk head-bit + 31-bit tail writes, then bulk reads back.
    s_bitpack.seconds.push_back(time_best_of(reps, [&] {
      core::BitWriter hw, tw;
      hw.put_bits8(k_heads.data(), k_heads.size());
      tw.put_run(k_tails.data(), k_tails.size(), 31);
      const auto hb = std::move(hw).finish();
      const auto tb = std::move(tw).finish();
      core::BitReader hr(hb), tr(tb);
      hr.get_bits8(k_heads2.data(), k_heads2.size());
      tr.get_run(k_tails2.data(), k_tails2.size(), 31);
    }));
    s_bitpack.hashes.push_back(
        fnv(1469598103934665603ULL,
            reinterpret_cast<const float*>(k_tails2.data()),
            k_tails2.size()));

    // CRC32C over the whole gradient buffer (wire checksum path).
    std::uint32_t crc_out = 0;
    s_crc.seconds.push_back(time_best_of(reps, [&] {
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(grad.data());
      crc_out = core::crc32c(
          std::span<const std::uint8_t>(bytes, grad.size() * sizeof(float)));
    }));
    const float crc_f = static_cast<float>(crc_out);
    s_crc.hashes.push_back(fnv(1469598103934665603ULL, &crc_f, 1));
  }
  ThreadPool::set_global_threads(1);

  const std::vector<Section*> sections = {&s_codec, &s_gemm,    &s_trainer,
                                          &s_fwht,  &s_quant,   &s_bitpack,
                                          &s_crc};
  bool deterministic = true;
  std::printf("# Parallel scaling (best-of-N wall time; speedup vs 1 thread)\n");
  std::printf("# hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  std::printf("# simd isa: %s\n",
              core::simd::to_string(core::simd::active_isa()));
  std::printf("%-20s", "section");
  for (std::size_t t : thread_counts) std::printf(" %7zuT %7s", t, "spdup");
  std::printf("\n");
  for (const Section* s : sections) {
    std::printf("%-20s", s->name);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      std::printf(" %7.4f %6.2fx", s->seconds[i],
                  s->seconds[0] / s->seconds[i]);
    }
    std::printf("\n");
    for (std::uint64_t h : s->hashes) {
      if (h != s->hashes[0]) deterministic = false;
    }
  }
  std::printf("# bit-exact across thread counts: %s\n",
              deterministic ? "yes" : "NO — DETERMINISM VIOLATION");

  FILE* f = std::fopen("BENCH_parallel.json", "w");
  if (f) {
    std::fprintf(f,
                 "{\n  \"hardware_threads\": %u,\n  \"isa\": \"%s\",\n"
                 "  \"deterministic\": %s,\n  \"smoke\": %s,\n",
                 std::thread::hardware_concurrency(),
                 core::simd::to_string(core::simd::active_isa()),
                 deterministic ? "true" : "false", smoke ? "true" : "false");
    std::fprintf(f, "  \"thread_counts\": [");
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      std::fprintf(f, "%s%zu", i ? ", " : "", thread_counts[i]);
    }
    std::fprintf(f, "],\n  \"sections\": {\n");
    for (std::size_t si = 0; si < sections.size(); ++si) {
      const Section* s = sections[si];
      std::fprintf(f, "    \"%s\": {\"seconds\": [", s->name);
      for (std::size_t i = 0; i < s->seconds.size(); ++i) {
        std::fprintf(f, "%s%.6f", i ? ", " : "", s->seconds[i]);
      }
      std::fprintf(f, "], \"speedup\": [");
      for (std::size_t i = 0; i < s->seconds.size(); ++i) {
        std::fprintf(f, "%s%.3f", i ? ", " : "",
                     s->seconds[0] / s->seconds[i]);
      }
      std::fprintf(f, "], \"items\": %llu, \"throughput\": %.1f}%s\n",
                   static_cast<unsigned long long>(s->items),
                   static_cast<double>(s->items) / s->seconds[0],
                   si + 1 < sections.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("# wrote BENCH_parallel.json\n");
  }
  return deterministic ? 0 : 1;
}
