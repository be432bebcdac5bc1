// Experiment X3 (DESIGN.md): microbenchmarks of the codec hot paths
// (google-benchmark). These quantify the "low computational overhead" claim
// at the primitive level: FWHT throughput, per-scheme encode/decode rates,
// bit packing — plus the training-side GEMM kernels that share the SIMD
// dispatch layer (TRIMGRAD_SIMD=scalar times the scalar reference).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/bitpack.h"
#include "core/codec.h"
#include "core/hadamard.h"
#include "core/metrics.h"
#include "core/metrics_export.h"
#include "core/quantizer.h"
#include "core/rht_codec.h"
#include "core/simd.h"
#include "core/trace.h"
#include "ml/tensor.h"

using namespace trimgrad::core;

namespace {

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

void BM_Fwht(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto v = gaussian_vec(n, 1);
  for (auto _ : state) {
    fwht_orthonormal_inplace(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fwht)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 17);

// The three GEMMs at the mini-VGG conv shapes (width 6 on 16×16 inputs),
// one sample's worth each: Args are {cout, ck = cin*9, hw}. Items are
// multiply-adds, so items/s reads as MAC/s.
//   GemmAccumulate: forward,  out(cout×hw)   += W · cols
//   GemmAtB:        backward, dcols(ck×hw)   += Wᵀ · gout
//   GemmABt:        backward, dW(cout×ck)    += gout · colsᵀ
enum class GemmKind { kAccumulate, kAtB, kABt };

template <GemmKind kKind>
void BM_Gemm(benchmark::State& state) {
  const auto cout = static_cast<std::size_t>(state.range(0));
  const auto ck = static_cast<std::size_t>(state.range(1));
  const auto hw = static_cast<std::size_t>(state.range(2));
  const auto w = gaussian_vec(cout * ck, 11);
  const auto cols = gaussian_vec(ck * hw, 12);
  const auto gout = gaussian_vec(cout * hw, 13);
  const std::size_t c_size = kKind == GemmKind::kAccumulate ? cout * hw
                             : kKind == GemmKind::kAtB      ? ck * hw
                                                            : cout * ck;
  std::vector<float> c(c_size);
  for (auto _ : state) {
    if constexpr (kKind == GemmKind::kAccumulate) {
      trimgrad::ml::gemm_accumulate(w.data(), cols.data(), c.data(), cout, ck, hw);
    } else if constexpr (kKind == GemmKind::kAtB) {
      trimgrad::ml::gemm_at_b(w.data(), gout.data(), c.data(), cout, ck, hw);
    } else {
      trimgrad::ml::gemm_a_bt(gout.data(), cols.data(), c.data(), cout, hw, ck);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(simd::to_string(simd::active_isa()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cout * ck * hw));
}

void mini_vgg_conv_shapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"cout", "ck", "hw"});
  b->Args({6, 27, 256});
  b->Args({6, 54, 256});
  b->Args({12, 54, 64});
  b->Args({12, 108, 64});
  b->Args({24, 108, 16});
}
BENCHMARK_TEMPLATE(BM_Gemm, GemmKind::kAccumulate)
    ->Name("BM_GemmAccumulate")
    ->Apply(mini_vgg_conv_shapes);
BENCHMARK_TEMPLATE(BM_Gemm, GemmKind::kAtB)
    ->Name("BM_GemmAtB")
    ->Apply(mini_vgg_conv_shapes);
BENCHMARK_TEMPLATE(BM_Gemm, GemmKind::kABt)
    ->Name("BM_GemmABt")
    ->Apply(mini_vgg_conv_shapes);

void BM_RhtEncodeRow(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto v = gaussian_vec(n, 2);
  const StreamKey key{1, 2, 3, 0};
  for (auto _ : state) {
    auto enc = rht_encode_row(v, key);
    benchmark::DoNotOptimize(enc.scale_f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RhtEncodeRow)->Arg(1 << 12)->Arg(1 << 15);

// The RHT sign stream D on four 1024-entry rows (the fabric row length):
// Arg 0 runs the per-row scalar reference four times, Arg 1 the dispatched
// four-row kernel (AVX2: the four xoshiro256** streams in lockstep).
void BM_RhtSigns(benchmark::State& state) {
  const bool lockstep = state.range(0) != 0;
  const std::size_t n = 1024;
  std::vector<float> rows = gaussian_vec(4 * n, 6);
  float* p[4] = {rows.data(), rows.data() + n, rows.data() + 2 * n,
                 rows.data() + 3 * n};
  std::uint64_t s[4][4];
  for (std::size_t r = 0; r < 4; ++r) {
    const SharedRng rng(StreamKey{1, 2, 3, r});
    std::copy(rng.state().begin(), rng.state().end(), s[r]);
  }
  for (auto _ : state) {
    if (lockstep) {
      simd::random_signs4(p, p, n, s);
    } else {
      for (std::size_t r = 0; r < 4; ++r)
        simd::random_signs(p[r], p[r], n, s[r]);
    }
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(lockstep ? simd::to_string(simd::active_isa()) : "scalar");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n));
}
BENCHMARK(BM_RhtSigns)->ArgName("lockstep")->Arg(0)->Arg(1);

void BM_ScalarEncode(benchmark::State& state) {
  const auto scheme = static_cast<ScalarScheme>(state.range(0));
  const std::size_t n = 1 << 15;
  const auto v = gaussian_vec(n, 3);
  const float scale = scalar_scale(scheme, v);
  const auto dithers =
      make_dithers(n, scale, SharedRng(StreamKey{1, 1, 1, 0}));
  Xoshiro256 rng(9);
  for (auto _ : state) {
    std::vector<std::uint8_t> heads;
    std::vector<std::uint32_t> tails;
    scalar_encode_all(scheme, v, scale, rng, dithers, heads, tails);
    benchmark::DoNotOptimize(heads.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScalarEncode)
    ->Arg(static_cast<int>(ScalarScheme::kSign))
    ->Arg(static_cast<int>(ScalarScheme::kSQ))
    ->Arg(static_cast<int>(ScalarScheme::kSD));

void BM_BitWriter31(benchmark::State& state) {
  const std::size_t n = 1 << 15;
  std::vector<std::uint32_t> vals(n, 0x2aaaaaaa);
  for (auto _ : state) {
    BitWriter w;
    for (auto v : vals) w.put(v, 31);
    auto buf = std::move(w).finish();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitWriter31);

// Whole-message encode. Args {scheme, coords, row}: 2^17 coordinates in
// 2^15-entry RHT rows, plus RHT at the perfbench fabric shape (49,866
// coordinates in 1024-entry rows, 49 rows with a ragged last one), where
// per-row costs no longer hide behind the rotation.
void BM_MessageEncode(benchmark::State& state) {
  const auto scheme = static_cast<Scheme>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto v = gaussian_vec(n, 4);
  CodecConfig cfg;
  cfg.scheme = scheme;
  cfg.rht_row_len = static_cast<std::size_t>(state.range(2));
  TrimmableEncoder enc(cfg);
  std::uint32_t id = 0;
  for (auto _ : state) {
    auto msg = enc.encode(v, ++id, 1);
    benchmark::DoNotOptimize(msg.packets.data());
  }
  state.SetLabel(simd::to_string(simd::active_isa()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MessageEncode)
    ->ArgNames({"scheme", "coords", "row"})
    ->Args({static_cast<int>(Scheme::kBaseline), 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kSign), 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kSQ), 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kSD), 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kRHT), 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kRHT), 49866, 1024});

// Whole-message decode. Args {scheme, trim_pct, coords, row}: trim_pct of
// the packets arrive trimmed (spread evenly over the message); 44 % is what
// fabric_trim_incast's congested fabric trims.
void BM_MessageDecode(benchmark::State& state) {
  const auto scheme = static_cast<Scheme>(state.range(0));
  const auto trim_pct = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const auto v = gaussian_vec(n, 5);
  CodecConfig cfg;
  cfg.scheme = scheme;
  cfg.rht_row_len = static_cast<std::size_t>(state.range(3));
  TrimmableEncoder enc(cfg);
  TrimmableDecoder dec(cfg);
  auto msg = enc.encode(v, 1, 1);
  for (std::size_t i = 0; i < msg.packets.size(); ++i) {
    if ((i * trim_pct) % 100 < trim_pct) msg.packets[i].trim();
  }
  for (auto _ : state) {
    auto out = dec.decode(msg.packets, msg.meta);
    benchmark::DoNotOptimize(out.values.data());
  }
  state.SetLabel(simd::to_string(simd::active_isa()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MessageDecode)
    ->ArgNames({"scheme", "trim_pct", "coords", "row"})
    ->Args({static_cast<int>(Scheme::kBaseline), 0, 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kSign), 0, 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kSign), 100, 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kSD), 44, 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kRHT), 0, 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kRHT), 100, 1 << 17, 1 << 15})
    ->Args({static_cast<int>(Scheme::kRHT), 44, 49866, 1024});

}  // namespace

int main(int argc, char** argv) {
  // Per-event tracing would dominate the hot loops being measured; the
  // registry's shard-local counters are cheap enough to leave on.
  trimgrad::core::TraceLog::global().set_enabled(false);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* path = "BENCH_micro_codec_metrics.json";
  if (trimgrad::core::write_metrics_json(
          path, trimgrad::core::MetricsRegistry::global())) {
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  return 0;
}
