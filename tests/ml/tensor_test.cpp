// Bit-exactness of the three GEMMs (ml/tensor.h) on every ISA the binary
// and CPU can run, at pool sizes 1 and 4. Each GEMM is compared with
// memcmp against a naive triple loop that performs the documented
// per-element sequence of roundings, on inputs laced with 0, -0, NaN, ±Inf
// and subnormals: the zero-skip and the -0/NaN handling are part of the
// contract, not an implementation detail.
#include "ml/tensor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/prng.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "ml/model.h"

namespace trimgrad::ml {
namespace {

using core::simd::Isa;

/// Restores the process-wide ISA and pool size on scope exit.
class DispatchGuard {
 public:
  DispatchGuard()
      : isa_(core::simd::active_isa()),
        threads_(core::ThreadPool::global().thread_count()) {}
  ~DispatchGuard() {
    core::simd::set_isa(isa_);
    core::ThreadPool::set_global_threads(threads_);
  }

 private:
  Isa isa_;
  std::size_t threads_;
};

std::vector<Isa> runnable_isas() {
  DispatchGuard guard;
  std::vector<Isa> isas = {Isa::kScalar};
  const Isa best = core::simd::set_isa(core::simd::compiled_isa());
  if (best != Isa::kScalar) isas.push_back(best);
  return isas;
}

/// Every NaN here carries the bits x86 arithmetic generates (the "default"
/// quiet NaN), so an input NaN and a NaN made by Inf - Inf or 0 * Inf are
/// indistinguishable. Which of two *different* NaN payloads an addition
/// returns depends on operand order, which the compiler may swap in the
/// scalar reference; that is outside the bit-identity contract.
const float kNaN = std::bit_cast<float>(0xffc00000u);

/// Gaussian values with specials mixed in at a few percent each.
std::vector<float> special_values(std::size_t n, std::uint64_t seed) {
  core::Xoshiro256 rng(seed);
  const float specials[] = {0.0f,
                            -0.0f,
                            kNaN,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -3.5e-39f,
                            1.0e-38f};
  std::vector<float> v(n);
  for (auto& x : v) {
    const std::uint64_t roll = rng.below(100);
    x = roll < 16 ? specials[roll % 8] : static_cast<float>(rng.gaussian());
  }
  return v;
}

// ---- naive references: one element at a time, ascending k ---------------

void ref_accumulate(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = a[i * k + kk];
        if (av != 0.0f) c[i * n + j] += av * b[kk * n + j];
      }
}

void ref_at_b(const float* a, const float* b, float* c, std::size_t k,
              std::size_t m, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = a[kk * m + i];
        if (av != 0.0f) c[i * n + j] += av * b[kk * n + j];
      }
}

void ref_a_bt(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) sum += a[i * k + kk] * b[j * k + kk];
      c[i * n + j] += sum;
    }
}

struct Shape {
  std::size_t m, k, n;
};

/// Edge shapes around the 8- and 16-wide vector blocks and the 4-row tiles,
/// then the shapes training runs: mini-VGG width 6 on 16×16 (conv layers as
/// {cout, ck, hw}, the FC head at batch 15) and the 64-wide MLP at batch 8.
/// The largest ones split into several parallel chunks at 4 threads.
std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (const std::size_t n : {1, 7, 8, 9, 31, 33, 256}) {
    for (const std::size_t m : {1, 3, 6, 9, 17}) out.push_back({m, 13, n});
  }
  // k = 0: every C element gets one +0 from gemm_a_bt (so -0 turns into
  // +0) and nothing from the other two.
  out.push_back({4, 0, 9});
  out.push_back({17, 0, 9});
  out.push_back({1, 1, 1});
  out.push_back({25, 40, 1});
  for (const Shape conv : {Shape{6, 27, 256}, Shape{6, 54, 256},
                           Shape{12, 54, 64}, Shape{12, 108, 64},
                           Shape{24, 108, 16}}) {
    out.push_back(conv);
  }
  for (const Shape fc : {Shape{15, 96, 48}, Shape{15, 48, 20}, Shape{8, 768, 64},
                         Shape{8, 64, 32}, Shape{8, 32, 10}}) {
    out.push_back(fc);
  }
  out.push_back({64, 128, 256});
  out.push_back({37, 300, 129});
  return out;
}

enum class Kind { kAccumulate, kAtB, kABt };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kAccumulate: return "gemm_accumulate";
    case Kind::kAtB: return "gemm_at_b";
    case Kind::kABt: return "gemm_a_bt";
  }
  return "?";
}

/// Runs one GEMM kind over every shape × ISA × pool size; a shape is
/// {m, k, n} of C(m×n) with reduction length k.
void check_against_reference(Kind kind) {
  DispatchGuard guard;
  const auto isas = runnable_isas();
  std::uint64_t seed = 100;
  for (const Shape s : shapes()) {
    const auto a = special_values(s.m * s.k, ++seed);
    const auto b = special_values(s.k * s.n, ++seed);
    const auto c0 = special_values(s.m * s.n, ++seed);
    auto want = c0;
    switch (kind) {
      case Kind::kAccumulate:
        ref_accumulate(a.data(), b.data(), want.data(), s.m, s.k, s.n);
        break;
      case Kind::kAtB:  // A is stored k×m
        ref_at_b(a.data(), b.data(), want.data(), s.k, s.m, s.n);
        break;
      case Kind::kABt:  // B is stored n×k
        ref_a_bt(a.data(), b.data(), want.data(), s.m, s.k, s.n);
        break;
    }
    for (const Isa isa : isas) {
      core::simd::set_isa(isa);
      for (const std::size_t threads : {1, 4}) {
        core::ThreadPool::set_global_threads(threads);
        auto got = c0;
        switch (kind) {
          case Kind::kAccumulate:
            gemm_accumulate(a.data(), b.data(), got.data(), s.m, s.k, s.n);
            break;
          case Kind::kAtB:
            gemm_at_b(a.data(), b.data(), got.data(), s.k, s.m, s.n);
            break;
          case Kind::kABt:
            gemm_a_bt(a.data(), b.data(), got.data(), s.m, s.k, s.n);
            break;
        }
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(float)))
            << kind_name(kind) << " m=" << s.m << " k=" << s.k << " n=" << s.n
            << " isa=" << core::simd::to_string(isa)
            << " threads=" << threads << ": differs from the reference";
      }
    }
  }
}

TEST(GemmKernels, AccumulateMatchesNaiveReferenceBitwise) {
  check_against_reference(Kind::kAccumulate);
}

TEST(GemmKernels, AtBMatchesNaiveReferenceBitwise) {
  check_against_reference(Kind::kAtB);
}

TEST(GemmKernels, ABtMatchesNaiveReferenceBitwise) {
  check_against_reference(Kind::kABt);
}

TEST(GemmKernels, ZeroTermsAreSkippedOnEveryIsa) {
  // A single 0 · NaN term: gemm_accumulate and gemm_at_b skip it, so a -0
  // in C survives; gemm_a_bt has no skip — its sum is NaN.
  DispatchGuard guard;
  for (const Isa isa : runnable_isas()) {
    core::simd::set_isa(isa);
    for (const std::size_t n : {1, 8, 16}) {
      const std::vector<float> a = {0.0f};
      const std::vector<float> b(n, kNaN);
      std::vector<float> c(n, -0.0f);
      gemm_accumulate(a.data(), b.data(), c.data(), 1, 1, n);
      for (const float x : c) EXPECT_TRUE(std::signbit(x) && x == 0.0f);
      gemm_at_b(a.data(), b.data(), c.data(), 1, 1, n);
      for (const float x : c) EXPECT_TRUE(std::signbit(x) && x == 0.0f);
      gemm_a_bt(a.data(), b.data(), c.data(), 1, 1, n);
      EXPECT_TRUE(std::isnan(c[0])) << core::simd::to_string(isa);
    }
  }
}

TEST(GemmKernels, ABtAddsEachSumToCOnce) {
  // C = -0 and every product is -0: the sum starts at +0, so it stays +0,
  // and -0 + +0 = +0. Accumulating the products into C directly would have
  // kept -0.
  DispatchGuard guard;
  for (const Isa isa : runnable_isas()) {
    core::simd::set_isa(isa);
    const std::size_t m = 9, k = 5, n = 3;
    const std::vector<float> a(m * k, -1.0f);
    const std::vector<float> b(n * k, 0.0f);
    std::vector<float> c(m * n, -0.0f);
    gemm_a_bt(a.data(), b.data(), c.data(), m, k, n);
    for (const float x : c) {
      EXPECT_EQ(0.0f, x);
      EXPECT_FALSE(std::signbit(x)) << core::simd::to_string(isa);
    }
  }
}

// ---- layer level ---------------------------------------------------------

struct PassBytes {
  std::vector<float> out, dx, grads;
};

/// One forward/backward of mini-VGG (the Fig. 3 model) on a 16×16 batch
/// whose inputs include exact zeros and negative zeros.
PassBytes mini_vgg_pass() {
  ModelConfig cfg;
  cfg.classes = 20;
  cfg.height = cfg.width = 16;
  auto net = make_mini_vgg(cfg, 6);
  Tensor x({5, 3, 16, 16});
  core::Xoshiro256 rng(77);
  for (auto& v : x.data) {
    const std::uint64_t roll = rng.below(20);
    v = roll == 0 ? 0.0f : roll == 1 ? -0.0f : static_cast<float>(rng.gaussian());
  }
  PassBytes res;
  const Tensor y = net->forward(x);
  res.out = y.data;
  Tensor probe(y.shape);
  for (std::size_t i = 0; i < probe.size(); ++i)
    probe.data[i] = static_cast<float>(rng.gaussian());
  net->zero_grads();
  res.dx = net->backward(probe).data;
  res.grads = net->flat_grads();
  return res;
}

TEST(GemmLayers, MiniVggPassIsByteIdenticalAcrossIsasAndPools) {
  DispatchGuard guard;
  core::simd::set_isa(Isa::kScalar);
  core::ThreadPool::set_global_threads(1);
  const PassBytes ref = mini_vgg_pass();
  for (const Isa isa : runnable_isas()) {
    core::simd::set_isa(isa);
    for (const std::size_t threads : {1, 4}) {
      core::ThreadPool::set_global_threads(threads);
      const PassBytes got = mini_vgg_pass();
      const std::string where = std::string(core::simd::to_string(isa)) +
                                " threads=" + std::to_string(threads);
      ASSERT_EQ(ref.out.size(), got.out.size());
      ASSERT_EQ(ref.dx.size(), got.dx.size());
      ASSERT_EQ(ref.grads.size(), got.grads.size());
      EXPECT_EQ(0, std::memcmp(ref.out.data(), got.out.data(),
                               ref.out.size() * sizeof(float)))
          << "forward output, " << where;
      EXPECT_EQ(0, std::memcmp(ref.dx.data(), got.dx.data(),
                               ref.dx.size() * sizeof(float)))
          << "input gradient, " << where;
      EXPECT_EQ(0, std::memcmp(ref.grads.data(), got.grads.data(),
                               ref.grads.size() * sizeof(float)))
          << "flat gradients, " << where;
    }
  }
}

}  // namespace
}  // namespace trimgrad::ml
