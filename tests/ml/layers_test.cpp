// Layer correctness, including numerical gradient checks — the training
// substrate must backpropagate exactly or the figure reproductions measure
// noise, not trimming effects.
#include "ml/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "core/simd.h"
#include "ml/loss.h"
#include "ml/model.h"

namespace trimgrad::ml {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  core::Xoshiro256 rng(seed);
  for (auto& x : t.data) x = static_cast<float>(rng.gaussian());
  return t;
}

/// Restores the process-wide SIMD path on scope exit.
class IsaGuard {
 public:
  IsaGuard() : saved_(core::simd::active_isa()) {}
  ~IsaGuard() { core::simd::set_isa(saved_); }

 private:
  core::simd::Isa saved_;
};

/// Central-difference check of d loss / d input for an arbitrary layer
/// stack, where loss = sum(output * probe) for a fixed random probe.
void check_input_gradient(Sequential& net, Tensor x, double tol,
                          std::uint64_t seed) {
  const Tensor out0 = net.forward(x);
  Tensor probe = random_tensor(out0.shape, seed);
  net.zero_grads();
  Tensor analytic = net.backward(probe);

  core::Xoshiro256 pick(seed + 1);
  const float eps = 1e-3f;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t i = pick.below(x.size());
    Tensor xp = x;
    xp.data[i] += eps;
    Tensor xm = x;
    xm.data[i] -= eps;
    double lp = 0, lm = 0;
    const Tensor op = net.forward(xp);
    for (std::size_t j = 0; j < op.size(); ++j) lp += op.data[j] * probe.data[j];
    const Tensor om = net.forward(xm);
    for (std::size_t j = 0; j < om.size(); ++j) lm += om.data[j] * probe.data[j];
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic.data[i], numeric,
                tol * (1.0 + std::fabs(numeric)))
        << "input coordinate " << i;
  }
  // Restore caches for any later use.
  net.forward(x);
}

/// Central-difference check of d loss / d params.
void check_param_gradient(Sequential& net, Tensor x, double tol,
                          std::uint64_t seed) {
  const Tensor out0 = net.forward(x);
  Tensor probe = random_tensor(out0.shape, seed);
  net.zero_grads();
  net.backward(probe);
  const auto analytic = net.flat_grads();
  auto params = net.flat_params();

  core::Xoshiro256 pick(seed + 2);
  const float eps = 1e-3f;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t i = pick.below(params.size());
    auto perturbed = params;
    perturbed[i] += eps;
    net.set_flat_params(perturbed);
    double lp = 0;
    {
      const Tensor o = net.forward(x);
      for (std::size_t j = 0; j < o.size(); ++j) lp += o.data[j] * probe.data[j];
    }
    perturbed[i] = params[i] - eps;
    net.set_flat_params(perturbed);
    double lm = 0;
    {
      const Tensor o = net.forward(x);
      for (std::size_t j = 0; j < o.size(); ++j) lm += o.data[j] * probe.data[j];
    }
    net.set_flat_params(params);
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * (1.0 + std::fabs(numeric)))
        << "param " << i;
  }
}

TEST(Linear, ForwardMatchesManualComputation) {
  core::Xoshiro256 rng(1);
  Linear lin(2, 3, rng);
  // Overwrite with known weights: W[o][i], b[o].
  auto params = lin.params();
  *params[0].values = {1, 2, 3, 4, 5, 6};  // W = [[1,2],[3,4],[5,6]]
  *params[1].values = {0.5f, -0.5f, 0.0f};
  Tensor x({1, 2}, {10, 20});
  const Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.data[0], 1 * 10 + 2 * 20 + 0.5f);
  EXPECT_FLOAT_EQ(y.data[1], 3 * 10 + 4 * 20 - 0.5f);
  EXPECT_FLOAT_EQ(y.data[2], 5 * 10 + 6 * 20 + 0.0f);
}

TEST(Linear, GradientsPassNumericalCheck) {
  Sequential net;
  core::Xoshiro256 rng(2);
  net.emplace<Linear>(6, 4, rng);
  check_input_gradient(net, random_tensor({3, 6}, 10), 1e-2, 100);
  check_param_gradient(net, random_tensor({3, 6}, 11), 1e-2, 101);
}

TEST(ReLU, ZeroesNegativesForwardAndBackward) {
  ReLU relu;
  Tensor x({1, 4}, {-1, 2, -3, 4});
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y.data[0], 0);
  EXPECT_FLOAT_EQ(y.data[1], 2);
  Tensor g({1, 4}, {10, 10, 10, 10});
  const Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx.data[0], 0);
  EXPECT_FLOAT_EQ(dx.data[1], 10);
  EXPECT_FLOAT_EQ(dx.data[2], 0);
  EXPECT_FLOAT_EQ(dx.data[3], 10);
}

TEST(Conv2d, PreservesSpatialSize) {
  core::Xoshiro256 rng(3);
  Conv2d conv(3, 8, rng);
  const Tensor y = conv.forward(random_tensor({2, 3, 8, 8}, 12));
  EXPECT_EQ(y.shape, (std::vector<std::size_t>{2, 8, 8, 8}));
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  core::Xoshiro256 rng(4);
  Conv2d conv(1, 1, rng);
  auto params = conv.params();
  // 3x3 kernel with center 1: identity convolution.
  *params[0].values = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  *params[1].values = {0};
  Tensor x = random_tensor({1, 1, 5, 5}, 13);
  const Tensor y = conv.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_FLOAT_EQ(y.data[i], x.data[i]);
}

TEST(Conv2d, ZeroPaddingAtBorders) {
  core::Xoshiro256 rng(5);
  Conv2d conv(1, 1, rng);
  auto params = conv.params();
  // Kernel that picks the top-left neighbour.
  *params[0].values = {1, 0, 0, 0, 0, 0, 0, 0, 0};
  *params[1].values = {0};
  Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y.data[0], 0.0f);  // top-left output: neighbour off-grid
  EXPECT_FLOAT_EQ(y.data[4], 1.0f);  // center output: top-left is x[0][0]
}

/// Direct 3×3/pad-1 convolution that performs, per element, the rounding
/// sequence Conv2d documents: outputs start at the bias and add w·x in
/// ascending (channel, tap) order, skipping zero weights; dW and db sum each
/// sample from +0 over pixels, then add; dx adds its taps' column gradients
/// (each summed over output channels, zero weights skipped) in tap order.
struct DirectConv {
  std::vector<float> y, dx, dw, db;
};

DirectConv direct_conv(const Tensor& x, const std::vector<float>& w,
                       const std::vector<float>& bias, const Tensor& gout,
                       std::size_t cout) {
  const std::size_t batch = x.dim(0), cin = x.dim(1), h = x.dim(2),
                    wd = x.dim(3), hw = h * wd, ck = cin * 9;
  // Image index under tap t of channel c at output pixel p, or -1 (padding).
  auto src = [&](std::size_t c, std::size_t t, std::size_t p) -> long {
    const long sy = static_cast<long>(p / wd) + static_cast<long>(t / 3) - 1;
    const long sx = static_cast<long>(p % wd) + static_cast<long>(t % 3) - 1;
    if (sy < 0 || sx < 0 || sy >= static_cast<long>(h) ||
        sx >= static_cast<long>(wd))
      return -1;
    return static_cast<long>(c * hw) + sy * static_cast<long>(wd) + sx;
  };
  DirectConv r;
  r.y.assign(batch * cout * hw, 0.0f);
  r.dx.assign(x.size(), 0.0f);
  r.dw.assign(cout * ck, 0.0f);
  r.db.assign(cout, 0.0f);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = x.ptr() + b * cin * hw;
    const float* gb = gout.ptr() + b * cout * hw;
    auto col = [&](std::size_t kk, std::size_t p) {
      const long i = src(kk / 9, kk % 9, p);
      return i < 0 ? 0.0f : xb[i];
    };
    for (std::size_t f = 0; f < cout; ++f) {
      for (std::size_t p = 0; p < hw; ++p) {
        float v = bias[f];
        for (std::size_t kk = 0; kk < ck; ++kk) {
          if (w[f * ck + kk] != 0.0f) v += w[f * ck + kk] * col(kk, p);
        }
        r.y[(b * cout + f) * hw + p] = v;
      }
      for (std::size_t kk = 0; kk < ck; ++kk) {
        float sum = 0.0f;
        for (std::size_t p = 0; p < hw; ++p) sum += gb[f * hw + p] * col(kk, p);
        r.dw[f * ck + kk] += sum;
      }
      float sum = 0.0f;
      for (std::size_t p = 0; p < hw; ++p) sum += gb[f * hw + p];
      r.db[f] += sum;
    }
    float* dxb = r.dx.data() + b * cin * hw;
    for (std::size_t kk = 0; kk < ck; ++kk) {
      for (std::size_t p = 0; p < hw; ++p) {
        float dcol = 0.0f;
        for (std::size_t f = 0; f < cout; ++f) {
          if (w[f * ck + kk] != 0.0f) dcol += w[f * ck + kk] * gb[f * hw + p];
        }
        const long i = src(kk / 9, kk % 9, p);
        if (i >= 0) dxb[i] += dcol;
      }
    }
  }
  return r;
}

TEST(Conv2d, MatchesDirectConvolutionBitwiseOnEveryImageSize) {
  // Images thinner than the kernel's reach (1×n, n×1) down to 16×16, so
  // every padding window of im2col/col2im is exercised, on every ISA.
  const IsaGuard guard;
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1}, {1, 5}, {5, 1}, {2, 3}, {3, 2}, {4, 4}, {5, 7}, {16, 16}};
  const std::size_t cin = 2, cout = 3, batch = 2;
  for (const core::simd::Isa isa : {core::simd::Isa::kScalar,
                                    core::simd::compiled_isa()}) {
    core::simd::set_isa(isa);
    for (const auto& [h, w] : sizes) {
      core::Xoshiro256 rng(h * 31 + w);
      Conv2d conv(cin, cout, rng);
      auto params = conv.params();
      auto& wv = *params[0].values;
      for (std::size_t i = 0; i < wv.size(); i += 5) wv[i] = 0.0f;
      *params[1].values = {0.25f, -0.5f, 0.0f};
      const Tensor x = random_tensor({batch, cin, h, w}, h * 7 + w);
      const Tensor gout = random_tensor({batch, cout, h, w}, h * 11 + w);
      const DirectConv want = direct_conv(x, wv, *params[1].values, gout, cout);
      const Tensor y = conv.forward(x);
      const Tensor dx = conv.backward(gout);
      const std::string where = std::string(core::simd::to_string(isa)) + " " +
                                std::to_string(h) + "x" + std::to_string(w);
      EXPECT_EQ(0, std::memcmp(y.ptr(), want.y.data(), y.size() * 4)) << where;
      EXPECT_EQ(0, std::memcmp(dx.ptr(), want.dx.data(), dx.size() * 4)) << where;
      EXPECT_EQ(0, std::memcmp(params[0].grads->data(), want.dw.data(),
                               want.dw.size() * 4))
          << where;
      EXPECT_EQ(0, std::memcmp(params[1].grads->data(), want.db.data(),
                               want.db.size() * 4))
          << where;
    }
  }
}

TEST(Conv2d, GradientsPassNumericalCheck) {
  Sequential net;
  core::Xoshiro256 rng(6);
  net.emplace<Conv2d>(2, 3, rng);
  check_input_gradient(net, random_tensor({2, 2, 4, 4}, 14), 2e-2, 102);
  check_param_gradient(net, random_tensor({2, 2, 4, 4}, 15), 2e-2, 103);
}

TEST(MaxPool2d, SelectsMaxAndRoutesGradient) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y.data[0], 5);
  Tensor g({1, 1, 1, 1}, {7});
  const Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx.data[0], 0);
  EXPECT_FLOAT_EQ(dx.data[1], 7);
  EXPECT_FLOAT_EQ(dx.data[2], 0);
  EXPECT_FLOAT_EQ(dx.data[3], 0);
}

TEST(Flatten, ReshapesWithoutTouchingData) {
  Flatten fl;
  Tensor x = random_tensor({2, 3, 4, 4}, 16);
  const Tensor y = fl.forward(x);
  EXPECT_EQ(y.shape, (std::vector<std::size_t>{2, 48}));
  EXPECT_EQ(y.data, x.data);
  const Tensor back = fl.backward(y);
  EXPECT_EQ(back.shape, x.shape);
}

TEST(Sequential, FullStackGradientCheck) {
  Sequential net;
  core::Xoshiro256 rng(7);
  net.emplace<Conv2d>(1, 2, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2d>();
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 2 * 2, 3, rng);
  check_param_gradient(net, random_tensor({2, 1, 4, 4}, 17), 3e-2, 104);
}

TEST(Sequential, FlatGradsRoundTrip) {
  Sequential net;
  core::Xoshiro256 rng(8);
  net.emplace<Linear>(4, 3, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(3, 2, rng);
  EXPECT_EQ(net.param_count(), 4u * 3 + 3 + 3 * 2 + 2);
  net.forward(random_tensor({2, 4}, 18));
  net.zero_grads();
  net.backward(random_tensor({2, 2}, 19));
  const auto flat = net.flat_grads();
  EXPECT_EQ(flat.size(), net.param_count());
  // Scatter a modified bucket back and read it again.
  auto modified = flat;
  for (auto& g : modified) g *= 2.0f;
  net.set_flat_grads(modified);
  EXPECT_EQ(net.flat_grads(), modified);
}

TEST(Sequential, FlatParamsReplicateModelsExactly) {
  ModelConfig cfg;
  cfg.classes = 10;
  cfg.height = cfg.width = 8;
  auto a = make_mlp(cfg, 32);
  ModelConfig cfg_b = cfg;
  cfg_b.init_seed = 999;  // different init...
  auto b = make_mlp(cfg_b, 32);
  b->set_flat_params(a->flat_params());  // ...then cloned
  Tensor x = random_tensor({4, 3, 8, 8}, 20);
  const Tensor ya = a->forward(x);
  const Tensor yb = b->forward(x);
  EXPECT_EQ(ya.data, yb.data);
}

TEST(Models, MiniVggShapesComposeOnCifarSize) {
  ModelConfig cfg;
  auto net = make_mini_vgg(cfg, 8);
  const Tensor y = net->forward(random_tensor({2, 3, 32, 32}, 21));
  EXPECT_EQ(y.shape, (std::vector<std::size_t>{2, 100}));
  EXPECT_GT(net->param_count(), 10000u);
}

TEST(Models, MlpOutputsLogitsPerClass) {
  ModelConfig cfg;
  cfg.classes = 17;
  auto net = make_mlp(cfg);
  const Tensor y = net->forward(random_tensor({3, 3, 32, 32}, 22));
  EXPECT_EQ(y.shape, (std::vector<std::size_t>{3, 17}));
}

TEST(Models, InitIsDeterministicInSeed) {
  ModelConfig cfg;
  auto a = make_mini_vgg(cfg, 8);
  auto b = make_mini_vgg(cfg, 8);
  EXPECT_EQ(a->flat_params(), b->flat_params());
}

}  // namespace
}  // namespace trimgrad::ml
