// Neural-network layers with explicit forward/backward.
//
// Enough to build the VGG-style convnet and the MLP used by the training
// benches: Linear, ReLU, Conv2d (3×3, stride 1, pad 1, im2col), MaxPool2d
// (2×2), Flatten. Parameters expose (weights, grads) views so the DDP
// trainer can fuse all gradients into one flat bucket — the analogue of
// PyTorch DDP's 25 MB gradient buckets the paper hooks into.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/prng.h"
#include "ml/tensor.h"

namespace trimgrad::ml {

/// A parameter buffer paired with its gradient accumulator.
struct ParamView {
  std::vector<float>* values;
  std::vector<float>* grads;
};

class Layer {
 public:
  virtual ~Layer() = default;
  /// x: [B, ...]; returns the layer output, caching whatever backward needs.
  virtual Tensor forward(const Tensor& x) = 0;
  /// grad wrt output -> grad wrt input; accumulates parameter grads.
  virtual Tensor backward(const Tensor& grad_out) = 0;
  virtual std::vector<ParamView> params() { return {}; }
  virtual const char* name() const = 0;
};

/// Fully connected: y = xW^T + b, W stored [out, in].
class Linear : public Layer {
 public:
  Linear(std::size_t in, std::size_t out, core::Xoshiro256& rng);
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamView> params() override {
    return {{&w_, &gw_}, {&b_, &gb_}};
  }
  const char* name() const override { return "linear"; }

  std::size_t in() const noexcept { return in_; }
  std::size_t out() const noexcept { return out_; }

 private:
  std::size_t in_, out_;
  std::vector<float> w_, b_, gw_, gb_;
  Tensor x_cache_;
};

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  const char* name() const override { return "relu"; }

 private:
  std::vector<std::uint8_t> mask_;
};

/// 3×3 convolution, stride 1, pad 1 (spatial size preserved), via im2col.
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_ch, std::size_t out_ch, core::Xoshiro256& rng);
  Tensor forward(const Tensor& x) override;  ///< x: [B, C, H, W]
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamView> params() override {
    return {{&w_, &gw_}, {&b_, &gb_}};
  }
  const char* name() const override { return "conv2d"; }

 private:
  std::size_t cin_, cout_;
  std::vector<float> w_, b_, gw_, gb_;  ///< w: [cout, cin*9]
  std::vector<float> cols_cache_;  ///< im2col of the whole batch
};

/// 2×2 max pooling, stride 2. Requires even H, W.
class MaxPool2d : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  const char* name() const override { return "maxpool2d"; }

 private:
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> in_shape_;
};

/// [B, C, H, W] -> [B, C*H*W]; data untouched (row-major).
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  const char* name() const override { return "flatten"; }

 private:
  std::vector<std::size_t> in_shape_;
};

/// Layer pipeline with flat parameter access for gradient bucketing.
class Sequential {
 public:
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& grad_out);

  std::vector<ParamView> params();
  std::size_t param_count();
  void zero_grads();

  /// Concatenate every parameter gradient into one flat bucket (the DDP
  /// communication payload) / scatter a bucket back into the grads.
  std::vector<float> flat_grads();
  void set_flat_grads(std::span<const float> flat);
  /// Same for the parameters themselves (used to replicate models exactly).
  std::vector<float> flat_params();
  void set_flat_params(std::span<const float> flat);

  std::size_t layer_count() const noexcept { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace trimgrad::ml
