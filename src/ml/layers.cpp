#include "ml/layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "core/simd.h"

namespace trimgrad::ml {

namespace {

/// He-normal initialization, the standard choice for ReLU nets.
void he_init(std::vector<float>& w, std::size_t fan_in,
             core::Xoshiro256& rng) {
  const float scale = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (auto& x : w) x = scale * static_cast<float>(rng.gaussian());
}

}  // namespace

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::size_t in, std::size_t out, core::Xoshiro256& rng)
    : in_(in), out_(out), w_(in * out), b_(out, 0.0f), gw_(in * out, 0.0f),
      gb_(out, 0.0f) {
  he_init(w_, in, rng);
}

Tensor Linear::forward(const Tensor& x) {
  const std::size_t batch = x.dim(0);
  x_cache_ = x;
  Tensor y({batch, out_});
  for (std::size_t i = 0; i < batch; ++i) {
    float* row = y.ptr() + i * out_;
    for (std::size_t o = 0; o < out_; ++o) row[o] = b_[o];
  }
  // y(B×out) += x(B×in) · Wᵀ, W stored out×in.
  gemm_a_bt(x.ptr(), w_.data(), y.ptr(), batch, in_, out_);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.dim(0);
  // dW(out×in) += gradᵀ(out×B) · x(B×in)  ==  gemm_at_b(grad, x) with
  // grad stored B×out.
  gemm_at_b(grad_out.ptr(), x_cache_.ptr(), gw_.data(), batch, out_, in_);
  for (std::size_t i = 0; i < batch; ++i) {
    const float* row = grad_out.ptr() + i * out_;
    for (std::size_t o = 0; o < out_; ++o) gb_[o] += row[o];
  }
  // dx(B×in) = grad(B×out) · W(out×in).
  Tensor dx({batch, in_});
  gemm_accumulate(grad_out.ptr(), w_.data(), dx.ptr(), batch, out_, in_);
  return dx;
}

// ------------------------------------------------------------------ ReLU --

Tensor ReLU::forward(const Tensor& x) {
  Tensor y = x;
  mask_.resize(y.size());
  core::simd::relu_forward(y.ptr(), mask_.data(), y.size());
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor dx = grad_out;
  core::simd::relu_backward(dx.ptr(), mask_.data(), dx.size());
  return dx;
}

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(std::size_t in_ch, std::size_t out_ch, core::Xoshiro256& rng)
    : cin_(in_ch), cout_(out_ch), w_(out_ch * in_ch * 9), b_(out_ch, 0.0f),
      gw_(w_.size(), 0.0f), gb_(out_ch, 0.0f) {
  he_init(w_, in_ch * 9, rng);
}

namespace {

/// Tap (dh, dw) of the 3×3/pad-1 kernel over an h×w plane: output pixel i
/// reads plane index i + shift. The pixels whose read lands in the plane
/// are the contiguous run [first, last), minus one column per row where the
/// shift wraps across a row end (column 0 for dw < 0, w-1 for dw > 0);
/// those wrapped entries, like everything outside the run, are padding.
struct Tap {
  std::size_t first = 0, last = 0;
  std::ptrdiff_t shift;
  std::size_t y0, y1, pad_x;
  bool wraps;

  Tap(int dh, int dw, std::size_t h, std::size_t w)
      : shift(dh * static_cast<std::ptrdiff_t>(w) + dw),
        y0(dh < 0 ? 1 : 0), y1(dh > 0 ? h - 1 : h), pad_x(dw < 0 ? 0 : w - 1),
        wraps(dw != 0) {
    const std::size_t x0 = dw < 0 ? 1 : 0;
    const std::size_t x1 = dw > 0 ? w - 1 : w;
    if (y0 < y1 && x0 < x1) {  // else the plane is too thin for this tap
      first = y0 * w + x0;
      last = (y1 - 1) * w + x1;
    }
  }

  /// Sets the wrapped entries of one tap row (hw long) to +0.
  void zero_wrapped(float* row, std::size_t w) const {
    if (!wraps) return;
    for (std::size_t y = y0; y < y1; ++y) row[y * w + pad_x] = 0.0f;
  }
};

/// im2col for 3×3/stride1/pad1: cols[(c*9 + k)][h*W + w] = x[c][h+dh][w+dw],
/// 0 outside the image. Per tap: one contiguous copy of the shifted run,
/// then the padding around it and in its wrapped column is zeroed.
void im2col_3x3(const float* x, std::size_t c_in, std::size_t h,
                std::size_t w, float* cols) {
  const std::size_t hw = h * w;
  for (std::size_t c = 0; c < c_in; ++c) {
    const float* plane = x + c * hw;
    for (int dh = -1; dh <= 1; ++dh) {
      for (int dw = -1; dw <= 1; ++dw) {
        const std::size_t k = static_cast<std::size_t>((dh + 1) * 3 + (dw + 1));
        float* crow = cols + (c * 9 + k) * hw;
        const Tap tap(dh, dw, h, w);
        std::memset(crow, 0, tap.first * sizeof(float));
        if (tap.first < tap.last) {
          std::memcpy(crow + tap.first, plane + tap.first + tap.shift,
                      (tap.last - tap.first) * sizeof(float));
        }
        std::memset(crow + tap.last, 0, (hw - tap.last) * sizeof(float));
        tap.zero_wrapped(crow, w);
      }
    }
  }
}

/// Transpose of im2col: scatter-add column gradients back to the image,
/// per tap one contiguous add of the shifted run. Its wrapped entries are
/// gradients of padding and are first set to +0 in `cols` (scratch). dx
/// starts at +0 and only ever has values added to it, so no element is
/// ever -0 and adding +0 leaves every element's bits unchanged: the result
/// equals skipping those entries. Each image element receives its taps in
/// ascending k order.
void col2im_3x3(float* cols, std::size_t c_in, std::size_t h, std::size_t w,
                float* dx) {
  const std::size_t hw = h * w;
  for (std::size_t c = 0; c < c_in; ++c) {
    float* plane = dx + c * hw;
    for (int dh = -1; dh <= 1; ++dh) {
      for (int dw = -1; dw <= 1; ++dw) {
        const std::size_t k = static_cast<std::size_t>((dh + 1) * 3 + (dw + 1));
        float* crow = cols + (c * 9 + k) * hw;
        const Tap tap(dh, dw, h, w);
        if (tap.first == tap.last) continue;
        tap.zero_wrapped(crow, w);
        core::simd::accumulate(plane + tap.first + tap.shift, crow + tap.first,
                               tap.last - tap.first);
      }
    }
  }
}

}  // namespace

Tensor Conv2d::forward(const Tensor& x) {
  const std::size_t batch = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t hw = h * w;
  const std::size_t ck = cin_ * 9;
  // im2col writes every element, padding included: no zero-fill needed.
  cols_cache_.resize(batch * ck * hw);
  Tensor y({batch, cout_, h, w});
  for (std::size_t bidx = 0; bidx < batch; ++bidx) {
    float* cols = cols_cache_.data() + bidx * ck * hw;
    im2col_3x3(x.ptr() + bidx * cin_ * hw, cin_, h, w, cols);
    float* out = y.ptr() + bidx * cout_ * hw;
    for (std::size_t f = 0; f < cout_; ++f) {
      float* plane = out + f * hw;
      const float bias = b_[f];
      for (std::size_t i = 0; i < hw; ++i) plane[i] = bias;
    }
    // out(cout×hw) += W(cout×ck) · cols(ck×hw).
    gemm_accumulate(w_.data(), cols, out, cout_, ck, hw);
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.dim(0);
  const std::size_t h = grad_out.dim(2);
  const std::size_t w = grad_out.dim(3);
  const std::size_t hw = h * w;
  const std::size_t ck = cin_ * 9;
  Tensor dx({batch, cin_, h, w});
  std::vector<float> dcols(ck * hw);
  for (std::size_t bidx = 0; bidx < batch; ++bidx) {
    const float* gout = grad_out.ptr() + bidx * cout_ * hw;
    const float* cols = cols_cache_.data() + bidx * ck * hw;
    // dW(cout×ck) += gout(cout×hw) · colsᵀ(hw×ck).
    gemm_a_bt(gout, cols, gw_.data(), cout_, hw, ck);
    // db(f) += Σ_i gout(f, i), each summed from +0 in ascending i; eight
    // planes at a time so their add chains overlap instead of queueing.
    for (std::size_t f0 = 0; f0 < cout_; f0 += 8) {
      const std::size_t nf = std::min<std::size_t>(8, cout_ - f0);
      float acc[8] = {};
      for (std::size_t i = 0; i < hw; ++i) {
        for (std::size_t f = 0; f < nf; ++f) acc[f] += gout[(f0 + f) * hw + i];
      }
      for (std::size_t f = 0; f < nf; ++f) gb_[f0 + f] += acc[f];
    }
    // dcols(ck×hw) = Wᵀ(ck×cout) · gout(cout×hw).
    std::fill(dcols.begin(), dcols.end(), 0.0f);
    gemm_at_b(w_.data(), gout, dcols.data(), cout_, ck, hw);
    col2im_3x3(dcols.data(), cin_, h, w, dx.ptr() + bidx * cin_ * hw);
  }
  return dx;
}

// ------------------------------------------------------------- MaxPool2d --

Tensor MaxPool2d::forward(const Tensor& x) {
  const std::size_t batch = x.dim(0);
  const std::size_t c = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = h / 2;
  const std::size_t ow = w / 2;
  in_shape_ = x.shape;
  Tensor y({batch, c, oh, ow});
  argmax_.assign(y.size(), 0);
  for (std::size_t bc = 0; bc < batch * c; ++bc) {
    const float* in = x.ptr() + bc * h * w;
    float* out = y.ptr() + bc * oh * ow;
    std::size_t* amax = argmax_.data() + bc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        std::size_t best_idx = (2 * oy) * w + 2 * ox;
        float best = in[best_idx];
        for (int dy = 0; dy < 2; ++dy) {
          for (int dxx = 0; dxx < 2; ++dxx) {
            // Selects, not a branch: which pixel wins is data-dependent.
            const std::size_t idx = (2 * oy + dy) * w + 2 * ox + dxx;
            const bool gt = in[idx] > best;
            best = gt ? in[idx] : best;
            best_idx = gt ? idx : best_idx;
          }
        }
        out[oy * ow + ox] = best;
        amax[oy * ow + ox] = best_idx;
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  const std::size_t batch = in_shape_[0];
  const std::size_t c = in_shape_[1];
  const std::size_t h = in_shape_[2];
  const std::size_t w = in_shape_[3];
  const std::size_t oh = h / 2;
  const std::size_t ow = w / 2;
  Tensor dx({batch, c, h, w});
  for (std::size_t bc = 0; bc < batch * c; ++bc) {
    const float* g = grad_out.ptr() + bc * oh * ow;
    const std::size_t* amax = argmax_.data() + bc * oh * ow;
    float* out = dx.ptr() + bc * h * w;
    for (std::size_t i = 0; i < oh * ow; ++i) out[amax[i]] += g[i];
  }
  return dx;
}

// --------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x) {
  in_shape_ = x.shape;
  return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

// ------------------------------------------------------------ Sequential --

Tensor Sequential::forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

std::vector<ParamView> Sequential::params() {
  std::vector<ParamView> out;
  for (auto& layer : layers_) {
    for (const auto& p : layer->params()) out.push_back(p);
  }
  return out;
}

std::size_t Sequential::param_count() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.values->size();
  return n;
}

void Sequential::zero_grads() {
  for (const auto& p : params())
    std::fill(p.grads->begin(), p.grads->end(), 0.0f);
}

std::vector<float> Sequential::flat_grads() {
  std::vector<float> out;
  out.reserve(param_count());
  for (const auto& p : params())
    out.insert(out.end(), p.grads->begin(), p.grads->end());
  return out;
}

void Sequential::set_flat_grads(std::span<const float> flat) {
  std::size_t off = 0;
  for (const auto& p : params()) {
    std::copy(flat.begin() + off, flat.begin() + off + p.grads->size(),
              p.grads->begin());
    off += p.grads->size();
  }
}

std::vector<float> Sequential::flat_params() {
  std::vector<float> out;
  out.reserve(param_count());
  for (const auto& p : params())
    out.insert(out.end(), p.values->begin(), p.values->end());
  return out;
}

void Sequential::set_flat_params(std::span<const float> flat) {
  std::size_t off = 0;
  for (const auto& p : params()) {
    std::copy(flat.begin() + off, flat.begin() + off + p.values->size(),
              p.values->begin());
    off += p.values->size();
  }
}

}  // namespace trimgrad::ml
