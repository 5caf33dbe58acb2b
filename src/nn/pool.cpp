#include "nn/pool.h"

#include <limits>

#include "obs/profile.h"

namespace fedl::nn {

namespace {

// Pools every [h, w] plane of `in` into `out`, recording each output's flat
// input index in `argmax` when it is non-null. kWindow > 0 fixes the window
// at compile time (so its loops unroll); 0 reads it from `window`.
//
// Each window starts from best = -inf with its argmax at the window's own
// first element, so a window with no value above -inf (all -inf or NaN)
// routes its gradient back into itself. The update takes v only when
// v > best: the first maximum wins ties and NaN never replaces the best.
// It is a select (a mask blend on the index), not a branch, so random-sign
// activations cost no mispredicts.
template <std::size_t kWindow>
void max_pool_planes(const float* in, std::size_t planes, std::size_t h,
                     std::size_t w, std::size_t window, std::size_t stride,
                     float* out, std::size_t* argmax) {
  const std::size_t win = kWindow > 0 ? kWindow : window;
  const std::size_t oh = (h - win) / stride + 1;
  const std::size_t ow = (w - win) / stride + 1;
  std::size_t oi = 0;
  for (std::size_t plane_base = 0; plane_base < planes * h * w;
       plane_base += h * w) {
    const float* plane = in + plane_base;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x, ++oi) {
        const std::size_t first = (y * stride) * w + x * stride;
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = first;
        for (std::size_t dy = 0; dy < win; ++dy) {
          for (std::size_t dx = 0; dx < win; ++dx) {
            const std::size_t idx = first + dy * w + dx;
            const float v = plane[idx];
            const std::size_t take = std::size_t{0} - (v > best ? 1 : 0);
            best_idx = (idx & take) | (best_idx & ~take);
            best = v > best ? v : best;
          }
        }
        out[oi] = best;
        if (argmax != nullptr) argmax[oi] = plane_base + best_idx;
      }
    }
  }
}

}  // namespace

MaxPool2d::MaxPool2d(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride) {
  FEDL_CHECK_GT(window, 0u);
  FEDL_CHECK_GT(stride, 0u);
}

Tensor MaxPool2d::forward(Tensor input, bool train) {
  FEDL_PROFILE_SCOPE("nn.maxpool2d.forward");
  FEDL_CHECK_EQ(input.shape().rank(), 4u);
  const std::size_t n = input.shape()[0];
  const std::size_t c = input.shape()[1];
  const std::size_t h = input.shape()[2];
  const std::size_t w = input.shape()[3];
  FEDL_CHECK_GE(h, window_);
  FEDL_CHECK_GE(w, window_);
  const std::size_t oh = (h - window_) / stride_ + 1;
  const std::size_t ow = (w - window_) / stride_ + 1;

  // Every output and argmax entry is written below, so neither is filled
  // first. The backward's grad_input accumulates and stays zero-filled.
  Tensor out = Tensor::uninitialized(Shape{n, c, oh, ow});
  if (train) argmax_.resize(out.numel());
  std::size_t* argmax = train ? argmax_.data() : nullptr;
  // The paper's CNNs pool 2x2 (FMNIST) and 3x3 (CIFAR) windows.
  switch (window_) {
    case 2:
      max_pool_planes<2>(input.data(), n * c, h, w, window_, stride_,
                         out.data(), argmax);
      break;
    case 3:
      max_pool_planes<3>(input.data(), n * c, h, w, window_, stride_,
                         out.data(), argmax);
      break;
    default:
      max_pool_planes<0>(input.data(), n * c, h, w, window_, stride_,
                         out.data(), argmax);
  }
  in_shape_ = input.shape();
  out_shape_ = out.shape();
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output, bool /*input_grad*/) {
  FEDL_PROFILE_SCOPE("nn.maxpool2d.backward");
  FEDL_CHECK(!argmax_.empty()) << "backward before train-mode forward";
  FEDL_CHECK(grad_output.shape() == out_shape_);
  Tensor grad_input(in_shape_);
  const float* g = grad_output.data();
  float* gi = grad_input.data();
  for (std::size_t i = 0; i < grad_output.numel(); ++i)
    gi[argmax_[i]] += g[i];
  return grad_input;
}

}  // namespace fedl::nn
