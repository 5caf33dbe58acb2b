#include "nn/activations.h"

#include "obs/profile.h"
#include "tensor/ops.h"

namespace fedl::nn {

Tensor Relu::forward(Tensor input, bool train) {
  FEDL_PROFILE_SCOPE("nn.relu.forward");
  if (train) {
    // Every element is overwritten, so a same-shape mask is reused as is.
    if (mask_.shape() != input.shape()) mask_ = Tensor(input.shape());
    float* m = mask_.data();
    const float* in = input.data();
    const std::size_t n = input.numel();
    for (std::size_t i = 0; i < n; ++i) m[i] = in[i] > 0.0f ? 1.0f : 0.0f;
  }
  // In-place on the consumed input buffer; no copy.
  relu_inplace(input);
  return input;
}

Tensor Relu::backward(const Tensor& grad_output, bool /*input_grad*/) {
  FEDL_PROFILE_SCOPE("nn.relu.backward");
  FEDL_CHECK(!mask_.empty()) << "backward before train-mode forward";
  Tensor grad = grad_output;
  mul_inplace(grad, mask_);
  return grad;
}

Tensor Flatten::forward(Tensor input, bool train) {
  if (train) in_shape_ = input.shape();
  const std::size_t n = input.shape()[0];
  input.reshape(Shape{n, input.numel() / n});
  return input;
}

Tensor Flatten::backward(const Tensor& grad_output, bool /*input_grad*/) {
  Tensor grad = grad_output;
  grad.reshape(in_shape_);
  return grad;
}

}  // namespace fedl::nn
