#include "nn/conv2d.h"

#include <cstring>

#include "common/rng.h"
#include "obs/profile.h"
#include "parallel/scheduler.h"
#include "tensor/gemm.h"

namespace fedl::nn {
namespace {

// Sample-block width of the weight-gradient reduction. Each block of up to
// kDwBlockSamples samples produces one dW partial; partials are summed in
// block order. Block boundaries depend only on the batch size, never on the
// thread count, so the reduction is bit-identical at any parallelism.
constexpr std::size_t kDwBlockSamples = 8;

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t pad, std::size_t in_h,
               std::size_t in_w, Rng& rng)
    : conv_(Conv2dGeometry{in_channels, in_h, in_w, kernel, kernel, 1, pad}),
      out_channels_(out_channels),
      weight_(Tensor::he_normal(
          Shape{out_channels, conv_.geometry().col_rows()},
          conv_.geometry().col_rows(), rng)),
      bias_(Shape{out_channels}),
      grad_weight_(Shape{out_channels, conv_.geometry().col_rows()}),
      grad_bias_(Shape{out_channels}) {}

Conv2d::Conv2d(const Conv2d& other)
    : conv_(other.conv_),
      out_channels_(other.out_channels_),
      weight_(other.weight_),
      bias_(other.bias_),
      grad_weight_(other.grad_weight_),
      grad_bias_(other.grad_bias_) {}

Tensor Conv2d::forward(Tensor input, bool train) {
  FEDL_PROFILE_SCOPE("nn.conv2d.forward");
  const Conv2dGeometry& g = conv_.geometry();
  FEDL_CHECK_EQ(input.shape().rank(), 4u);
  FEDL_CHECK_EQ(input.shape()[1], g.in_channels);
  FEDL_CHECK_EQ(input.shape()[2], g.in_h);
  FEDL_CHECK_EQ(input.shape()[3], g.in_w);
  const std::size_t n = input.shape()[0];

  // Train mode pads into the backward cache (the input itself is not
  // retained); eval mode into separate scratch, so an eval forward between
  // a train forward and its backward cannot clobber the cache. Every output
  // element is written by the GEMM, so the output skips the fill.
  Workspace& padded = train ? padded_ : eval_padded_;
  Tensor out = Tensor::uninitialized(
      Shape{n, out_channels_, g.out_h(), g.out_w()});
  conv_.forward(out_channels_, weight_.data(), bias_.data(), input.data(), n,
                padded.ensure(n * conv_.padded_floats()), out.data());
  if (train) cached_n_ = n;
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output, bool input_grad) {
  FEDL_PROFILE_SCOPE("nn.conv2d.backward");
  FEDL_CHECK_GT(cached_n_, 0u) << "backward before train-mode forward";
  const std::size_t n = cached_n_;
  const Conv2dGeometry& g = conv_.geometry();
  FEDL_CHECK(
      (grad_output.shape() == Shape{n, out_channels_, g.out_h(), g.out_w()}));

  const std::size_t colr = g.col_rows();
  const std::size_t colc = g.col_cols();
  const std::size_t ncols = n * colc;
  const std::size_t image_elems = g.in_channels * g.in_h * g.in_w;
  const float* padded = padded_.data();

  // Gather grad_output into the channel-major [C_out, N*col_cols] layout
  // of the column matrix's pixels.
  float* dout = dout_.ensure(out_channels_ * ncols);
  const float* gsrc = grad_output.data();
  leased_parallel_for(0, n, [&](std::size_t s) {
    for (std::size_t c = 0; c < out_channels_; ++c)
      std::memcpy(dout + c * ncols + s * colc,
                  gsrc + (s * out_channels_ + c) * colc,
                  colc * sizeof(float));
  });

  // dW += dOut * cols^T, reduced over fixed-size sample blocks: each block
  // is one [C_out, blk*colc] x [blk*colc, colr] product (cols read from the
  // padded cache) into its own partial, partials are then summed in block
  // order on the calling thread. A single block accumulates in place.
  const std::size_t num_blocks = (n + kDwBlockSamples - 1) / kDwBlockSamples;
  const std::size_t wsize = out_channels_ * colr;
  if (num_blocks == 1) {
    conv_.weight_grad(out_channels_, dout, ncols, padded, n, 1.0f,
                      grad_weight_.data());
  } else {
    float* partials = dw_partials_.ensure(num_blocks * wsize);
    leased_parallel_for(0, num_blocks, [&](std::size_t b) {
      const std::size_t s0 = b * kDwBlockSamples;
      const std::size_t s1 = std::min(n, s0 + kDwBlockSamples);
      conv_.weight_grad(out_channels_, dout + s0 * colc, ncols,
                        padded + s0 * conv_.padded_floats(), s1 - s0, 0.0f,
                        partials + b * wsize);
    });
    float* gw = grad_weight_.data();
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const float* part = partials + b * wsize;
      for (std::size_t i = 0; i < wsize; ++i) gw[i] += part[i];
    }
  }

  // db: each channel's grad_output row is contiguous in dout.
  for (std::size_t c = 0; c < out_channels_; ++c) {
    const float* row = dout + c * ncols;
    double acc = 0.0;
    for (std::size_t i = 0; i < ncols; ++i) acc += row[i];
    grad_bias_[c] += static_cast<float>(acc);
  }

  // The input gradient, when wanted: dcols = W^T * dOut in one GEMM, then
  // per-sample col2im (samples write disjoint grad_input slices, so the
  // fan-out is deterministic). col2im accumulates, so grad_input starts
  // zeroed.
  if (!input_grad) return Tensor();
  float* dcols = dcols_.ensure(colr * ncols);
  gemm(true, false, colr, ncols, out_channels_, 1.0f, weight_.data(), dout,
       0.0f, dcols);
  Tensor grad_input(Shape{n, g.in_channels, g.in_h, g.in_w});
  float* gi = grad_input.data();
  {
    FEDL_PROFILE_SCOPE("nn.conv2d.col2im");
    leased_parallel_for(0, n, [&](std::size_t s) {
      col2im(g, dcols + s * colc, gi + s * image_elems, ncols);
    });
  }
  return grad_input;
}

}  // namespace fedl::nn
