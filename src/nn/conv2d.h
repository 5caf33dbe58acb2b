// 2-D convolution over NCHW batches as an implicit GEMM over a zero-padded
// copy of the input (tensor/implicit_conv.h).
#pragma once

#include "nn/layer.h"
#include "tensor/gemm_workspace.h"
#include "tensor/implicit_conv.h"

namespace fedl {
class Rng;
}

namespace fedl::nn {

// Forward pads each sample once and multiplies the filter matrix against
// the column matrix read in place from that copy (bias fused into the
// write-back, results written straight into the NCHW output); samples fan
// out over leased workers. Train mode keeps the padded batch as the
// backward cache — a few % of the column matrix it replaces. Backward is
// three batched stages: a deterministic blocked weight-gradient reduction
// whose B panels are packed from the padded cache (fixed-size sample blocks
// reduced in block order, so results are identical at any thread count);
// then, only when the input gradient is wanted, one GEMM for the column
// gradients and per-sample col2im. All scratch lives in layer-owned
// Workspaces that are reused across iterations and deliberately not
// propagated to clones.
class Conv2d : public Layer {
 public:
  // Square kernels, stride 1 (the implicit GEMM reads neighbouring output
  // pixels from neighbouring input pixels).
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t pad, std::size_t in_h,
         std::size_t in_w, Rng& rng);

  // Copies parameters/gradients only; backward caches and scratch start
  // empty in the copy (clone() contract: identical behavior from the next
  // forward pass on, no dragged-along high-water-mark buffers).
  Conv2d(const Conv2d& other);
  Conv2d& operator=(const Conv2d&) = delete;

  Tensor forward(Tensor input, bool train) override;
  Tensor backward(const Tensor& grad_output, bool input_grad) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }
  LayerPtr clone() const override { return std::make_unique<Conv2d>(*this); }
  std::string name() const override { return "conv2d"; }
  std::size_t scratch_bytes() const override {
    return (padded_.capacity() + eval_padded_.capacity() + dout_.capacity() +
            dcols_.capacity() + dw_partials_.capacity()) *
           sizeof(float);
  }

  std::size_t out_channels() const { return out_channels_; }
  std::size_t out_h() const { return conv_.geometry().out_h(); }
  std::size_t out_w() const { return conv_.geometry().out_w(); }

 private:
  ImplicitConv conv_;
  std::size_t out_channels_;
  Tensor weight_;       // [C_out, C_in*KH*KW]
  Tensor bias_;         // [C_out]
  Tensor grad_weight_;
  Tensor grad_bias_;

  // Batch size of the last train-mode forward; 0 until one happens. The
  // backward cache is padded_ (that batch, zero-padded), not the input.
  std::size_t cached_n_ = 0;
  Workspace padded_;       // [N, padded_floats] train-mode cache
  Workspace eval_padded_;  // eval-mode copy (never aliases the cache)
  Workspace dout_;         // [C_out, N*col_cols] channel-major grad_output
  Workspace dcols_;        // [col_rows, N*col_cols] column gradients
  Workspace dw_partials_;  // [num_blocks, C_out*col_rows] dW reduction
};

}  // namespace fedl::nn
