// The explicit-column convolution the implicit-GEMM Conv2d replaced, kept
// as a test oracle: the span-hoisted im2col lowering and a layer whose
// forward is im2col + one bias-fused GEMM over the whole batch and whose
// weight gradient is im2col'd columns through the trans-B GEMM in 8-sample
// blocks. tests/conv_parity_test.cpp memcmp-compares nn::Conv2d against it;
// tensor_test and lowering_parity_test pin the im2col here against the
// adjoint property and the per-element reference loop.
//
// The layer's products run through gemm_ref, a per-element loop in the
// floating-point order the blocked GEMM pins, and its input gradient
// through col2im_ref, the per-element scatter. Neither shares code with
// the GEMM macro loop, the micro-kernels or col2im, so a defect there
// cannot appear on both sides of a comparison.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "parallel/scheduler.h"
#include "tensor/gemm.h"
#include "tensor/gemm_workspace.h"
#include "tensor/im2col.h"
#include "tensor/simd_dispatch.h"

namespace fedl::conv_reference {

// One step of the chain every micro-kernel tier runs for each C element
// (tensor/gemm.cpp): a fused multiply-add on the AVX2 and AVX-512 tiers,
// a rounded multiply then an add on the portable one.
inline float chain_step(float acc, float a, float b, bool fused) {
  return fused ? std::fma(a, b, acc) : acc + a * b;
}

inline bool active_tier_fuses() {
  return active_gemm_kernel() != GemmKernel::kPortable;
}

// C = alpha * op(A) * op(B) + beta * C [+ bias] for k > 0, in the order the
// blocked GEMM gives every element: 256-step k-panels in ascending order,
// each a chain_step chain over p ascending from +0; after each panel one
// write-back, alpha*acc [+ beta_eff*C] [+ bias], with beta_eff = beta on the
// first panel and 1 on the others and the bias on the last.
inline void gemm_ref(bool trans_a, bool trans_b, std::size_t m,
                     std::size_t n, std::size_t k, float alpha,
                     const float* a, std::size_t lda, const float* b,
                     std::size_t ldb, float beta, float* c, std::size_t ldc,
                     BiasMode bias_mode, const float* bias) {
  constexpr std::size_t kPanel = 256;
  const bool fused = active_tier_fuses();
  std::vector<float> acc(n);
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t p0 = 0; p0 < k; p0 += kPanel) {
      const std::size_t p1 = std::min(k, p0 + kPanel);
      std::fill(acc.begin(), acc.end(), 0.0f);
      // Loop order follows B's layout; each element's chain is the same.
      for (std::size_t j = 0; trans_b && j < n; ++j)
        for (std::size_t p = p0; p < p1; ++p)
          acc[j] = chain_step(acc[j], trans_a ? a[p * lda + i] : a[i * lda + p],
                              b[j * ldb + p], fused);
      for (std::size_t p = p0; !trans_b && p < p1; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        for (std::size_t j = 0; j < n; ++j)
          acc[j] = chain_step(acc[j], av, b[p * ldb + j], fused);
      }
      const float beta_eff = p0 == 0 ? beta : 1.0f;
      const bool last = p1 == k;
      for (std::size_t j = 0; j < n; ++j) {
        float v = alpha * acc[j];
        if (beta_eff != 0.0f) v += beta_eff * crow[j];
        if (last && bias_mode == BiasMode::kPerRow) v += bias[i];
        if (last && bias_mode == BiasMode::kPerCol) v += bias[j];
        crow[j] = v;
      }
    }
  }
}

// The adjoint of im2col as a sweep over every output position in (c, kh,
// kw, y, x) order, skipping those that land in padding.
inline void col2im_ref(const Conv2dGeometry& g, const float* cols,
                       float* image, std::size_t ld) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  if (ld == 0) ld = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in = cols + row * ld;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            image[(c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
                  static_cast<std::size_t>(ix)] += in[y * ow + x];
          }
        }
      }
    }
  }
}

// Output positions o in [lo, hi) whose input coordinate o*stride + k - pad
// falls inside [0, extent); every other position reads padding.
struct ValidSpan {
  std::size_t lo;
  std::size_t hi;
};

inline ValidSpan valid_span(std::size_t out_len, std::size_t extent,
                            std::size_t k, std::size_t stride,
                            std::size_t pad) {
  // o*stride + k >= pad  and  o*stride + k < extent + pad.
  std::size_t lo = k >= pad ? 0 : (pad - k + stride - 1) / stride;
  std::size_t hi =
      k >= extent + pad ? 0 : (extent + pad - k + stride - 1) / stride;
  hi = std::min(hi, out_len);
  lo = std::min(lo, hi);
  return {lo, hi};
}

// image: one sample, [C, H, W] contiguous; cols: [col_rows, col_cols] slab
// with row stride `ld` (0 means tightly packed, ld = col_cols()).
inline void im2col(const Conv2dGeometry& g, const float* image, float* cols,
                   std::size_t ld = 0) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t s = g.stride;
  if (ld == 0) ld = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const ValidSpan ys = valid_span(oh, g.in_h, kh, s, g.pad);
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const ValidSpan xs = valid_span(ow, g.in_w, kw, s, g.pad);
        const std::size_t nx = xs.hi - xs.lo;
        float* out = cols + row * ld;
        if (nx == 0) {  // this kernel column only ever reads padding
          std::fill(out, out + oh * ow, 0.0f);
          continue;
        }
        if (nx < ow) {
          // Every row has padding columns: zero the whole block in one
          // pass rather than two short fills per row.
          std::fill(out, out + oh * ow, 0.0f);
        } else {
          // Only the rows whose input row is all padding.
          std::fill(out, out + ys.lo * ow, 0.0f);
          std::fill(out + ys.hi * ow, out + oh * ow, 0.0f);
        }
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          float* orow = out + y * ow + xs.lo;
          // First in-bounds input pixel of this output row (ix at x = lo).
          const float* src = plane + (y * s + kh - g.pad) * g.in_w +
                             (xs.lo * s + kw - g.pad);
          if (s == 1) {
            std::memcpy(orow, src, nx * sizeof(float));
          } else {
            for (std::size_t x = 0; x < nx; ++x) orow[x] = src[x * s];
          }
        }
      }
    }
  }
}

// The whole-batch im2col convolution layer. Forward lowers the batch into
// one [col_rows, N*col_cols] column buffer and runs a single GEMM (bias
// fused into the write-back), then scatters the channel-major result to
// NCHW; train mode keeps the columns as the backward cache. Backward: dW
// over 8-sample blocks reduced in block order, db, and (when wanted) one
// GEMM for the column gradients plus per-sample col2im.
class LegacyConv2d : public nn::Layer {
 public:
  LegacyConv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t pad, std::size_t in_h,
               std::size_t in_w, Rng& rng)
      : geom_{in_channels, in_h, in_w, kernel, kernel, 1, pad},
        out_channels_(out_channels),
        weight_(Tensor::he_normal(Shape{out_channels, geom_.col_rows()},
                                  geom_.col_rows(), rng)),
        bias_(Shape{out_channels}),
        grad_weight_(Shape{out_channels, geom_.col_rows()}),
        grad_bias_(Shape{out_channels}) {}

  LegacyConv2d(const LegacyConv2d& other)
      : geom_(other.geom_),
        out_channels_(other.out_channels_),
        weight_(other.weight_),
        bias_(other.bias_),
        grad_weight_(other.grad_weight_),
        grad_bias_(other.grad_bias_) {}

  Tensor forward(Tensor input, bool train) override {
    const std::size_t n = input.shape()[0];
    const std::size_t oh = geom_.out_h();
    const std::size_t ow = geom_.out_w();
    const std::size_t colr = geom_.col_rows();
    const std::size_t colc = geom_.col_cols();
    const std::size_t ncols = n * colc;
    const std::size_t image_elems =
        geom_.in_channels * geom_.in_h * geom_.in_w;

    Workspace& colws = train ? cols_ : scratch_cols_;
    float* cols = colws.ensure(colr * ncols);
    leased_parallel_for(0, n, [&](std::size_t s) {
      im2col(geom_, input.data() + s * image_elems, cols + s * colc, ncols);
    });

    float* oc = out_cols_.ensure(out_channels_ * ncols);
    gemm_ref(false, false, out_channels_, ncols, colr, 1.0f, weight_.data(),
             colr, cols, ncols, 0.0f, oc, ncols, BiasMode::kPerRow,
             bias_.data());

    Tensor out = Tensor::uninitialized(Shape{n, out_channels_, oh, ow});
    float* dst = out.data();
    leased_parallel_for(0, n, [&](std::size_t s) {
      for (std::size_t c = 0; c < out_channels_; ++c)
        std::memcpy(dst + (s * out_channels_ + c) * colc,
                    oc + c * ncols + s * colc, colc * sizeof(float));
    });
    if (train) cached_n_ = n;
    return out;
  }

  Tensor backward(const Tensor& grad_output, bool input_grad) override {
    const std::size_t n = cached_n_;
    const std::size_t colr = geom_.col_rows();
    const std::size_t colc = geom_.col_cols();
    const std::size_t ncols = n * colc;
    const std::size_t image_elems =
        geom_.in_channels * geom_.in_h * geom_.in_w;
    const float* cols = cols_.data();

    float* dout = dout_.ensure(out_channels_ * ncols);
    const float* gsrc = grad_output.data();
    leased_parallel_for(0, n, [&](std::size_t s) {
      for (std::size_t c = 0; c < out_channels_; ++c)
        std::memcpy(dout + c * ncols + s * colc,
                    gsrc + (s * out_channels_ + c) * colc,
                    colc * sizeof(float));
    });

    const std::size_t num_blocks = (n + kDwBlockSamples - 1) / kDwBlockSamples;
    const std::size_t wsize = out_channels_ * colr;
    if (num_blocks == 1) {
      gemm_ref(false, true, out_channels_, colr, ncols, 1.0f, dout, ncols,
               cols, ncols, 1.0f, grad_weight_.data(), colr, BiasMode::kNone,
               nullptr);
    } else {
      float* partials = dw_partials_.ensure(num_blocks * wsize);
      leased_parallel_for(0, num_blocks, [&](std::size_t b) {
        const std::size_t s0 = b * kDwBlockSamples;
        const std::size_t s1 = std::min(n, s0 + kDwBlockSamples);
        const std::size_t kblk = (s1 - s0) * colc;
        gemm_ref(false, true, out_channels_, colr, kblk, 1.0f,
                 dout + s0 * colc, ncols, cols + s0 * colc, ncols, 0.0f,
                 partials + b * wsize, colr, BiasMode::kNone, nullptr);
      });
      float* gw = grad_weight_.data();
      for (std::size_t b = 0; b < num_blocks; ++b) {
        const float* part = partials + b * wsize;
        for (std::size_t i = 0; i < wsize; ++i) gw[i] += part[i];
      }
    }

    for (std::size_t c = 0; c < out_channels_; ++c) {
      const float* row = dout + c * ncols;
      double acc = 0.0;
      for (std::size_t i = 0; i < ncols; ++i) acc += row[i];
      grad_bias_[c] += static_cast<float>(acc);
    }

    if (!input_grad) return Tensor();
    float* dcols = dcols_.ensure(colr * ncols);
    gemm_ref(true, false, colr, ncols, out_channels_, 1.0f, weight_.data(),
             colr, dout, ncols, 0.0f, dcols, ncols, BiasMode::kNone, nullptr);
    Tensor grad_input(
        Shape{n, geom_.in_channels, geom_.in_h, geom_.in_w});
    float* gi = grad_input.data();
    leased_parallel_for(0, n, [&](std::size_t s) {
      col2im_ref(geom_, dcols + s * colc, gi + s * image_elems, ncols);
    });
    return grad_input;
  }

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override {
    return {&grad_weight_, &grad_bias_};
  }
  nn::LayerPtr clone() const override {
    return std::make_unique<LegacyConv2d>(*this);
  }
  std::string name() const override { return "legacy_conv2d"; }

 private:
  static constexpr std::size_t kDwBlockSamples = 8;

  Conv2dGeometry geom_;
  std::size_t out_channels_;
  Tensor weight_;
  Tensor bias_;
  Tensor grad_weight_;
  Tensor grad_bias_;
  std::size_t cached_n_ = 0;
  Workspace cols_;
  Workspace scratch_cols_;
  Workspace out_cols_;
  Workspace dout_;
  Workspace dcols_;
  Workspace dw_partials_;
};

}  // namespace fedl::conv_reference
