// Bit-parity suite for the conv lowering, activation and GEMM glue kernels.
//
// The span-hoisted im2col/col2im, the select-based ReLU and MaxPool and the
// specialised GEMM write-back/packing must produce the same bits as the
// straightforward per-element loops they replaced. Those loops are kept
// here, verbatim, as oracles; every comparison is a memcmp over randomly
// drawn geometries (stride 1-3, padding past the kernel, strided `ld`,
// 1x1 images) and inputs seeded with NaN, +-inf, -0.0 and ties. Under the
// sanitizer builds (`ctest -L sanitize`) the same sweep checks the span
// arithmetic for out-of-bounds access and overflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/pool.h"
#include "parallel/scheduler.h"
#include "tensor/gemm.h"
#include "tensor/gemm_stages.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/simd_dispatch.h"

namespace fedl {
namespace {

// --- oracles: the per-element loops before span hoisting ---------------------

void im2col_ref(const Conv2dGeometry& g, const float* image, float* cols,
                std::size_t ld) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  if (ld == 0) ld = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* out = cols + row * ld;
        for (std::size_t y = 0; y < oh; ++y) {
          // Input row for this output row; pad handled by bounds checks.
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            const bool inside = iy >= 0 &&
                                iy < static_cast<std::ptrdiff_t>(g.in_h) &&
                                ix >= 0 &&
                                ix < static_cast<std::ptrdiff_t>(g.in_w);
            out[y * ow + x] =
                inside ? image[(c * g.in_h + static_cast<std::size_t>(iy)) *
                                   g.in_w +
                               static_cast<std::size_t>(ix)]
                       : 0.0f;
          }
        }
      }
    }
  }
}

void col2im_ref(const Conv2dGeometry& g, const float* cols, float* image,
                std::size_t ld) {
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

void relu_inplace_ref(Tensor& t) {
  float* p = t.data();
  const std::size_t n = t.numel();
  for (std::size_t i = 0; i < n; ++i)
    if (p[i] < 0.0f) p[i] = 0.0f;
}

// Relu::forward's train-mode mask.
Tensor relu_mask_ref(const Tensor& input) {
  Tensor mask(input.shape());
  float* m = mask.data();
  const float* in = input.data();
  for (std::size_t i = 0; i < input.numel(); ++i)
    m[i] = in[i] > 0.0f ? 1.0f : 0.0f;
  return mask;
}

// MaxPool2d::forward over an NCHW input; fills `argmax` with flat indices.
Tensor maxpool_forward_ref(const Tensor& input, std::size_t window,
                           std::size_t stride,
                           std::vector<std::size_t>& argmax) {
  const std::size_t n = input.shape()[0];
  const std::size_t c = input.shape()[1];
  const std::size_t h = input.shape()[2];
  const std::size_t w = input.shape()[3];
  const std::size_t oh = (h - window) / stride + 1;
  const std::size_t ow = (w - window) / stride + 1;

  Tensor out(Shape{n, c, oh, ow});
  argmax.assign(out.numel(), 0);

  const float* in = input.data();
  float* o = out.data();
  std::size_t oi = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (s * c + ch) * h * w;
      const std::size_t plane_base = (s * c + ch) * h * w;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t dy = 0; dy < window; ++dy) {
            for (std::size_t dx = 0; dx < window; ++dx) {
              const std::size_t iy = y * stride + dy;
              const std::size_t ix = x * stride + dx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_base + iy * w + ix;
              }
            }
          }
          o[oi] = best;
          argmax[oi] = best_idx;
        }
      }
    }
  }
  return out;
}

void write_back_ref(const float* tile, std::size_t nr_stride, float* c,
                    std::size_t ldc, std::size_t mr, std::size_t nr,
                    float alpha, float beta_eff, BiasMode bias_mode,
                    const float* bias, std::size_t row0, std::size_t col0) {
  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* trow = tile + r * nr_stride;
    const float row_bias =
        bias_mode == BiasMode::kPerRow ? bias[row0 + r] : 0.0f;
    for (std::size_t cc = 0; cc < nr; ++cc) {
      float v = alpha * trow[cc];
      if (beta_eff != 0.0f) v += beta_eff * crow[cc];
      if (bias_mode == BiasMode::kPerRow) v += row_bias;
      if (bias_mode == BiasMode::kPerCol) v += bias[col0 + cc];
      crow[cc] = v;
    }
  }
}

constexpr std::size_t kMr = gemm_stages::kMr;

void pack_a_ref(bool trans_a, const float* a, std::size_t lda,
                std::size_t row0, std::size_t col0, std::size_t mb,
                std::size_t kb, float* out) {
  for (std::size_t ib = 0; ib < mb; ib += kMr) {
    const std::size_t rows = std::min(kMr, mb - ib);
    for (std::size_t p = 0; p < kb; ++p) {
      for (std::size_t r = 0; r < rows; ++r)
        out[p * kMr + r] = trans_a ? a[(col0 + p) * lda + (row0 + ib + r)]
                                   : a[(row0 + ib + r) * lda + (col0 + p)];
      for (std::size_t r = rows; r < kMr; ++r) out[p * kMr + r] = 0.0f;
    }
    out += kMr * kb;
  }
}

void pack_b_ref(bool trans_b, const float* b, std::size_t ldb,
                std::size_t row0, std::size_t col0, std::size_t kb,
                std::size_t nb, std::size_t nr, float* out) {
  for (std::size_t jb = 0; jb < nb; jb += nr) {
    const std::size_t cols = std::min(nr, nb - jb);
    if (!trans_b && cols == nr) {
      // Fast path: contiguous nr-float rows of B.
      for (std::size_t p = 0; p < kb; ++p)
        std::memcpy(out + p * nr, b + (row0 + p) * ldb + (col0 + jb),
                    nr * sizeof(float));
    } else {
      for (std::size_t p = 0; p < kb; ++p) {
        for (std::size_t c = 0; c < cols; ++c)
          out[p * nr + c] = trans_b ? b[(col0 + jb + c) * ldb + (row0 + p)]
                                    : b[(row0 + p) * ldb + (col0 + jb + c)];
        for (std::size_t c = cols; c < nr; ++c) out[p * nr + c] = 0.0f;
      }
    }
    out += nr * kb;
  }
}

// The serial macro loop before the A-panel hoist: column blocks outermost,
// A re-packed for every (column block, strip), the mode-testing write-back.
void gemm_bias_ref(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                   std::size_t k, float alpha, const float* a, std::size_t lda,
                   const float* b, std::size_t ldb, float beta, float* c,
                   std::size_t ldc, BiasMode bias_mode, const float* bias) {
  constexpr std::size_t kBlockN = 256;
  constexpr std::size_t kBlockK = 256;
  const gemm_stages::MicroKernel kd = gemm_stages::select_micro_kernel();
  const std::size_t nr_tile = kd.nr;
  const std::size_t nb_cap =
      std::min(kBlockN, (n + nr_tile - 1) / nr_tile * nr_tile);
  const std::size_t kb_cap = std::min(kBlockK, k);
  std::vector<float> bpack(kb_cap * nb_cap);
  std::vector<float> apack(kMr * kb_cap);
  std::vector<float> tile(kMr * nr_tile);
  const std::size_t n_strips = (m + kMr - 1) / kMr;
  for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const std::size_t nb = std::min(kBlockN, n - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t kb = std::min(kBlockK, k - p0);
      const float beta_eff = p0 == 0 ? beta : 1.0f;
      const BiasMode panel_bias =
          p0 + kb >= k ? bias_mode : BiasMode::kNone;
      pack_b_ref(trans_b, b, ldb, p0, j0, kb, nb, nr_tile, bpack.data());
      for (std::size_t s = 0; s < n_strips; ++s) {
        const std::size_t i0 = s * kMr;
        const std::size_t mr = std::min(kMr, m - i0);
        pack_a_ref(trans_a, a, lda, i0, p0, mr, kb, apack.data());
        for (std::size_t jb = 0; jb < nb; jb += nr_tile) {
          const float* bpanel = bpack.data() + (jb / nr_tile) * nr_tile * kb;
          const std::size_t nc = std::min(nr_tile, nb - jb);
          kd.fn(kb, apack.data(), bpanel, tile.data());
          write_back_ref(tile.data(), nr_tile, c + i0 * ldc + (j0 + jb), ldc,
                         mr, nc, alpha, beta_eff, panel_bias, bias, i0,
                         j0 + jb);
        }
      }
    }
  }
}

// --- inputs ----------------------------------------------------------------

// Random values with a sprinkling of NaN, +-inf, -0.0, +0.0 and repeats of a
// few fixed values (ties for the pooling max).
float special_value(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.03) return std::numeric_limits<float>::quiet_NaN();
  if (u < 0.05) return std::numeric_limits<float>::infinity();
  if (u < 0.08) return -std::numeric_limits<float>::infinity();
  if (u < 0.12) return -0.0f;
  if (u < 0.16) return 0.0f;
  if (u < 0.26) return static_cast<float>(rng.uniform_int(-2, 2));
  return static_cast<float>(rng.normal());
}

void fill_special(std::vector<float>& v, Rng& rng) {
  for (float& x : v) x = special_value(rng);
}

void fill_special(Tensor& t, Rng& rng) {
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = special_value(rng);
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// Bit equality, except that any two NaNs match. Used only where an addition
// can meet two NaN operands: x86 returns the first operand's payload and the
// compiler may order a commutative add either way, so the payload of that
// result is not fixed by the source code.
bool same_bits_or_both_nan(const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) return false;
  }
  return true;
}

std::size_t draw(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

Conv2dGeometry random_geometry(Rng& rng) {
  Conv2dGeometry g{};
  g.in_channels = draw(rng, 1, 3);
  const bool one_by_one = rng.uniform() < 0.1;
  g.in_h = one_by_one ? 1 : draw(rng, 1, 12);
  g.in_w = one_by_one ? 1 : draw(rng, 1, 12);
  g.kernel_h = draw(rng, 1, 6);
  g.kernel_w = draw(rng, 1, 6);
  g.stride = draw(rng, 1, 3);
  g.pad = draw(rng, 0, std::max(g.kernel_h, g.kernel_w) + 2);
  // The padded image must hold at least one kernel window.
  while (g.in_h + 2 * g.pad < g.kernel_h || g.in_w + 2 * g.pad < g.kernel_w)
    ++g.pad;
  return g;
}

std::string describe(const Conv2dGeometry& g, std::size_t ld) {
  return "C=" + std::to_string(g.in_channels) + " H=" +
         std::to_string(g.in_h) + " W=" + std::to_string(g.in_w) +
         " K=" + std::to_string(g.kernel_h) + "x" +
         std::to_string(g.kernel_w) + " S=" + std::to_string(g.stride) +
         " P=" + std::to_string(g.pad) + " ld=" + std::to_string(ld);
}

constexpr int kGeometries = 12000;

// --- lowering --------------------------------------------------------------

TEST(LoweringParity, Im2colMatchesReferenceBitForBit) {
  Rng rng(101);
  for (int trial = 0; trial < kGeometries; ++trial) {
    const Conv2dGeometry g = random_geometry(rng);
    const std::size_t colc = g.col_cols();
    // ld == 0 (packed) or a strided slab with a gap after every row.
    const std::size_t ld = rng.uniform() < 0.3 ? 0 : colc + draw(rng, 0, 5);
    const std::size_t stride = ld == 0 ? colc : ld;
    std::vector<float> image(g.in_channels * g.in_h * g.in_w);
    fill_special(image, rng);
    // Exactly sized so the sanitizers see any write past the last row.
    const std::size_t slab = (g.col_rows() - 1) * stride + colc;
    std::vector<float> want(slab, 7.5f), got(slab, 7.5f);
    im2col_ref(g, image.data(), want.data(), ld);
    im2col(g, image.data(), got.data(), ld);
    ASSERT_TRUE(same_bits(want.data(), got.data(), slab)) << describe(g, ld);
  }
}

TEST(LoweringParity, Col2imMatchesReferenceBitForBit) {
  Rng rng(202);
  for (int trial = 0; trial < kGeometries; ++trial) {
    const Conv2dGeometry g = random_geometry(rng);
    const std::size_t colc = g.col_cols();
    const std::size_t ld = rng.uniform() < 0.3 ? 0 : colc + draw(rng, 0, 5);
    const std::size_t stride = ld == 0 ? colc : ld;
    std::vector<float> cols((g.col_rows() - 1) * stride + colc);
    fill_special(cols, rng);
    // A non-zero starting image, so accumulation order is visible.
    std::vector<float> want(g.in_channels * g.in_h * g.in_w);
    fill_special(want, rng);
    std::vector<float> got = want;
    col2im_ref(g, cols.data(), want.data(), ld);
    col2im(g, cols.data(), got.data(), ld);
    // col2im's += can meet two NaNs (special values on both sides), and at
    // -O3 the compiler may swap that commutative add's operands.
    ASSERT_TRUE(same_bits_or_both_nan(want.data(), got.data(), want.size()))
        << describe(g, ld);
  }
}

// --- activations -----------------------------------------------------------

TEST(LoweringParity, ReluKeepsNanAndNegativeZero) {
  Rng rng(303);
  for (int trial = 0; trial < 200; ++trial) {
    Tensor x(Shape{draw(rng, 1, 300)});
    fill_special(x, rng);
    Tensor want = x, got = x;
    relu_inplace_ref(want);
    relu_inplace(got);
    ASSERT_TRUE(same_bits(want.data(), got.data(), x.numel()));
  }
  Tensor edge(Shape{4});
  edge[0] = -0.0f;
  edge[1] = std::numeric_limits<float>::quiet_NaN();
  edge[2] = -std::numeric_limits<float>::infinity();
  edge[3] = -1e-45f;
  relu_inplace(edge);
  EXPECT_TRUE(std::signbit(edge[0]));
  EXPECT_TRUE(std::isnan(edge[1]));
  EXPECT_EQ(edge[2], 0.0f);
  EXPECT_FALSE(std::signbit(edge[2]));
  EXPECT_EQ(edge[3], 0.0f);
}

// The layer's forward output and its backward (grad * mask) must match the
// reference, including when the mask buffer is reused across same-shape
// calls and reallocated on a shape change.
TEST(LoweringParity, ReluLayerMatchesReferenceAcrossMaskReuse) {
  Rng rng(404);
  nn::Relu relu;
  const Shape shapes[] = {Shape{3, 17}, Shape{3, 17}, Shape{2, 3, 5, 5},
                          Shape{2, 3, 5, 5}, Shape{3, 17}};
  for (const Shape& shape : shapes) {
    for (int rep = 0; rep < 20; ++rep) {
      Tensor x(shape);
      fill_special(x, rng);
      Tensor grad(shape);
      fill_special(grad, rng);

      Tensor want_out = x;
      relu_inplace_ref(want_out);
      const Tensor mask = relu_mask_ref(x);
      Tensor want_grad = grad;
      float* p = want_grad.data();
      for (std::size_t i = 0; i < grad.numel(); ++i) p[i] *= mask[i];

      Tensor got_out = relu.forward(x, true);
      ASSERT_TRUE(same_bits(want_out.data(), got_out.data(), x.numel()));
      Tensor got_grad = relu.backward(grad, /*input_grad=*/true);
      ASSERT_TRUE(same_bits(want_grad.data(), got_grad.data(), x.numel()));
    }
  }
}

// Forward output bits must match; the argmax routing must match wherever
// the reference found a maximum above -inf. A window without one routes to
// its own first element (the reference sent it to flat index 0).
TEST(LoweringParity, MaxPoolMatchesReferenceBitForBit) {
  Rng rng(505);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t window = draw(rng, 1, 3);
    const std::size_t stride = draw(rng, 1, 3);
    const std::size_t n = draw(rng, 1, 2);
    const std::size_t c = draw(rng, 1, 3);
    const std::size_t h = draw(rng, window, 9);
    const std::size_t w = draw(rng, window, 9);
    Tensor x(Shape{n, c, h, w});
    fill_special(x, rng);
    // Some all -inf / NaN windows.
    if (rng.uniform() < 0.2) {
      const float fill = rng.uniform() < 0.5
                             ? -std::numeric_limits<float>::infinity()
                             : std::numeric_limits<float>::quiet_NaN();
      std::fill(x.data(), x.data() + h * w, fill);
    }

    std::vector<std::size_t> argmax;
    const Tensor want = maxpool_forward_ref(x, window, stride, argmax);
    const std::size_t oh = want.shape()[2];
    const std::size_t ow = want.shape()[3];
    for (std::size_t i = 0; i < want.numel(); ++i) {
      if (want[i] != -std::numeric_limits<float>::infinity()) continue;
      const std::size_t plane = i / (oh * ow);
      const std::size_t y = (i % (oh * ow)) / ow;
      const std::size_t xo = i % ow;
      argmax[i] = plane * h * w + y * stride * w + xo * stride;
    }

    nn::MaxPool2d pool(window, stride);
    const Tensor got = pool.forward(x, true);
    ASSERT_TRUE(want.shape() == got.shape());
    ASSERT_TRUE(same_bits(want.data(), got.data(), want.numel()));

    // Distinct exact gradient values identify which input each output
    // routed to; overlapping windows add in the same ascending order.
    Tensor g(want.shape());
    for (std::size_t i = 0; i < g.numel(); ++i)
      g[i] = static_cast<float>(i + 1);
    Tensor want_grad(x.shape());
    for (std::size_t i = 0; i < g.numel(); ++i) want_grad[argmax[i]] += g[i];
    const Tensor got_grad = pool.backward(g, /*input_grad=*/true);
    ASSERT_TRUE(same_bits(want_grad.data(), got_grad.data(), x.numel()))
        << "window=" << window << " stride=" << stride;
  }
}

// --- GEMM stages -----------------------------------------------------------

TEST(LoweringParity, WriteBackEveryModeMatchesReference) {
  Rng rng(606);
  const BiasMode modes[] = {BiasMode::kNone, BiasMode::kPerRow,
                            BiasMode::kPerCol};
  const float betas[] = {0.0f, -0.0f, 1.0f, 0.5f, -1.25f,
                         std::numeric_limits<float>::quiet_NaN()};
  const float alphas[] = {1.0f, -0.75f, 0.0f};
  for (const BiasMode mode : modes) {
    for (const float beta : betas) {
      for (const float alpha : alphas) {
        for (std::size_t mr = 1; mr <= 7; ++mr) {
          const std::size_t nr_stride = rng.uniform() < 0.5 ? 16 : 32;
          const std::size_t nr = draw(rng, 1, nr_stride);
          const std::size_t ldc = nr + draw(rng, 0, 4);
          const std::size_t row0 = draw(rng, 0, 3);
          const std::size_t col0 = draw(rng, 0, 3);
          std::vector<float> tile(mr * nr_stride), bias(64);
          fill_special(tile, rng);
          fill_special(bias, rng);
          std::vector<float> want((mr - 1) * ldc + nr);
          fill_special(want, rng);
          std::vector<float> got = want;
          write_back_ref(tile.data(), nr_stride, want.data(), ldc, mr, nr,
                         alpha, beta, mode, bias.data(), row0, col0);
          gemm_stages::select_write_back(beta != 0.0f, mode)(
              tile.data(), nr_stride, got.data(), ldc, mr, nr, alpha, beta,
              bias.data(), row0, col0);
          ASSERT_TRUE(
              same_bits_or_both_nan(want.data(), got.data(), want.size()))
              << "mode=" << static_cast<int>(mode) << " beta=" << beta
              << " alpha=" << alpha << " mr=" << mr << " nr=" << nr;
        }
      }
    }
  }
}

TEST(LoweringParity, PackingMatchesReferenceBitForBit) {
  Rng rng(707);
  for (int trial = 0; trial < 2000; ++trial) {
    const bool trans = rng.uniform() < 0.5;
    const std::size_t nr = rng.uniform() < 0.5 ? 16 : 32;
    const std::size_t kb = draw(rng, 1, 40);
    const std::size_t nb = draw(rng, 1, 80);
    const std::size_t row0 = draw(rng, 0, 5);
    const std::size_t col0 = draw(rng, 0, 5);
    // op(B) is [row0+kb, col0+nb]; stored [N, K] when transposed.
    const std::size_t rows = trans ? col0 + nb : row0 + kb;
    const std::size_t cols = trans ? row0 + kb : col0 + nb;
    const std::size_t ld = cols + draw(rng, 0, 3);
    std::vector<float> b((rows - 1) * ld + cols);
    fill_special(b, rng);
    const std::size_t panels = (nb + nr - 1) / nr;
    std::vector<float> want(panels * nr * kb, 3.0f), got = want;
    pack_b_ref(trans, b.data(), ld, row0, col0, kb, nb, nr, want.data());
    gemm_stages::pack_b(trans, b.data(), ld, row0, col0, kb, nb, nr,
                        got.data());
    ASSERT_TRUE(same_bits(want.data(), got.data(), want.size()))
        << "pack_b trans=" << trans << " kb=" << kb << " nb=" << nb;

    // pack_a over an [mb, kb] block of op(A) = [row0+mb, col0+kb].
    const std::size_t mb = draw(rng, 1, 20);
    const std::size_t arows = trans ? col0 + kb : row0 + mb;
    const std::size_t acols = trans ? row0 + mb : col0 + kb;
    const std::size_t lda = acols + draw(rng, 0, 3);
    std::vector<float> a((arows - 1) * lda + acols);
    fill_special(a, rng);
    const std::size_t strips = (mb + kMr - 1) / kMr;
    std::vector<float> want_a(strips * kMr * kb, 3.0f), got_a = want_a;
    pack_a_ref(trans, a.data(), lda, row0, col0, mb, kb, want_a.data());
    gemm_stages::pack_a(trans, a.data(), lda, row0, col0, mb, kb,
                        got_a.data());
    ASSERT_TRUE(same_bits(want_a.data(), got_a.data(), want_a.size()))
        << "pack_a trans=" << trans << " kb=" << kb << " mb=" << mb;
  }
}

// The whole macro loop (k-panels outermost, A packed once per k-panel,
// specialised write-back) against the pre-hoist loop, on every kernel tier
// the host runs, serially and with leased workers. Shapes cross the 256
// column and k block edges.
TEST(LoweringParity, GemmMacroLoopMatchesReferenceBitForBit) {
  struct Case {
    std::size_t m, n, k;
  };
  const Case cases[] = {{1, 1, 1},      {3, 588, 25},   {5, 75, 600},
                        {7, 300, 257},  {13, 520, 9},   {75, 600, 5},
                        {24, 82, 245},  {40, 513, 300}, {66, 700, 280},
                        {6, 16, 40},    {4, 48, 300},   {9, 272, 17}};
  const GemmKernel kernels[] = {GemmKernel::kPortable, GemmKernel::kAvx2Fma,
                                GemmKernel::kAvx512};
  const GemmKernel original = active_gemm_kernel();
  Rng rng(808);
  for (const GemmKernel kernel : kernels) {
    if (kernel == GemmKernel::kAvx512 && !cpu_supports_avx512()) continue;
    if (kernel == GemmKernel::kAvx2Fma && !cpu_supports_avx2_fma()) continue;
    force_gemm_kernel(kernel);
    for (const std::size_t budget : {std::size_t{1}, std::size_t{4}}) {
      Scheduler::instance().configure(budget, 1);
      for (const Case& cs : cases) {
        for (int variant = 0; variant < 4; ++variant) {
          const bool ta = (variant & 1) != 0;
          const bool tb = (variant & 2) != 0;
          const float beta = variant == 3 ? 0.5f : (variant == 1 ? 1.0f : 0.0f);
          const BiasMode mode = static_cast<BiasMode>(variant % 3);
          const std::size_t lda = (ta ? cs.m : cs.k) + 1;
          const std::size_t ldb = (tb ? cs.k : cs.n) + 2;
          const std::size_t ldc = cs.n + 3;
          std::vector<float> a((ta ? cs.k : cs.m) * lda);
          std::vector<float> b((tb ? cs.n : cs.k) * ldb);
          std::vector<float> bias(std::max(cs.m, cs.n));
          for (float& v : a) v = static_cast<float>(rng.normal());
          for (float& v : b) v = static_cast<float>(rng.normal());
          for (float& v : bias) v = static_cast<float>(rng.normal());
          std::vector<float> want(cs.m * ldc);
          for (float& v : want) v = static_cast<float>(rng.normal());
          std::vector<float> got = want;
          gemm_bias_ref(ta, tb, cs.m, cs.n, cs.k, 0.75f, a.data(), lda,
                        b.data(), ldb, beta, want.data(), ldc, mode,
                        bias.data());
          gemm_bias(ta, tb, cs.m, cs.n, cs.k, 0.75f, a.data(), lda, b.data(),
                    ldb, beta, got.data(), ldc, mode, bias.data());
          ASSERT_TRUE(same_bits(want.data(), got.data(), want.size()))
              << gemm_kernel_name(kernel) << " budget=" << budget
              << " m=" << cs.m << " n=" << cs.n << " k=" << cs.k
              << " ta=" << ta << " tb=" << tb;
        }
      }
    }
  }
  Scheduler::instance().configure(0, 1);
  force_gemm_kernel(original);
}

}  // namespace
}  // namespace fedl
