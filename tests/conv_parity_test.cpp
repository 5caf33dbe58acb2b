// Bit-parity suite for the implicit-GEMM convolution.
//
// nn::Conv2d reads its column matrix in place from a zero-padded copy of the
// input; conv_reference::LegacyConv2d is the explicit im2col + GEMM layer
// it replaced, multiplying through a per-element loop in the GEMM's pinned
// floating-point order rather than through the GEMM itself. Every
// comparison is a memcmp (two NaNs match: an operation meeting two NaN
// operands may return either payload) over forward outputs in train and
// eval mode, dW, db and the input gradient, on every kernel tier the host
// runs, serially and with leased workers. Geometries cover one and several
// 6-row strips (C_out 1-20), column matrices past one 256-row k-panel,
// kernels 1-5 with padding 0-K, output widths either side of the 16- and
// 32-lane tiles, and batches that are not multiples of the 8-sample
// weight-gradient block; inputs and weights carry NaN, ±inf and -0.0.
// Whole factory CNNs at the workload widths are compared through
// forward_backward and evaluate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/factory.h"
#include "nn/model.h"
#include "nn/pool.h"
#include "parallel/scheduler.h"
#include "tensor/simd_dispatch.h"

#include "conv_reference.h"

namespace fedl {
namespace {

using conv_reference::LegacyConv2d;

bool same_bits_or_both_nan(const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) return false;
  }
  return true;
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         same_bits_or_both_nan(a.data(), b.data(), a.numel());
}

std::size_t draw(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

// Normal values; with probability `special` an element is instead NaN,
// ±inf or -0.0, and zeros of both signs appear regardless.
void fill(Tensor& t, double special, Rng& rng) {
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double u = rng.uniform();
    if (u < special * 0.25) {
      t[i] = std::numeric_limits<float>::quiet_NaN();
    } else if (u < special * 0.5) {
      t[i] = std::numeric_limits<float>::infinity();
    } else if (u < special * 0.75) {
      t[i] = -std::numeric_limits<float>::infinity();
    } else if (u < special) {
      t[i] = -0.0f;
    } else if (u < special + 0.02) {
      t[i] = rng.uniform() < 0.5 ? 0.0f : -0.0f;
    } else {
      t[i] = static_cast<float>(rng.normal());
    }
  }
}

const GemmKernel kTiers[] = {GemmKernel::kPortable, GemmKernel::kAvx2Fma,
                             GemmKernel::kAvx512};

bool runnable(GemmKernel kernel) {
  if (kernel == GemmKernel::kAvx512) return cpu_supports_avx512();
  if (kernel == GemmKernel::kAvx2Fma) return cpu_supports_avx2_fma();
  return true;
}

// Runs `body` once per runnable tier and thread budget, restoring both.
template <class Body>
void on_every_tier(const Body& body) {
  const GemmKernel original = active_gemm_kernel();
  for (const GemmKernel kernel : kTiers) {
    if (!runnable(kernel)) continue;
    force_gemm_kernel(kernel);
    for (const std::size_t budget : {std::size_t{1}, std::size_t{4}}) {
      Scheduler::instance().configure(budget, 1);
      body(std::string(gemm_kernel_name(kernel)) +
           " budget=" + std::to_string(budget));
    }
  }
  Scheduler::instance().configure(0, 1);
  force_gemm_kernel(original);
}

struct ConvCase {
  std::size_t c_in, c_out, k, pad, h, w;

  std::string str() const {
    return "C_in=" + std::to_string(c_in) + " C_out=" + std::to_string(c_out) +
           " K=" + std::to_string(k) + " pad=" + std::to_string(pad) +
           " H=" + std::to_string(h) + " W=" + std::to_string(w);
  }
};

// Output widths either side of the 16- and 32-lane tiles and of the
// workloads' 14/28 (FMNIST) and 15/32 (CIFAR).
constexpr std::size_t kOutWidths[] = {1, 7, 8, 14, 15, 16, 17, 28, 32, 33};

ConvCase random_case(Rng& rng) {
  ConvCase cs{};
  cs.k = draw(rng, 1, 5);
  // One case in five has a column matrix past one 256-row k-panel.
  cs.c_in = rng.uniform() < 0.2 ? draw(rng, 11, 12) : draw(rng, 1, 3);
  if (cs.c_in > 3) cs.k = 5;
  cs.c_out = draw(rng, 1, 20);
  cs.pad = draw(rng, 0, cs.k);
  const std::size_t ow = kOutWidths[draw(rng, 0, 9)];
  // ow = W + 2·pad − K + 1 with W ≥ 1: shrink the padding until W fits.
  while (ow + cs.k < 2 + 2 * cs.pad) --cs.pad;
  cs.w = ow + cs.k - 1 - 2 * cs.pad;
  const std::size_t h_min = cs.k > 2 * cs.pad ? cs.k - 2 * cs.pad : 1;
  cs.h = draw(rng, h_min, h_min + (cs.c_in > 3 ? 2 : 5));
  return cs;
}

void copy_params(nn::Layer& from, nn::Layer& to) {
  for (std::size_t i = 0; i < from.params().size(); ++i)
    *to.params()[i] = *from.params()[i];
}

// Two train steps (the second accumulates into the first's gradients) with
// an eval forward of a different batch between each forward and backward.
void expect_layer_parity(const ConvCase& cs, Rng& rng,
                         const std::string& where) {
  Rng init(1);
  nn::Conv2d conv(cs.c_in, cs.c_out, cs.k, cs.pad, cs.h, cs.w, init);
  LegacyConv2d ref(cs.c_in, cs.c_out, cs.k, cs.pad, cs.h, cs.w, init);
  const double special = rng.uniform() < 0.5 ? 0.0 : 0.004;
  fill(*conv.params()[0], rng.uniform() < 0.5 ? 0.0 : 0.02, rng);
  fill(*conv.params()[1], special, rng);
  copy_params(conv, ref);
  const std::string what = where + " " + cs.str();

  for (int step = 0; step < 2; ++step) {
    const std::size_t n = draw(rng, 1, 19);
    Tensor x(Shape{n, cs.c_in, cs.h, cs.w});
    fill(x, special, rng);
    const Tensor want = ref.forward(x, /*train=*/true);
    const Tensor got = conv.forward(x, /*train=*/true);
    ASSERT_TRUE(same_tensor(want, got)) << "train forward " << what;

    Tensor x_eval(Shape{draw(rng, 1, 9), cs.c_in, cs.h, cs.w});
    fill(x_eval, special, rng);
    ASSERT_TRUE(same_tensor(ref.forward(x_eval, false),
                            conv.forward(x_eval, false)))
        << "eval forward " << what;

    Tensor g(want.shape());
    fill(g, special, rng);
    const bool input_grad = rng.uniform() < 0.7;
    const Tensor gi_want = ref.backward(g, input_grad);
    const Tensor gi_got = conv.backward(g, input_grad);
    ASSERT_TRUE(same_tensor(*ref.grads()[0], *conv.grads()[0]))
        << "dW step " << step << " n=" << n << " " << what;
    ASSERT_TRUE(same_tensor(*ref.grads()[1], *conv.grads()[1]))
        << "db step " << step << " " << what;
    ASSERT_EQ(gi_want.empty(), gi_got.empty());
    if (input_grad) {
      ASSERT_TRUE(same_tensor(gi_want, gi_got)) << "input grad " << what;
    }
  }
}

TEST(ConvParity, LayerMatchesIm2colPathOnEveryTier) {
  Rng rng(909);
  on_every_tier([&](const std::string& where) {
    for (int trial = 0; trial < 40; ++trial)
      expect_layer_parity(random_case(rng), rng, where);
  });
}

// The workloads' own conv shapes (FMNIST x0.08 and CIFAR x0.25).
TEST(ConvParity, WorkloadShapesMatchIm2colPath) {
  const ConvCase shapes[] = {{1, 3, 5, 2, 28, 28},  {3, 5, 5, 2, 14, 14},
                             {3, 16, 5, 2, 32, 32}, {16, 16, 5, 2, 15, 15}};
  Rng rng(910);
  on_every_tier([&](const std::string& where) {
    for (const ConvCase& cs : shapes) expect_layer_parity(cs, rng, where);
  });
}

// The factory CNN with every Conv2d swapped for the im2col layer, built
// from the same seed: parameters are drawn in the same order.
nn::Model legacy_model(bool cifar, const nn::ModelSpec& ms, Rng& rng) {
  const auto scaled = [&](std::size_t units) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(units * ms.width_scale)));
  };
  nn::Model m(ms.l2_reg);
  const std::size_t c1 = scaled(cifar ? 64 : 32);
  const std::size_t c2 = scaled(64);
  const std::size_t pool = cifar ? 3 : 2;
  const std::size_t h1 = cifar ? (ms.image_h - 3) / 2 + 1 : ms.image_h / 2;
  const std::size_t w1 = cifar ? (ms.image_w - 3) / 2 + 1 : ms.image_w / 2;
  const std::size_t h2 = cifar ? (h1 - 3) / 2 + 1 : h1 / 2;
  const std::size_t w2 = cifar ? (w1 - 3) / 2 + 1 : w1 / 2;
  m.add(std::make_unique<LegacyConv2d>(ms.channels, c1, 5, 2, ms.image_h,
                                       ms.image_w, rng));
  m.add(std::make_unique<nn::Relu>());
  m.add(std::make_unique<nn::MaxPool2d>(pool, 2));
  m.add(std::make_unique<LegacyConv2d>(c1, c2, 5, 2, h1, w1, rng));
  m.add(std::make_unique<nn::Relu>());
  m.add(std::make_unique<nn::MaxPool2d>(pool, 2));
  m.add(std::make_unique<nn::Flatten>());
  if (cifar) {
    m.add(std::make_unique<nn::Dense>(c2 * h2 * w2, scaled(384), rng));
    m.add(std::make_unique<nn::Relu>());
    m.add(std::make_unique<nn::Dense>(scaled(384), scaled(192), rng));
    m.add(std::make_unique<nn::Relu>());
    m.add(std::make_unique<nn::Dense>(scaled(192), ms.num_classes, rng));
  } else {
    m.add(std::make_unique<nn::Dense>(c2 * h2 * w2, scaled(1024), rng));
    m.add(std::make_unique<nn::Relu>());
    m.add(std::make_unique<nn::Dense>(scaled(1024), ms.num_classes, rng));
  }
  return m;
}

nn::Batch random_batch(const nn::ModelSpec& ms, std::size_t n, Rng& rng) {
  nn::Batch b;
  b.x = Tensor::uniform(Shape{n, ms.channels, ms.image_h, ms.image_w}, -1.0f,
                        1.0f, rng);
  b.y.resize(n);
  for (auto& y : b.y) y = static_cast<std::uint8_t>(rng.uniform_int(0, 9));
  return b;
}

bool same_vec(const ParamVec& a, const ParamVec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// FMNIST CNN at x0.08 (roster_grid, async_event: batch 24) and CIFAR CNN
// at x0.25 (wide_cnn: batch 32), each over two train steps and a 40-sample
// evaluate.
TEST(ConvParity, FactoryModelsMatchAtWorkloadWidths) {
  struct Config {
    bool cifar;
    double width;
    std::size_t batch;
  };
  const Config configs[] = {{false, 0.08, 24}, {true, 0.25, 32}};
  on_every_tier([&](const std::string& where) {
    for (const Config& cfg : configs) {
      nn::ModelSpec ms;
      ms.width_scale = cfg.width;
      if (cfg.cifar) {
        ms.image_h = ms.image_w = 32;
        ms.channels = 3;
      }
      Rng rng(31), ref_rng(31), data(32);
      nn::Model model = cfg.cifar ? nn::make_cifar_cnn(ms, rng)
                                  : nn::make_fmnist_cnn(ms, rng);
      nn::Model ref = legacy_model(cfg.cifar, ms, ref_rng);
      ASSERT_TRUE(same_vec(model.params_flat(), ref.params_flat())) << where;
      for (int step = 0; step < 2; ++step) {
        const nn::Batch b = random_batch(ms, cfg.batch, data);
        const nn::EvalResult got = model.forward_backward(b);
        const nn::EvalResult want = ref.forward_backward(b);
        EXPECT_EQ(std::memcmp(&got.loss, &want.loss, sizeof(double)), 0)
            << where << " cifar=" << cfg.cifar;
        EXPECT_TRUE(same_vec(model.grads_flat(), ref.grads_flat()))
            << where << " cifar=" << cfg.cifar;
      }
      const nn::Batch eval = random_batch(ms, 40, data);
      const nn::EvalResult got = model.evaluate(eval);
      const nn::EvalResult want = ref.evaluate(eval);
      EXPECT_EQ(std::memcmp(&got.loss, &want.loss, sizeof(double)), 0) << where;
      EXPECT_EQ(got.accuracy, want.accuracy) << where;
    }
  });
}

}  // namespace
}  // namespace fedl
