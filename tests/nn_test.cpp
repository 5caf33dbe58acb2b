// Unit tests for the NN library. The load-bearing tests are the
// finite-difference gradient checks: every layer's backward pass (and the
// whole model's flat gradient) is verified against numerical derivatives.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/factory.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/pool.h"

namespace fedl::nn {
namespace {

// Central-difference gradient of `model` loss w.r.t. its flat parameters,
// compared against grads_flat() from backprop.
void check_model_gradient(Model& model, const Batch& batch,
                          double rel_tol = 2e-2, double abs_tol = 2e-3,
                          std::size_t probes = 24) {
  model.forward_backward(batch);
  const ParamVec analytic = model.grads_flat();
  ParamVec w = model.params_flat();
  Rng rng(12345);

  const float eps = 5e-3f;
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.size()) - 1));
    ParamVec wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    model.set_params_flat(wp);
    const double lp = model.evaluate(batch).loss;
    model.set_params_flat(wm);
    const double lm = model.evaluate(batch).loss;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                abs_tol + rel_tol * std::abs(numeric))
        << "param index " << i;
  }
  model.set_params_flat(w);
}

Batch make_random_batch(Shape x_shape, std::size_t classes, Rng& rng) {
  Batch b;
  b.x = Tensor::uniform(x_shape, -1.0f, 1.0f, rng);
  b.y.resize(x_shape[0]);
  for (auto& y : b.y)
    y = static_cast<std::uint8_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
  return b;
}

// --- loss ---------------------------------------------------------------------

TEST(Loss, UniformLogitsGiveLogC) {
  Tensor logits(Shape{4, 10});  // all zeros -> uniform softmax
  std::vector<std::uint8_t> y = {0, 3, 7, 9};
  const auto r = softmax_cross_entropy(logits, y);
  EXPECT_NEAR(r.loss, std::log(10.0), 1e-5);
}

TEST(Loss, PerfectPredictionLowLoss) {
  Tensor logits(Shape{2, 3});
  logits.at(0, 1) = 50.0f;
  logits.at(1, 2) = 50.0f;
  std::vector<std::uint8_t> y = {1, 2};
  const auto r = softmax_cross_entropy(logits, y);
  EXPECT_LT(r.loss, 1e-6);
  EXPECT_EQ(r.correct, 2u);
}

TEST(Loss, GradientRowsSumToZero) {
  Rng rng(2);
  Tensor logits = Tensor::uniform(Shape{3, 5}, -2.0f, 2.0f, rng);
  std::vector<std::uint8_t> y = {0, 2, 4};
  const auto r = softmax_cross_entropy(logits, y);
  for (std::size_t row = 0; row < 3; ++row) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 5; ++c) sum += r.grad_logits.at(row, c);
    EXPECT_NEAR(sum, 0.0f, 1e-5f);  // softmax-CE gradient rows sum to 0
  }
}

TEST(Loss, ValueOnlyMatchesFullVersion) {
  Rng rng(3);
  Tensor logits = Tensor::uniform(Shape{6, 4}, -3.0f, 3.0f, rng);
  std::vector<std::uint8_t> y = {0, 1, 2, 3, 1, 2};
  const auto full = softmax_cross_entropy(logits, y);
  std::size_t correct = 0;
  const double v = softmax_cross_entropy_value(logits, y, &correct);
  EXPECT_NEAR(v, full.loss, 1e-9);
  EXPECT_EQ(correct, full.correct);
}

TEST(Loss, BadLabelThrows) {
  Tensor logits(Shape{1, 3});
  std::vector<std::uint8_t> y = {3};
  EXPECT_THROW(softmax_cross_entropy(logits, y), CheckError);
}

// --- layer gradient checks --------------------------------------------------------

TEST(GradCheck, DenseOnly) {
  Rng rng(4);
  Model m(0.0);
  m.add(std::make_unique<Dense>(6, 4, rng));
  Batch b = make_random_batch(Shape{5, 6}, 4, rng);
  check_model_gradient(m, b);
}

TEST(GradCheck, DenseWithL2Reg) {
  Rng rng(5);
  Model m(0.05);
  m.add(std::make_unique<Dense>(4, 3, rng));
  Batch b = make_random_batch(Shape{3, 4}, 3, rng);
  check_model_gradient(m, b);
}

TEST(GradCheck, MlpWithRelu) {
  Rng rng(6);
  Model m(0.0);
  m.add(std::make_unique<Dense>(5, 8, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<Dense>(8, 3, rng));
  Batch b = make_random_batch(Shape{4, 5}, 3, rng);
  check_model_gradient(m, b);
}

TEST(GradCheck, ConvReluPoolDense) {
  Rng rng(7);
  Model m(0.0);
  m.add(std::make_unique<Conv2d>(2, 3, 3, 1, 1, 6, 6, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<MaxPool2d>(2, 2));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(3 * 3 * 3, 4, rng));
  Batch b = make_random_batch(Shape{2, 2, 6, 6}, 4, rng);
  check_model_gradient(m, b);
}

TEST(GradCheck, PaperFmnistCnnTinyWidth) {
  Rng rng(8);
  ModelSpec spec;
  spec.image_h = spec.image_w = 8;  // small spatial dims for speed
  spec.channels = 1;
  spec.width_scale = 0.05;
  spec.l2_reg = 0.0;
  Model m = make_fmnist_cnn(spec, rng);
  Batch b = make_random_batch(Shape{2, 1, 8, 8}, 10, rng);
  check_model_gradient(m, b, 3e-2, 3e-3, 16);
}

// --- layer shape behaviour ---------------------------------------------------------

TEST(Dense, ForwardShapeAndBias) {
  Rng rng(9);
  Dense d(3, 2, rng);
  Tensor x = Tensor::zeros(Shape{4, 3});
  Tensor out = d.forward(x, false);
  EXPECT_TRUE((out.shape() == Shape{4, 2}));
  // Zero input -> output equals bias (zero-initialized).
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out[i], 0.0f);
}

TEST(Dense, BackwardBeforeForwardThrows) {
  Rng rng(10);
  Dense d(3, 2, rng);
  Tensor g(Shape{1, 2});
  EXPECT_THROW(d.backward(g, /*input_grad=*/true), CheckError);
}

TEST(Conv2d, OutputShapeSamePadding) {
  Rng rng(11);
  Conv2d c(1, 4, 5, 1, 2, 28, 28, rng);
  Tensor x(Shape{2, 1, 28, 28});
  Tensor out = c.forward(x, false);
  EXPECT_TRUE((out.shape() == Shape{2, 4, 28, 28}));
}

TEST(Conv2d, KnownValueIdentityKernel) {
  Rng rng(12);
  Conv2d c(1, 1, 1, 1, 0, 2, 2, rng);
  // Force weight = 2, bias = 1.
  auto params = c.params();
  params[0]->fill(2.0f);
  params[1]->fill(1.0f);
  Tensor x(Shape{1, 1, 2, 2});
  x.at(0, 0, 0, 1) = 3.0f;
  Tensor out = c.forward(x, false);
  EXPECT_EQ(out.at(0, 0, 0, 1), 7.0f);  // 2*3 + 1
  EXPECT_EQ(out.at(0, 0, 0, 0), 1.0f);  // 2*0 + 1
}

TEST(MaxPool2d, SelectsMaximaAndRoutesGradient) {
  MaxPool2d p(2, 2);
  Tensor x(Shape{1, 1, 2, 2});
  x.at(0, 0, 0, 0) = 1.0f;
  x.at(0, 0, 0, 1) = 5.0f;
  x.at(0, 0, 1, 0) = 2.0f;
  x.at(0, 0, 1, 1) = 3.0f;
  Tensor out = p.forward(x, true);
  ASSERT_EQ(out.numel(), 1u);
  EXPECT_EQ(out[0], 5.0f);
  Tensor g(Shape{1, 1, 1, 1});
  g[0] = 10.0f;
  Tensor gx = p.backward(g, /*input_grad=*/true);
  EXPECT_EQ(gx.at(0, 0, 0, 1), 10.0f);
  EXPECT_EQ(gx.at(0, 0, 0, 0), 0.0f);
}

// A window with no value above -inf (all -inf, or NaN) has no argmax by
// comparison; its gradient must go to an element of that same window, not
// to element 0 of the batch (another channel here).
TEST(MaxPool2d, WindowWithoutFiniteMaxRoutesGradientIntoItself) {
  MaxPool2d p(2, 2);
  Tensor x(Shape{1, 2, 2, 2});
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < 4; ++i) {
    x[i] = static_cast<float>(i + 1);  // channel 0: max 4 at index 3
    x[4 + i] = -inf;                   // channel 1: all -inf
  }
  Tensor out = p.forward(x, true);
  ASSERT_EQ(out.numel(), 2u);
  EXPECT_EQ(out[0], 4.0f);
  EXPECT_EQ(out[1], -inf);
  Tensor g(Shape{1, 2, 1, 1});
  g[0] = 10.0f;
  g[1] = 7.0f;
  Tensor gx = p.backward(g, /*input_grad=*/true);
  EXPECT_EQ(gx.at(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(gx.at(0, 0, 1, 1), 10.0f);
  EXPECT_EQ(gx.at(0, 1, 0, 0), 7.0f);  // the window's first element

  // Same for an all-NaN window.
  for (std::size_t i = 0; i < 4; ++i)
    x[4 + i] = std::numeric_limits<float>::quiet_NaN();
  p.forward(x, true);
  Tensor gn = p.backward(g, /*input_grad=*/true);
  EXPECT_EQ(gn.at(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(gn.at(0, 1, 0, 0), 7.0f);
}

TEST(Flatten, RoundTripsShape) {
  Flatten f;
  Tensor x(Shape{2, 3, 4, 5});
  Tensor out = f.forward(x, true);
  EXPECT_TRUE((out.shape() == Shape{2, 60}));
  Tensor g(Shape{2, 60});
  Tensor gx = f.backward(g, /*input_grad=*/true);
  EXPECT_TRUE((gx.shape() == Shape{2, 3, 4, 5}));
}

// --- model flat-vector interface -----------------------------------------------------

TEST(Model, FlatParamRoundTrip) {
  Rng rng(13);
  Model m = make_mlp(6, 10, 4, 0.0, rng);
  ParamVec w = m.params_flat();
  EXPECT_EQ(w.size(), m.num_params());
  ParamVec w2 = w;
  for (auto& v : w2) v += 1.0f;
  m.set_params_flat(w2);
  EXPECT_EQ(m.params_flat(), w2);
  EXPECT_THROW(m.set_params_flat(ParamVec(w.size() + 1)), CheckError);
}

TEST(Model, NumParamsMatchesArchitecture) {
  Rng rng(14);
  Model m = make_logistic(10, 3, 0.0, rng);
  EXPECT_EQ(m.num_params(), 10u * 3u + 3u);
}

TEST(Model, FactoryPaperCnnShapes) {
  Rng rng(15);
  ModelSpec fm;  // defaults: 28x28x1
  fm.width_scale = 1.0;
  Model fmnist = make_fmnist_cnn(fm, rng);
  // conv1: 32*(1*5*5)+32, conv2: 64*(32*5*5)+64, fc: 1024*(64*7*7)+1024,
  // out: 10*1024+10.
  const std::size_t expect = 32 * 25 + 32 + 64 * 32 * 25 + 64 +
                             1024 * 64 * 7 * 7 + 1024 + 10 * 1024 + 10;
  EXPECT_EQ(fmnist.num_params(), expect);

  ModelSpec cf;
  cf.image_h = cf.image_w = 32;
  cf.channels = 3;
  cf.width_scale = 1.0;
  Model cifar = make_cifar_cnn(cf, rng);
  Rng brng(16);
  Batch b;
  b.x = Tensor::uniform(Shape{1, 3, 32, 32}, -1.0f, 1.0f, brng);
  b.y = {0};
  // Forward must produce 10 logits without shape errors.
  Tensor logits = cifar.forward(b.x, false);
  EXPECT_TRUE((logits.shape() == Shape{1, 10}));
}

TEST(Model, TrainingReducesLossOnSeparableData) {
  // Two well-separated Gaussian blobs; logistic regression + plain gradient
  // steps must fit them.
  Rng rng(17);
  const std::size_t n = 60, dim = 4;
  Batch b;
  b.x = Tensor(Shape{n, dim});
  b.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = i % 2;
    b.y[i] = static_cast<std::uint8_t>(cls);
    for (std::size_t d = 0; d < dim; ++d)
      b.x.at(i, d) = static_cast<float>(rng.normal(cls ? 2.0 : -2.0, 0.5));
  }
  Model m = make_logistic(dim, 2, 0.0, rng);
  const double loss0 = m.evaluate(b).loss;
  for (int step = 0; step < 60; ++step) {
    m.forward_backward(b);
    ParamVec w = m.params_flat();
    ParamVec g = m.grads_flat();
    axpy(-0.5f, std::span<const float>(g), std::span<float>(w));
    m.set_params_flat(w);
  }
  const auto final = m.evaluate(b);
  EXPECT_LT(final.loss, 0.3 * loss0);
  EXPECT_GT(final.accuracy, 0.95);
}

TEST(Model, ZeroGradClearsBuffers) {
  Rng rng(18);
  Model m = make_mlp(3, 4, 2, 0.0, rng);
  Batch b = make_random_batch(Shape{2, 3}, 2, rng);
  m.forward_backward(b);
  ParamVec g = m.grads_flat();
  bool any_nonzero = false;
  for (float v : g) any_nonzero |= (v != 0.0f);
  EXPECT_TRUE(any_nonzero);
  m.zero_grad();
  for (float v : m.grads_flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Model, EvaluateMatchesForwardBackwardLoss) {
  Rng rng(19);
  Model m = make_mlp(5, 6, 3, 0.01, rng);
  Batch b = make_random_batch(Shape{4, 5}, 3, rng);
  const double l1 = m.forward_backward(b).loss;
  const double l2 = m.evaluate(b).loss;
  EXPECT_NEAR(l1, l2, 1e-9);
}

TEST(Model, CloneIsDeepAndBehaviorallyIdentical) {
  // clone() backs the FL engine's per-thread scratch replicas: it must copy
  // parameters exactly and share no buffers with the original.
  Rng rng(20);
  ModelSpec ms;
  ms.width_scale = 0.05;
  Model m = make_fmnist_cnn(ms, rng);
  Batch b = make_random_batch(Shape{2, 1, 28, 28}, 10, rng);

  Model c = m.clone();
  EXPECT_EQ(c.num_layers(), m.num_layers());
  EXPECT_EQ(c.num_params(), m.num_params());
  EXPECT_EQ(c.params_flat(), m.params_flat());
  EXPECT_EQ(c.l2_reg(), m.l2_reg());

  // Same forward/backward numbers, bit for bit.
  const EvalResult rm = m.forward_backward(b);
  const EvalResult rc = c.forward_backward(b);
  EXPECT_EQ(rm.loss, rc.loss);
  EXPECT_EQ(rm.accuracy, rc.accuracy);
  EXPECT_EQ(m.grads_flat(), c.grads_flat());

  // Mutating the clone leaves the original untouched (deep copy).
  ParamVec w = c.params_flat();
  for (auto& v : w) v += 1.0f;
  c.set_params_flat(w);
  EXPECT_NE(c.params_flat(), m.params_flat());
}

TEST(Model, SharedReplicaBorrowsParamsAndComputesIdentically) {
  // shared_replica() backs the FL engine's slot-keyed scratch pool: the
  // replica reads the base model's parameter bytes (no copy) but owns its
  // gradients and caches, so concurrent forward/backward on replicas of one
  // base is safe and bit-identical to running the base itself.
  Rng rng(21);
  ModelSpec ms;
  ms.width_scale = 0.05;
  Model m = make_fmnist_cnn(ms, rng);
  Batch b = make_random_batch(Shape{2, 1, 28, 28}, 10, rng);

  Model r = m.shared_replica();
  EXPECT_EQ(r.params_flat(), m.params_flat());
  // A replica is dramatically lighter than a clone: parameters are
  // borrowed, only grads/caches are owned.
  EXPECT_LT(r.owned_bytes(), m.clone().owned_bytes());

  const EvalResult rm = m.forward_backward(b);
  const EvalResult rr = r.forward_backward(b);
  EXPECT_EQ(rm.loss, rr.loss);
  EXPECT_EQ(rm.accuracy, rr.accuracy);
  EXPECT_EQ(m.grads_flat(), r.grads_flat());

  // The replica tracks base parameter updates without re-attaching (it
  // aliases the same storage).
  ParamVec w = m.params_flat();
  for (auto& v : w) v += 0.25f;
  m.set_params_flat(w);
  EXPECT_EQ(r.params_flat(), m.params_flat());
}

TEST(Model, SharedReplicaCopyOnWriteDetachesFromBase) {
  // set_params_flat on a replica must not write through to the base: the
  // borrowed tensors detach (copy-on-write) first. This is what lets DANE's
  // shifted-point evaluations run on replicas while the global model keeps
  // holding w.
  Rng rng(22);
  ModelSpec ms;
  ms.width_scale = 0.05;
  Model m = make_fmnist_cnn(ms, rng);
  const ParamVec base_w = m.params_flat();

  Model r = m.shared_replica();
  ParamVec shifted = base_w;
  for (auto& v : shifted) v += 1.0f;
  r.set_params_flat(shifted);
  EXPECT_EQ(r.params_flat(), shifted);
  EXPECT_EQ(m.params_flat(), base_w) << "COW must not leak into the base";

  // attach_params re-establishes sharing after a detach.
  r.attach_params(m);
  EXPECT_EQ(r.params_flat(), base_w);
}

// --- first-layer input gradient ----------------------------------------------

bool same_bits(const ParamVec& a, const ParamVec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Layers with parameters skip the input gradient when it is not wanted and
// accumulate exactly the same dW and db.
TEST(FirstLayer, BackwardWithoutInputGradientKeepsParamGradsBitForBit) {
  Rng rng(23);
  auto check = [&](Layer& layer, const Tensor& x) {
    const Tensor out = layer.forward(x, /*train=*/true);
    const Tensor g = Tensor::uniform(out.shape(), -1.0f, 1.0f, rng);
    const std::unique_ptr<Layer> copy = layer.clone();
    copy->forward(x, /*train=*/true);
    const Tensor gx = layer.backward(g, /*input_grad=*/true);
    EXPECT_TRUE(gx.shape() == x.shape());
    EXPECT_TRUE(copy->backward(g, /*input_grad=*/false).empty());
    for (std::size_t i = 0; i < layer.grads().size(); ++i) {
      const Tensor& want = *layer.grads()[i];
      const Tensor& got = *copy->grads()[i];
      ASSERT_EQ(want.numel(), got.numel());
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            want.numel() * sizeof(float)),
                0)
          << layer.name() << " grad " << i;
    }
  };
  Conv2d conv(3, 4, 5, 1, 2, 9, 9, rng);
  check(conv, Tensor::uniform(Shape{10, 3, 9, 9}, -1.0f, 1.0f, rng));
  Dense dense(12, 5, rng);
  check(dense, Tensor::uniform(Shape{7, 12}, -1.0f, 1.0f, rng));
}

// Parameterless pass-through: placed first, it makes the model's real first
// layer layer 1, which then still computes its input gradient.
class Identity : public Layer {
 public:
  Tensor forward(Tensor input, bool) override { return input; }
  Tensor backward(const Tensor& grad_output, bool) override {
    return grad_output;
  }
  LayerPtr clone() const override { return std::make_unique<Identity>(); }
  std::string name() const override { return "identity"; }
};

// forward_backward on a factory model (layer 0 skips its input gradient)
// against the same layers behind an Identity (the old full backward): loss
// and every parameter gradient must be bit-identical. The reference stacks
// restate the factories' layers; equal parameters pin them to the factory.
void expect_full_backward_parity(Model& model, Model& reference,
                                 const Batch& batch) {
  ASSERT_TRUE(same_bits(model.params_flat(), reference.params_flat()));
  const EvalResult fast = model.forward_backward(batch);
  const EvalResult full = reference.forward_backward(batch);
  EXPECT_EQ(std::memcmp(&fast.loss, &full.loss, sizeof(double)), 0);
  EXPECT_TRUE(same_bits(model.grads_flat(), reference.grads_flat()));
}

TEST(FirstLayer, ForwardBackwardMatchesFullBackwardOnEveryModel) {
  {
    ModelSpec ms;
    ms.width_scale = 0.05;  // conv 2, 3 channels; fc 51
    Rng rng(24), ref_rng(24);
    Model model = make_fmnist_cnn(ms, rng);
    Model ref(ms.l2_reg);
    ref.add(std::make_unique<Identity>());
    ref.add(std::make_unique<Conv2d>(1, 2, 5, 1, 2, 28, 28, ref_rng));
    ref.add(std::make_unique<Relu>());
    ref.add(std::make_unique<MaxPool2d>(2, 2));
    ref.add(std::make_unique<Conv2d>(2, 3, 5, 1, 2, 14, 14, ref_rng));
    ref.add(std::make_unique<Relu>());
    ref.add(std::make_unique<MaxPool2d>(2, 2));
    ref.add(std::make_unique<Flatten>());
    ref.add(std::make_unique<Dense>(3 * 7 * 7, 51, ref_rng));
    ref.add(std::make_unique<Relu>());
    ref.add(std::make_unique<Dense>(51, 10, ref_rng));
    // 10 samples: the conv dW reduction runs more than one sample block.
    const Batch b = make_random_batch(Shape{10, 1, 28, 28}, 10, rng);
    expect_full_backward_parity(model, ref, b);
    // The first conv no longer grows its column-gradient scratch.
    EXPECT_LT(model.owned_bytes(), ref.owned_bytes());
  }
  {
    ModelSpec ms;
    ms.image_h = ms.image_w = 32;
    ms.channels = 3;
    ms.width_scale = 0.05;  // conv 3, 3 channels; fc 19, 10
    Rng rng(25), ref_rng(25);
    Model model = make_cifar_cnn(ms, rng);
    Model ref(ms.l2_reg);
    ref.add(std::make_unique<Identity>());
    ref.add(std::make_unique<Conv2d>(3, 3, 5, 1, 2, 32, 32, ref_rng));
    ref.add(std::make_unique<Relu>());
    ref.add(std::make_unique<MaxPool2d>(3, 2));
    ref.add(std::make_unique<Conv2d>(3, 3, 5, 1, 2, 15, 15, ref_rng));
    ref.add(std::make_unique<Relu>());
    ref.add(std::make_unique<MaxPool2d>(3, 2));
    ref.add(std::make_unique<Flatten>());
    ref.add(std::make_unique<Dense>(3 * 7 * 7, 19, ref_rng));
    ref.add(std::make_unique<Relu>());
    ref.add(std::make_unique<Dense>(19, 10, ref_rng));
    ref.add(std::make_unique<Relu>());
    ref.add(std::make_unique<Dense>(10, 10, ref_rng));
    const Batch b = make_random_batch(Shape{9, 3, 32, 32}, 10, rng);
    expect_full_backward_parity(model, ref, b);
    EXPECT_LT(model.owned_bytes(), ref.owned_bytes());
  }
  {
    Rng rng(26), ref_rng(26);
    Model model = make_mlp(6, 10, 4, 0.01, rng);
    Model ref(0.01);
    ref.add(std::make_unique<Identity>());
    ref.add(std::make_unique<Dense>(6, 10, ref_rng));
    ref.add(std::make_unique<Relu>());
    ref.add(std::make_unique<Dense>(10, 4, ref_rng));
    expect_full_backward_parity(model, ref,
                                make_random_batch(Shape{5, 6}, 4, rng));
  }
  {
    Rng rng(27), ref_rng(27);
    Model model = make_logistic(10, 3, 0.01, rng);
    Model ref(0.01);
    ref.add(std::make_unique<Identity>());
    ref.add(std::make_unique<Dense>(10, 3, ref_rng));
    expect_full_backward_parity(model, ref,
                                make_random_batch(Shape{6, 10}, 3, rng));
  }
}

}  // namespace
}  // namespace fedl::nn
