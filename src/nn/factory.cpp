#include "nn/factory.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"

namespace fedl::nn {
namespace {

std::size_t scaled(std::size_t units, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(units * scale)));
}

}  // namespace

Model make_fmnist_cnn(const ModelSpec& spec, Rng& rng) {
  const std::size_t c1 = scaled(32, spec.width_scale);
  const std::size_t c2 = scaled(64, spec.width_scale);
  const std::size_t fc = scaled(1024, spec.width_scale);

  Model m(spec.l2_reg);
  // conv 5x5 (c1), same padding, then 2x2 pool
  m.add(std::make_unique<Conv2d>(spec.channels, c1, 5, 2, spec.image_h,
                                 spec.image_w, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<MaxPool2d>(2, 2));
  const std::size_t h1 = spec.image_h / 2;
  const std::size_t w1 = spec.image_w / 2;
  // conv 5x5 (c2), same padding, then 2x2 pool
  m.add(std::make_unique<Conv2d>(c1, c2, 5, 2, h1, w1, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<MaxPool2d>(2, 2));
  const std::size_t h2 = h1 / 2;
  const std::size_t w2 = w1 / 2;
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(c2 * h2 * w2, fc, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<Dense>(fc, spec.num_classes, rng));
  return m;
}

Model make_cifar_cnn(const ModelSpec& spec, Rng& rng) {
  const std::size_t c1 = scaled(64, spec.width_scale);
  const std::size_t c2 = scaled(64, spec.width_scale);
  const std::size_t fc1 = scaled(384, spec.width_scale);
  const std::size_t fc2 = scaled(192, spec.width_scale);

  Model m(spec.l2_reg);
  // conv 5x5 (c1), same padding, then 3x3 pool stride 2
  m.add(std::make_unique<Conv2d>(spec.channels, c1, 5, 2, spec.image_h,
                                 spec.image_w, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<MaxPool2d>(3, 2));
  const std::size_t h1 = (spec.image_h - 3) / 2 + 1;
  const std::size_t w1 = (spec.image_w - 3) / 2 + 1;
  m.add(std::make_unique<Conv2d>(c1, c2, 5, 2, h1, w1, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<MaxPool2d>(3, 2));
  const std::size_t h2 = (h1 - 3) / 2 + 1;
  const std::size_t w2 = (w1 - 3) / 2 + 1;
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(c2 * h2 * w2, fc1, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<Dense>(fc1, fc2, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<Dense>(fc2, spec.num_classes, rng));
  return m;
}

Model make_mlp(std::size_t input_dim, std::size_t hidden, std::size_t classes,
               double l2_reg, Rng& rng) {
  Model m(l2_reg);
  m.add(std::make_unique<Dense>(input_dim, hidden, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<Dense>(hidden, classes, rng));
  return m;
}

Model make_logistic(std::size_t input_dim, std::size_t classes, double l2_reg,
                    Rng& rng) {
  Model m(l2_reg);
  m.add(std::make_unique<Dense>(input_dim, classes, rng));
  return m;
}

}  // namespace fedl::nn
