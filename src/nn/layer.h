// Layer interface for the sequential NN models.
//
// Layers own their parameters and gradient buffers; Model flattens them into
// the single ParamVec view that the FL machinery (DANE local solver, server
// aggregation) operates on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedl::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  // Forward pass; `train` toggles caching of activations for backward.
  //
  // `input` is taken by value so implementations can consume it: in-place
  // layers (ReLU, Flatten) mutate-and-return the buffer, caching layers
  // (Dense) move it into their activation cache instead of deep-copying the
  // batch every iteration. Model::forward threads one tensor through the
  // stack with std::move; callers that pass an lvalue keep their copy.
  virtual Tensor forward(Tensor input, bool train) = 0;

  // Backward pass: grad w.r.t. this layer's output -> grad w.r.t. its input.
  // Accumulates parameter gradients into the layer's grad buffers (callers
  // zero them via zero_grad() before a fresh accumulation). With
  // `input_grad` false the caller does not read the input gradient (the
  // model's first layer, whose input is the data): layers with parameters
  // skip computing it and return an empty tensor; their parameter gradients
  // are bit-identical either way. Parameterless layers ignore the flag.
  virtual Tensor backward(const Tensor& grad_output, bool input_grad) = 0;

  // Parameter / gradient tensors, in a stable order. Empty for stateless
  // layers.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  // Deep copy, including parameters. Forward/backward caches need not be
  // preserved; the clone must behave identically on the next forward pass.
  virtual std::unique_ptr<Layer> clone() const = 0;

  // Bytes of per-replica scratch this layer pins beyond its parameter and
  // gradient tensors: activation caches, conv workspaces. Feeds
  // Model::owned_bytes() and the engine's fl.replica_bytes gauge.
  virtual std::size_t scratch_bytes() const { return 0; }

  virtual std::string name() const = 0;

  void zero_grad() {
    for (Tensor* g : grads()) g->fill(0.0f);
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace fedl::nn
