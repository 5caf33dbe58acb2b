// Reusable float scratch buffers for the compute pipeline.
//
// The whole-batch convolution/dense pipeline needs several large scratch
// surfaces per layer invocation (the padded input batch, channel-major
// output gradients and column gradients, per-block weight-gradient
// partials). Scratch held in `thread_local std::vector`s would pin one
// high-water-mark allocation per pool thread for the life of the process
// and make ownership invisible.
// Instead, each layer owns its Workspace buffers: capacity is retained across
// iterations (the hot-loop case), sizes track the current batch, and clones
// start empty (Workspace intentionally does not copy its storage — a cloned
// layer re-grows its own scratch on first use).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace fedl {

class Workspace {
 public:
  Workspace() = default;

  // Copying a Workspace copies no storage: scratch contents are never part
  // of logical state, and model clones (one per concurrently-training FL
  // client) must not drag high-water-mark buffers along.
  Workspace(const Workspace&) {}
  Workspace& operator=(const Workspace&) { return *this; }
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  // Pointer to at least `n` floats. Grows (never shrinks) the backing
  // storage; newly grown memory is value-initialized to 0, previously used
  // memory keeps its old contents — callers must treat the buffer as
  // uninitialized scratch.
  float* ensure(std::size_t n) {
    if (buf_.size() < n) buf_.resize(n);
    return buf_.data();
  }

  // ensure() + explicit zero-fill of the first `n` floats, for buffers used
  // as accumulators.
  float* ensure_zeroed(std::size_t n) {
    float* p = ensure(n);
    std::fill(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n),
              0.0f);
    return p;
  }

  float* data() { return buf_.data(); }
  const float* data() const { return buf_.data(); }
  std::size_t capacity() const { return buf_.size(); }

 private:
  std::vector<float> buf_;
};

}  // namespace fedl
