// Dense row-major float tensor, rank 1–4, NCHW convention for images.
//
// This is the numeric substrate for the NN library. It is deliberately a
// value type with owned contiguous storage (std::vector<float>): model
// parameters and activations are copied/moved explicitly, matching the FL
// setting where the global model is literally copied to each client every
// iteration.
//
// Borrowed views: a tensor can alias another tensor's storage read-only via
// borrow(). Shared-weight model replicas use this so concurrently-training
// clients read one copy of the global weights instead of each owning a
// clone. A borrowed tensor must not be written through (data()/operator[]
// hand out the base pointer; writers call detach_storage() first, which
// re-materializes private owned storage — copy-on-write). The previously
// owned buffer is kept as capacity across borrow/detach cycles so the
// per-iteration attach/detach pattern never reallocates.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"

namespace fedl {

class Rng;

// Shape of up to 4 dimensions; unused trailing dims are 1.
class Shape {
 public:
  Shape() : dims_{0, 1, 1, 1}, rank_(1) {}
  Shape(std::initializer_list<std::size_t> dims);

  std::size_t rank() const { return rank_; }
  std::size_t operator[](std::size_t i) const {
    FEDL_CHECK_LT(i, rank_);
    return dims_[i];
  }
  // Dim with rank check relaxed: dims beyond rank read as 1.
  std::size_t dim_or_1(std::size_t i) const { return i < rank_ ? dims_[i] : 1; }
  std::size_t numel() const;
  bool operator==(const Shape& other) const;
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string str() const;

 private:
  std::array<std::size_t, 4> dims_;
  std::size_t rank_;
};

// std::allocator whose argument-less construct() default-initializes,
// which for a trivial type writes nothing: a vector<float> resize() without
// a fill value leaves the new floats unwritten. Explicit fills (the
// Tensor(Shape, float) constructor) still write every element.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_default_constructible_v<U>);
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);

  static Tensor zeros(Shape shape) { return Tensor(shape, 0.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(shape, v); }
  // Storage without the zero-fill, for outputs whose every element the
  // caller writes before anything reads it (conv and max-pool forward).
  // Never for buffers that are accumulated into.
  static Tensor uninitialized(Shape shape);
  // He/Kaiming-style normal init with stddev sqrt(2/fan_in).
  static Tensor he_normal(Shape shape, std::size_t fan_in, Rng& rng);
  static Tensor uniform(Shape shape, float lo, float hi, Rng& rng);

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return view_ ? view_n_ : data_.size(); }
  bool empty() const { return numel() == 0; }

  // Alias `base`'s storage (shape included) without copying. The borrow is
  // read-only by contract; it stays valid while `base`'s storage does.
  // Owned storage is retained as capacity for a later detach_storage().
  void borrow(const Tensor& base);
  // True when this tensor aliases another tensor's storage.
  bool borrowed() const { return view_ != nullptr; }
  // Stop borrowing: re-materialize private owned storage holding a copy of
  // the viewed values (copy-on-write step). No-op on owned tensors.
  void detach_storage();
  // Bytes of owned backing storage (capacity — what this tensor actually
  // pins in memory; 0s out nothing for borrows, which pin only the base).
  std::size_t owned_bytes() const {
    return data_.capacity() * sizeof(float);
  }

  // Borrowed tensors hand out the base pointer: callers must treat it as
  // read-only (writers detach_storage() first).
  float* data() { return view_ ? const_cast<float*>(view_) : data_.data(); }
  const float* data() const { return view_ ? view_ : data_.data(); }
  std::span<float> span() { return {data(), numel()}; }
  std::span<const float> span() const { return {data(), numel()}; }

  float& operator[](std::size_t i) {
    FEDL_CHECK_LT(i, numel());
    return data()[i];
  }
  float operator[](std::size_t i) const {
    FEDL_CHECK_LT(i, numel());
    return data()[i];
  }

  // 2-D access (rank must be 2): row-major.
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;
  // 4-D NCHW access.
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  void fill(float v);
  // Reinterpret the buffer with a new shape of identical numel.
  void reshape(Shape new_shape);

  // Frobenius norm and squared norm.
  double norm() const;
  double squared_norm() const;

 private:
  Shape shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
  // Borrowed-view state: non-null means this tensor reads view_[0..view_n_)
  // instead of data_. Copying a borrowed tensor copies the borrow (both
  // alias the same base).
  const float* view_ = nullptr;
  std::size_t view_n_ = 0;
};

}  // namespace fedl
