#include "tensor/ops.h"

#include <cmath>

namespace fedl {

void axpy(float alpha, const Tensor& x, Tensor& y) {
  FEDL_CHECK(x.shape() == y.shape())
      << x.shape().str() << " vs " << y.shape().str();
  axpy(alpha, x.span(), y.span());
}

void scale(float alpha, Tensor& y) { vscale(alpha, y.span()); }

Tensor add(const Tensor& a, const Tensor& b) {
  FEDL_CHECK(a.shape() == b.shape());
  Tensor out = a;
  axpy(1.0f, b, out);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  FEDL_CHECK(a.shape() == b.shape());
  Tensor out = a;
  axpy(-1.0f, b, out);
  return out;
}

double tdot(const Tensor& a, const Tensor& b) {
  FEDL_CHECK_EQ(a.numel(), b.numel());
  return vdot(a.span(), b.span());
}

void relu_inplace(Tensor& t) {
  float* p = t.data();
  const std::size_t n = t.numel();
  // A select rather than a conditional store, so the loop vectorizes and
  // random-sign input costs no mispredicts. Only x < 0 is replaced: NaN and
  // -0.0 pass through unchanged.
  for (std::size_t i = 0; i < n; ++i) p[i] = p[i] < 0.0f ? 0.0f : p[i];
}

void mul_inplace(Tensor& y, const Tensor& mask) {
  FEDL_CHECK_EQ(y.numel(), mask.numel());
  float* p = y.data();
  const float* m = mask.data();
  const std::size_t n = y.numel();
  for (std::size_t i = 0; i < n; ++i) p[i] *= m[i];
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  FEDL_CHECK_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double vdot(std::span<const float> a, std::span<const float> b) {
  FEDL_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  return s;
}

double vnorm(std::span<const float> v) {
  double s = 0.0;
  for (float x : v) s += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(s);
}

ParamVec vadd(std::span<const float> a, std::span<const float> b) {
  FEDL_CHECK_EQ(a.size(), b.size());
  ParamVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

ParamVec vsub(std::span<const float> a, std::span<const float> b) {
  FEDL_CHECK_EQ(a.size(), b.size());
  ParamVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

void vscale(float alpha, std::span<float> v) {
  for (auto& x : v) x *= alpha;
}

void clip_norm(std::span<float> v, double max_norm) {
  FEDL_CHECK_GT(max_norm, 0.0);
  const double n = vnorm(v);
  if (n <= max_norm || n == 0.0) return;
  vscale(static_cast<float>(max_norm / n), v);
}

void softmax_rows(const Tensor& logits, Tensor& out) {
  FEDL_CHECK_EQ(logits.shape().rank(), 2u);
  if (out.shape() != logits.shape()) out = Tensor(logits.shape());
  const std::size_t rows = logits.shape()[0];
  const std::size_t cols = logits.shape()[1];
  const float* in = logits.data();
  float* o = out.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = in + r * cols;
    float* orow = o + r * cols;
    float m = row[0];
    for (std::size_t c = 1; c < cols; ++c) m = std::max(m, row[c]);
    float denom = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      orow[c] = std::exp(row[c] - m);
      denom += orow[c];
    }
    const float inv = 1.0f / denom;
    for (std::size_t c = 0; c < cols; ++c) orow[c] *= inv;
  }
}

std::vector<std::size_t> argmax_rows(const Tensor& m) {
  FEDL_CHECK_EQ(m.shape().rank(), 2u);
  const std::size_t rows = m.shape()[0];
  const std::size_t cols = m.shape()[1];
  FEDL_CHECK_GT(cols, 0u);
  std::vector<std::size_t> out(rows);
  const float* p = m.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = p + r * cols;
    std::size_t best = 0;
    for (std::size_t c = 1; c < cols; ++c)
      if (row[c] > row[best]) best = c;
    out[r] = best;
  }
  return out;
}

}  // namespace fedl
