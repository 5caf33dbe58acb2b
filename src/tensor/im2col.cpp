#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

namespace fedl {
namespace {

// Output positions o in [lo, hi) whose input coordinate o*stride + k - pad
// falls inside [0, extent); every other position reads padding. Computed
// once per (kernel offset) so the per-element loops carry no bounds tests.
struct ValidSpan {
  std::size_t lo;
  std::size_t hi;
};

ValidSpan valid_span(std::size_t out_len, std::size_t extent, std::size_t k,
                     std::size_t stride, std::size_t pad) {
  // o*stride + k >= pad  and  o*stride + k < extent + pad.
  std::size_t lo = k >= pad ? 0 : (pad - k + stride - 1) / stride;
  std::size_t hi =
      k >= extent + pad ? 0 : (extent + pad - k + stride - 1) / stride;
  hi = std::min(hi, out_len);
  lo = std::min(lo, hi);
  return {lo, hi};
}

}  // namespace

void im2col(const Conv2dGeometry& g, const float* image, float* cols,
            std::size_t ld) {
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

void col2im(const Conv2dGeometry& g, const float* cols, float* image,
            std::size_t ld) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t s = g.stride;
  if (ld == 0) ld = oh * ow;
  std::size_t row = 0;
  // The loops keep the (c, kh, kw, y, x) order of a sweep over every output
  // position and skip only the positions that land in padding, so each
  // pixel sums its += terms in that sweep's order.
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const ValidSpan ys = valid_span(oh, g.in_h, kh, s, g.pad);
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const ValidSpan xs = valid_span(ow, g.in_w, kw, s, g.pad);
        const std::size_t nx = xs.hi - xs.lo;
        if (nx == 0) continue;
        const float* in = cols + row * ld;
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          const float* irow = in + y * ow + xs.lo;
          float* dst = plane + (y * s + kh - g.pad) * g.in_w +
                       (xs.lo * s + kw - g.pad);
          if (s == 1) {  // unit stride: a plain vectorizable row add
            for (std::size_t x = 0; x < nx; ++x) dst[x] += irow[x];
          } else {
            for (std::size_t x = 0; x < nx; ++x) dst[x * s] += irow[x];
          }
        }
      }
    }
  }
}

}  // namespace fedl
