#include "tensor/im2col.h"

#include <algorithm>

#include "common/error.h"

namespace fedl {
namespace {

// Output positions o in [lo, hi) whose input coordinate o + k - pad falls
// inside [0, extent); every other position reads padding. Computed once
// per (kernel offset) so the per-element loops carry no bounds tests.
struct ValidSpan {
  std::size_t lo;
  std::size_t hi;
};

ValidSpan valid_span(std::size_t out_len, std::size_t extent, std::size_t k,
                     std::size_t pad) {
  // o + k >= pad  and  o + k < extent + pad.
  std::size_t lo = k >= pad ? 0 : pad - k;
  std::size_t hi = k >= extent + pad ? 0 : extent + pad - k;
  hi = std::min(hi, out_len);
  lo = std::min(lo, hi);
  return {lo, hi};
}

}  // namespace

void col2im(const Conv2dGeometry& g, const float* cols, float* image,
            std::size_t ld) {
  FEDL_CHECK_EQ(g.stride, 1u) << "col2im is stride 1";
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  if (ld == 0) ld = oh * ow;
  std::size_t row = 0;
  // The loops keep the (c, kh, kw, y, x) order of a sweep over every output
  // position and skip only the positions that land in padding, so each
  // pixel sums its += terms in that sweep's order.
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const ValidSpan ys = valid_span(oh, g.in_h, kh, g.pad);
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const ValidSpan xs = valid_span(ow, g.in_w, kw, g.pad);
        const std::size_t nx = xs.hi - xs.lo;
        if (nx == 0) continue;
        const float* in = cols + row * ld;
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          const float* irow = in + y * ow + xs.lo;
          float* dst =
              plane + (y + kh - g.pad) * g.in_w + (xs.lo + kw - g.pad);
          for (std::size_t x = 0; x < nx; ++x) dst[x] += irow[x];
        }
      }
    }
  }
}

}  // namespace fedl
