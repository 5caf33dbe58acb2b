// Convolution geometry and col2im, the column-matrix adjoint.
//
// Convolution over an NCHW image is a GEMM between the filter matrix
// [C_out, C_in*KH*KW] and the column (im2col) matrix [C_in*KH*KW, OH*OW],
// cols[(c,kh,kw), y*OW + x] = image[c, y+kh-pad, x+kw-pad] (0 outside).
// The forward and weight-gradient products read that matrix in place from
// a zero-padded image (tensor/implicit_conv.h) and never build it. The
// input gradient still goes through it: W^T * dOut gives column
// gradients, and col2im scatters them back onto the image.
//
// col2im takes an optional leading dimension `ld` (distance in floats
// between consecutive column-matrix rows), so one sample's columns can sit
// in its slice of a whole-batch buffer [col_rows, N*col_cols] (see
// nn/conv2d.cpp).
//
// Every convolution here is stride 1: col2im and ImplicitConv check
// `stride == 1`. The field stays so geometries print (and name their
// parameterised tests) as they always have.
#pragma once

#include <cstddef>

#include "tensor/tensor.h"

namespace fedl {

struct Conv2dGeometry {
  std::size_t in_channels;
  std::size_t in_h;
  std::size_t in_w;
  std::size_t kernel_h;
  std::size_t kernel_w;
  std::size_t stride;  // must be 1 (checked by col2im and ImplicitConv)
  std::size_t pad;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  std::size_t col_rows() const { return in_channels * kernel_h * kernel_w; }
  std::size_t col_cols() const { return out_h() * out_w(); }
};

// Adjoint of the column lowering: accumulate columns (row stride `ld`,
// 0 = col_cols()) back into the (pre-zeroed) image gradient. Stride 1.
void col2im(const Conv2dGeometry& g, const float* cols, float* image,
            std::size_t ld = 0);

}  // namespace fedl
