// Convolution as an implicit GEMM over a zero-padded copy of its input.
//
// The im2col column matrix of a stride-1 convolution, cols[(c,kh,kw), y·OW +
// x] = image[c, y+kh−pad, x+kw−pad] (0 outside the image), is never built.
// Each sample is copied once into a zero-padded [C, H+2·pad, W+2·pad] plane
// stack, and every column-matrix row is that copy read at a fixed offset:
//
//   cols[p, pixel (y, x)] = padded[off[p] + y·Wp + x],
//   off[(c, kh, kw)]     = (c·Hp + kh)·Wp + kw,   Hp = H+2·pad, Wp = W+2·pad.
//
// The forward product W · cols runs the shared GEMM macro loop
// (tensor/gemm_stages.h) with the micro-kernel reading row p of B in place
// at padded + pixel_offset + off[p]; the weight gradient dOut · colsᵀ builds
// each packed B panel straight from the padded copy. Both keep every output
// element's FMA chain of im2col + gemm_bias: the same 256-row k-panels, p
// ascending from +0 inside each, the padding zeros included as fma(w, 0,
// acc), and the same write-back — so results are bit-identical on each
// kernel tier. The padded copy (a few % of the column matrix) is also what
// a layer keeps between forward and backward.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/im2col.h"

namespace fedl {

class ImplicitConv {
 public:
  // Stride must be 1: the in-place B rows rely on neighbouring output
  // pixels reading neighbouring input pixels.
  explicit ImplicitConv(const Conv2dGeometry& g);

  const Conv2dGeometry& geometry() const { return g_; }

  // Floats one padded sample occupies: the [C, Hp, Wp] planes, then zeroed
  // slack for the tail lanes a micro-tile reads past the last pixel.
  std::size_t padded_floats() const { return sample_; }

  // out[s] = W · cols(input[s]) + bias for the n samples of the NCHW batch
  // `input` (out is [n, c_out, OH, OW]; weight is [c_out, col_rows]).
  // Pads sample s into padded + s·padded_floats() on the way, so `padded`
  // then holds the batch for weight_grad(). Samples fan out over leased
  // workers; counted as one c_out × (n·OH·OW) × col_rows product in
  // gemm.calls / gemm.flops.
  void forward(std::size_t c_out, const float* weight, const float* bias,
               const float* input, std::size_t n, float* padded,
               float* out) const;

  // dw = beta·dw + dOut · colsᵀ over `samples` consecutive padded samples
  // (as forward() left them, starting at `padded`). dout is channel-major
  // with row stride ld_dout, starting at the first sample's first pixel; dw
  // is [c_out, col_rows]. One gemm.calls entry.
  void weight_grad(std::size_t c_out, const float* dout, std::size_t ld_dout,
                   const float* padded, std::size_t samples, float beta,
                   float* dw) const;

 private:
  // Writes the padded copy of one [C, H, W] sample (padded_floats() floats).
  void pad(const float* image, float* padded) const;

  // Packs rows [p0, p0+kb) x columns [j0, j0+nb) of colsᵀ (block pixels,
  // sample-major, by column-matrix rows) into nr-column panels: what
  // pack_b(trans_b) made of the im2col matrix, read one output-row run at
  // a time from the padded samples.
  void pack_columns(const float* padded, std::size_t p0, std::size_t j0,
                    std::size_t kb, std::size_t nb, std::size_t nr,
                    float* out) const;

  Conv2dGeometry g_;
  std::size_t hp_, wp_, sample_;
  std::vector<std::size_t> off_;  // [col_rows] in-place row offsets
};

}  // namespace fedl
