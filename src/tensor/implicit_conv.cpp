#include "tensor/implicit_conv.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "parallel/scheduler.h"
#include "tensor/gemm_stages.h"

namespace fedl {
namespace {

using gemm_stages::kNrMax;

// The forward's micro-tiles over one padded sample. Tile t covers the nr
// padded-plane positions from start[t] (position y·Wp + x is output pixel
// (y, x) when x < OW; the K−1 positions past each row's end are not). Its
// live lanes form runs, each landing at output pixels col.. of the sample.
struct Segment {
  std::size_t lane, len, col;
};

struct TilePlan {
  std::vector<std::size_t> start;
  std::vector<std::size_t> first_seg;  // tiles() + 1 entries into segs
  std::vector<Segment> segs;
};

// Consecutive tiles, each starting at the first output pixel the previous
// one did not cover, so every pixel is computed exactly once.
TilePlan plan_tiles(std::size_t oh, std::size_t ow, std::size_t wp,
                    std::size_t nr) {
  TilePlan plan;
  const std::size_t end = (oh - 1) * wp + ow;  // one past the last pixel
  std::size_t q = 0;
  while (q < end) {
    plan.start.push_back(q);
    plan.first_seg.push_back(plan.segs.size());
    for (std::size_t lane = 0; lane < nr && q + lane < end;) {
      const std::size_t y = (q + lane) / wp;
      const std::size_t x = (q + lane) % wp;
      if (x >= ow) {  // past the row's last pixel: on to the next row
        lane += wp - x;
        continue;
      }
      const std::size_t len = std::min(ow - x, nr - lane);
      plan.segs.push_back({lane, len, y * ow + x});
      lane += len;
    }
    q += nr;
    if (q % wp >= ow) q += wp - q % wp;
  }
  plan.first_seg.push_back(plan.segs.size());
  return plan;
}

// The forward's B operand: one block, nothing to pack; row p of tile t is
// the padded sample at start[t] + off[p].
class InPlaceOperand {
 public:
  InPlaceOperand(const TilePlan& plan, const float* padded,
                 const std::size_t* off)
      : plan_(plan), padded_(padded), off_(off) {}

  std::size_t blocks() const { return 1; }
  void pack(std::size_t, std::size_t, std::size_t) {}
  std::size_t tiles(std::size_t) const { return plan_.start.size(); }
  void multiply(const gemm_stages::MicroKernel& kd, std::size_t t,
                std::size_t p0, std::size_t kb, const float* apanel,
                float* tile) const {
    kd.offset_fn(kb, apanel, padded_ + plan_.start[t], off_ + p0, tile);
  }
  template <class F>
  void place(std::size_t, std::size_t t, const F& f) const {
    for (std::size_t i = plan_.first_seg[t]; i < plan_.first_seg[t + 1]; ++i)
      f(plan_.segs[i].lane, plan_.segs[i].len, plan_.segs[i].col);
  }

 private:
  const TilePlan& plan_;
  const float* padded_;
  const std::size_t* off_;
};

}  // namespace

ImplicitConv::ImplicitConv(const Conv2dGeometry& g)
    : g_(g),
      hp_(g.in_h + 2 * g.pad),
      wp_(g.in_w + 2 * g.pad),
      sample_(g.in_channels * hp_ * wp_ + kNrMax) {
  FEDL_CHECK_EQ(g.stride, 1u) << "implicit-GEMM convolution is stride 1";
  FEDL_CHECK(hp_ >= g.kernel_h && wp_ >= g.kernel_w)
      << "kernel larger than the padded image";
  off_.reserve(g.col_rows());
  for (std::size_t c = 0; c < g.in_channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw)
        off_.push_back((c * hp_ + kh) * wp_ + kw);
}

void ImplicitConv::pad(const float* image, float* padded) const {
  const std::size_t p = g_.pad;
  for (std::size_t c = 0; c < g_.in_channels; ++c) {
    float* plane = padded + c * hp_ * wp_;
    const float* src = image + c * g_.in_h * g_.in_w;
    std::fill(plane, plane + p * wp_, 0.0f);
    for (std::size_t y = 0; y < g_.in_h; ++y) {
      float* row = plane + (y + p) * wp_;
      std::fill(row, row + p, 0.0f);
      std::memcpy(row + p, src + y * g_.in_w, g_.in_w * sizeof(float));
      std::fill(row + p + g_.in_w, row + wp_, 0.0f);
    }
    std::fill(plane + (p + g_.in_h) * wp_, plane + hp_ * wp_, 0.0f);
  }
  std::fill(padded + g_.in_channels * hp_ * wp_, padded + sample_, 0.0f);
}

void ImplicitConv::forward(std::size_t c_out, const float* weight,
                           const float* bias, const float* input,
                           std::size_t n, float* padded, float* out) const {
  const std::size_t colr = g_.col_rows();
  const std::size_t colc = g_.col_cols();
  if (n == 0 || c_out == 0) return;
  gemm_stages::note_gemm_call(c_out, n * colc, colr);
  const gemm_stages::MicroKernel kd = gemm_stages::select_micro_kernel();
  const TilePlan plan = plan_tiles(g_.out_h(), g_.out_w(), wp_, kd.nr);
  const std::size_t image = g_.in_channels * g_.in_h * g_.in_w;
  leased_parallel_for(0, n, [&](std::size_t s) {
    float* sample = padded + s * sample_;
    pad(input + s * image, sample);
    InPlaceOperand operand(plan, sample, off_.data());
    gemm_stages::macro_loop({false, c_out, colc, colr, 1.0f, weight, colr,
                             0.0f, out + s * c_out * colc, colc,
                             BiasMode::kPerRow, bias},
                            kd, operand);
  });
}

void ImplicitConv::pack_columns(const float* padded, std::size_t p0,
                                std::size_t j0, std::size_t kb,
                                std::size_t nb, std::size_t nr,
                                float* out) const {
  const std::size_t colc = g_.col_cols();
  const std::size_t ow = g_.out_w();
  for (std::size_t p = p0; p < p0 + kb;) {
    // The run of pixels [p, p + len) lies in one output row of one sample,
    // so each column-matrix row is a contiguous run of the padded copy.
    const std::size_t pix = p % colc;
    const std::size_t x = pix % ow;
    const std::size_t len = std::min(ow - x, p0 + kb - p);
    const float* base = padded + (p / colc) * sample_ + (pix / ow) * wp_ + x;
    for (std::size_t jb = 0; jb < nb; jb += nr) {
      const std::size_t cols = std::min(nr, nb - jb);
      float* panel = out + (jb / nr) * nr * kb + (p - p0) * nr;
      for (std::size_t c = 0; c < nr; c += 4) {
        const std::size_t live =
            cols > c ? std::min<std::size_t>(4, cols - c) : 0;
        const float* rows[4] = {};
        for (std::size_t q = 0; q < live; ++q)
          rows[q] = base + off_[j0 + jb + c + q];
        gemm_stages::transpose_4_rows(rows, live, len, nr, panel + c);
      }
    }
    p += len;
  }
}

void ImplicitConv::weight_grad(std::size_t c_out, const float* dout,
                               std::size_t ld_dout, const float* padded,
                               std::size_t samples, float beta,
                               float* dw) const {
  const std::size_t colr = g_.col_rows();
  const std::size_t k = samples * g_.col_cols();
  if (c_out == 0 || k == 0) return;
  gemm_stages::note_gemm_call(c_out, colr, k);
  const gemm_stages::MicroKernel kd = gemm_stages::select_micro_kernel();
  const auto pack = [&](std::size_t p0, std::size_t j0, std::size_t kb,
                        std::size_t nb, std::size_t nr, float* panels) {
    pack_columns(padded, p0, j0, kb, nb, nr, panels);
  };
  gemm_stages::PanelOperand<decltype(pack)> operand(colr, k, kd.nr, pack);
  gemm_stages::macro_loop({false, c_out, colr, k, 1.0f, dout, ld_dout, beta,
                           dw, colr, BiasMode::kNone, nullptr},
                          kd, operand);
}

}  // namespace fedl
