// The stages of the blocked GEMM and the one macro loop that schedules
// them: A/B packing, the dispatched micro-kernel, the write-back, and the
// k-panel / column-block / strip loop shared by gemm_bias()
// (tensor/gemm.cpp) and the implicit-GEMM convolution
// (tensor/implicit_conv.cpp). The two differ only in their B operand: a
// packed panel of a stored matrix, or rows read in place from a zero-padded
// image. Exposed so the stages' bit-exactness can be pinned element by
// element against reference loops (tests/lowering_parity_test.cpp). Not a
// user API: call gemm()/gemm_bias() or ImplicitConv instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/scheduler.h"
#include "tensor/gemm.h"

namespace fedl::gemm_stages {

// Rows per micro-tile, shared by every kernel tier, and the widest tile
// (AVX-512's 32 columns).
inline constexpr std::size_t kMr = 6;
inline constexpr std::size_t kNrMax = 32;

// Cache blocks: the packed B panel (kBlockK x kBlockN = 256 KiB) targets L2,
// packed A micro-panels (kMr x kBlockK = 6 KiB each) stream through L1
// while one B panel stays resident. Multiples of kMr / kNrMax.
inline constexpr std::size_t kBlockN = 256;
inline constexpr std::size_t kBlockK = 256;

// Minimum problem size (2*m*n*k flops) before the macro loop asks the
// scheduler for extra workers: below this the lease + fan-out overhead
// (~µs) rivals the GEMM itself. 1e7 flops ≈ a 172³ product; the whole-batch
// dense GEMMs of a large model clear it, per-sample conv products do not.
inline constexpr double kThreadMinFlops = 1e7;

// Packs op(A)'s [mb x kb] block, rows starting at row0 and k steps at col0,
// into kMr-row micro-panels: panel ib holds kb steps of kMr consecutive
// rows, p-major. Rows past mb are zero-padded.
void pack_a(bool trans_a, const float* a, std::size_t lda, std::size_t row0,
            std::size_t col0, std::size_t mb, std::size_t kb, float* out);

// Packs op(B)'s [kb x nb] block into nr-column micro-panels, p-major, with
// zero padding past nb. nr is the active kernel's register-tile width, a
// multiple of 4.
void pack_b(bool trans_b, const float* b, std::size_t ldb, std::size_t row0,
            std::size_t col0, std::size_t kb, std::size_t nb, std::size_t nr,
            float* out);

// out[p*nr + q] = rows[q][p] for q < live, and 0 for live <= q < 4, over
// p < kb: up to four source rows become four adjacent panel columns. The
// transposing step of pack_b (rows of a stored B) and of the convolution's
// weight-gradient panels (runs of a padded image). A pure copy.
void transpose_4_rows(const float* const* rows, std::size_t live,
                      std::size_t kb, std::size_t nr, float* out);

// Merges one micro-tile into C: C = alpha*tile + beta_eff*C (C is read only
// when read_c), plus the bias of `bias_mode`. nr_stride is the tile's row
// stride; mr x nr elements are live. row0/col0 index the bias vector.
using WriteBackFn = void (*)(const float* tile, std::size_t nr_stride,
                             float* c, std::size_t ldc, std::size_t mr,
                             std::size_t nr, float alpha, float beta_eff,
                             const float* bias, std::size_t row0,
                             std::size_t col0);

// The write-back specialised for one (read_c, bias_mode) pair, so the
// per-element loop carries no mode tests. read_c must be beta_eff != 0:
// with beta_eff == 0, C may be uninitialised scratch.
WriteBackFn select_write_back(bool read_c, BiasMode bias_mode);

// The dispatched micro-kernel: tile[r][c] = sum_p apanel[p*kMr + r] *
// B_p[c] for a kMr x nr tile, p ascending from +0. Both entry points run
// the tier's one kernel body and differ only in where row p of B is:
//   fn         B_p = bpanel + p*nr (a packed panel);
//   offset_fn  B_p = origin + off[p] (read in place; nr floats per row).
struct MicroKernel {
  void (*fn)(std::size_t kb, const float* apanel, const float* bpanel,
             float* tile);
  void (*offset_fn)(std::size_t kb, const float* apanel, const float* origin,
                    const std::size_t* off, float* tile);
  std::size_t nr;
};
MicroKernel select_micro_kernel();

// gemm.calls / gemm.flops telemetry for one logical m x n x k product, and
// the threaded-call counters of the macro loop's strip fan-out.
void note_gemm_call(std::size_t m, std::size_t n, std::size_t k);
void note_gemm_threads(std::size_t extra);

// C = alpha * op(A) * B + beta * C [+ bias]: everything of a product except
// how its B operand is laid out.
struct MacroProblem {
  bool trans_a;
  std::size_t m, n, k;
  float alpha;
  const float* a;
  std::size_t lda;
  float beta;
  float* c;
  std::size_t ldc;
  BiasMode bias_mode;
  const float* bias;
};

// The blocked schedule. B is an operand object with
//   blocks()                     column blocks (L2-sized B panels);
//   pack(block, p0, kb)          stage the block's k-panel [p0, p0+kb),
//                                called on the calling thread;
//   tiles(block)                 micro-tiles of the staged block;
//   multiply(kd, t, p0, kb, apanel, tile)  run the micro-kernel;
//   place(block, t, f)           f(lane, len, col) for each run of live
//                                lanes, which lands at C columns col...;
// Every element of C takes the same operations in the same order whatever
// the operand: its k-panels in ascending p0 (beta on the first, +1·C on
// the later ones, the bias on the last), each panel's FMA chain inside the
// micro-kernel, one write-back per panel.
//
// Threading: the m dimension splits into kMr-row strips, fanned out over
// workers leased from the shared scheduler budget when the product is large
// enough. The lease composes with enclosing fan-outs (a saturated budget
// grants 0 and the loop runs inline: no oversubscription, no deadlock). The
// k loop stays on the calling thread and strips write disjoint C rows, so C
// is bit-identical at any grant.
template <class BOperand>
void macro_loop(const MacroProblem& pr, const MicroKernel& kd, BOperand& b) {
  const std::size_t n_strips = (pr.m + kMr - 1) / kMr;
  Scheduler::WorkerLease lease;
  std::size_t extra = 0;
  if (n_strips > 1 && 2.0 * static_cast<double>(pr.m) *
                              static_cast<double>(pr.n) *
                              static_cast<double>(pr.k) >=
                          kThreadMinFlops) {
    Scheduler& sched = Scheduler::instance();
    if (sched.thread_budget() > 1) {
      lease = sched.acquire_workers(sched.auto_share() - 1, n_strips - 1,
                                    /*allow_steal=*/true);
      extra = lease.granted();
      if (extra > 0) note_gemm_threads(extra);
    }
  }

  // A micro-panels and a per-chunk C tile, so concurrent strips never share
  // mutable scratch. With more than one column block every strip keeps its
  // A panel for the current k-panel (packed by the first block, reused by
  // the others); with one block a per-chunk panel suffices and stays in L1.
  const std::size_t kb_cap = std::min(kBlockK, pr.k);
  const bool keep_a = b.blocks() > 1;
  std::vector<float> apack((keep_a ? n_strips : extra + 1) * kMr * kb_cap);
  std::vector<float> tiles((extra + 1) * kMr * kNrMax);

  for (std::size_t p0 = 0; p0 < pr.k; p0 += kBlockK) {
    const std::size_t kb = std::min(kBlockK, pr.k - p0);
    const float beta_eff = p0 == 0 ? pr.beta : 1.0f;
    const WriteBackFn write_back = select_write_back(
        beta_eff != 0.0f, p0 + kb >= pr.k ? pr.bias_mode : BiasMode::kNone);
    for (std::size_t block = 0; block < b.blocks(); ++block) {
      b.pack(block, p0, kb);
      const auto run_strip = [&](std::size_t chunk, std::size_t s) {
        const std::size_t i0 = s * kMr;
        const std::size_t mr = std::min(kMr, pr.m - i0);
        float* apanel = apack.data() + (keep_a ? s : chunk) * kMr * kb_cap;
        float* tile = tiles.data() + chunk * kMr * kNrMax;
        if (block == 0)
          pack_a(pr.trans_a, pr.a, pr.lda, i0, p0, mr, kb, apanel);
        float* crow = pr.c + i0 * pr.ldc;
        for (std::size_t t = 0; t < b.tiles(block); ++t) {
          b.multiply(kd, t, p0, kb, apanel, tile);
          b.place(block, t,
                  [&](std::size_t lane, std::size_t len, std::size_t col) {
                    write_back(tile + lane, kd.nr, crow + col, pr.ldc, mr,
                               len, pr.alpha, beta_eff, pr.bias, i0, col);
                  });
        }
      };
      if (extra > 0) {
        parallel_for_shared_indexed(Scheduler::instance().pool(), extra, 0,
                                    n_strips, run_strip);
      } else {
        for (std::size_t s = 0; s < n_strips; ++s) run_strip(0, s);
      }
    }
  }
}

// A B operand staged as nr-column panels, one L2-sized column block
// ([kBlockK x kBlockN]) at a time; `Pack` fills a block:
//   pack(p0, j0, kb, nb, nr, out)  k-panel [p0, p0+kb), columns [j0, j0+nb).
// gemm_bias packs a stored matrix with pack_b; the convolution's weight
// gradient packs its transposed column matrix from the padded input.
template <class Pack>
class PanelOperand {
 public:
  PanelOperand(std::size_t n, std::size_t k, std::size_t nr, Pack pack)
      : n_(n),
        nr_(nr),
        pack_(std::move(pack)),
        bpack_(std::min(kBlockK, k) *
               std::min(kBlockN, (n + nr - 1) / nr * nr)) {}

  std::size_t blocks() const { return (n_ + kBlockN - 1) / kBlockN; }
  void pack(std::size_t block, std::size_t p0, std::size_t kb) {
    j0_ = block * kBlockN;
    nb_ = std::min(kBlockN, n_ - j0_);
    kb_ = kb;
    pack_(p0, j0_, kb, nb_, nr_, bpack_.data());
  }
  std::size_t tiles(std::size_t) const { return (nb_ + nr_ - 1) / nr_; }
  void multiply(const MicroKernel& kd, std::size_t t, std::size_t,
                std::size_t kb, const float* apanel, float* tile) const {
    kd.fn(kb, apanel, bpack_.data() + t * nr_ * kb_, tile);
  }
  template <class F>
  void place(std::size_t, std::size_t t, const F& f) const {
    const std::size_t jb = t * nr_;
    f(0, std::min(nr_, nb_ - jb), j0_ + jb);
  }

 private:
  std::size_t n_, nr_;
  Pack pack_;
  std::vector<float> bpack_;
  std::size_t j0_ = 0, nb_ = 0, kb_ = 0;
};

}  // namespace fedl::gemm_stages
