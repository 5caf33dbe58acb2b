// The packing and write-back stages of the blocked GEMM (tensor/gemm.cpp),
// exposed so their bit-exactness can be pinned element by element against
// reference loops (tests/lowering_parity_test.cpp). Not a user API: call
// gemm()/gemm_bias() instead.
#pragma once

#include <cstddef>

#include "tensor/gemm.h"

namespace fedl::gemm_stages {

// Rows per micro-tile, shared by every kernel tier.
inline constexpr std::size_t kMr = 6;

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
// bpanel[p*nr + c] for a kMr x nr tile, p ascending.
struct MicroKernel {
  void (*fn)(std::size_t kb, const float* apanel, const float* bpanel,
             float* tile);
  std::size_t nr;
};
MicroKernel select_micro_kernel();

}  // namespace fedl::gemm_stages
