// General matrix multiply, the workhorse behind dense layers and the
// convolution (whose products run the same macro loop in place over a padded
// input, tensor/implicit_conv.h).
//
// gemm() is cache-blocked (packed A/B micro-panels, 256x256 n/k blocks)
// around a register-blocked micro-kernel chosen once per process by CPU
// dispatch: a 6x32 AVX-512F tile, a 6x16 AVX2+FMA tile, or a portable 6x16
// fallback (see tensor/simd_dispatch.h for the selection/override policy).
// The macro loop fans its 6-row strips out over workers leased from the
// scheduler's shared budget when the product is large enough; the k-panel
// loop stays on the caller, so C is bit-identical at any grant. The
// epilogue can fuse a bias vector into the write-back so layers do not
// re-stream C. Correctness is verified against gemm_naive in tests with
// relative-error bounds (the micro-kernel changes accumulation order and
// uses FMA, so bit-identity with the naive double-accumulator reference is
// not the contract — see DESIGN.md §"Compute kernel layer").
#pragma once

#include <cstddef>

#include "tensor/tensor.h"

namespace fedl {

// Bias fused into the GEMM write-back: none, one value per output row
// (conv2d: per output channel), or one value per output column (dense:
// per output feature with C = X * W^T).
enum class BiasMode { kNone, kPerRow, kPerCol };

// C = alpha * op(A) * op(B) + beta * C  [+ bias]
//   A is [M, K] when !trans_a else [K, M]
//   B is [K, N] when !trans_b else [N, K]
//   C is [M, N]
// Raw-pointer form with explicit dimensions, row-major contiguous.
// `bias` must hold M floats for kPerRow, N floats for kPerCol; it is added
// once per output element regardless of the internal k-panel split.
void gemm_bias(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, const float* b,
               float beta, float* c, BiasMode bias_mode, const float* bias);

// Fully general form with explicit leading dimensions (row strides), for
// operating on sub-matrix views — e.g. one sample block of a channel-major
// whole-batch buffer. lda/ldb/ldc are in floats and must be at least the stored
// row length of the respective operand.
void gemm_bias(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float beta, float* c,
               std::size_t ldc, BiasMode bias_mode, const float* bias);

// Bias-free convenience form (the common case).
void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, const float* b,
          float beta, float* c);

// Tensor convenience wrapper; shapes are validated.
void gemm(bool trans_a, bool trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c);

// Reference implementation used by tests and as a fallback oracle.
void gemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const float* a, const float* b,
                float beta, float* c);

}  // namespace fedl
