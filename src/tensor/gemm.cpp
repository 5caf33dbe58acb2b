#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "parallel/parallel_for.h"
#include "parallel/scheduler.h"
#include "tensor/gemm_stages.h"
#include "tensor/simd_dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FEDL_X86 1
#endif

namespace fedl {
namespace {

// Micro-tile shape: each micro-kernel call produces a MR x NR tile of C.
// All kernels share MR = 6 (so pack_a is tier-independent) and differ in
// NR: 6x16 needs 12 accumulator registers + 2 B loads + 1 A broadcast = 15
// of the 16 YMM registers on the AVX2 path; 6x32 uses the same budget out
// of the 32 ZMM registers on AVX-512. The portable path uses the 6x16 shape
// so it shares packing, blocking schedule, and per-element accumulation
// order with AVX2 (only FMA rounding differs).
using gemm_stages::kMr;
constexpr std::size_t kNr = 16;
constexpr std::size_t kNrAvx512 = 32;

// Where a kernel finds row p of B: a packed panel of kW-float rows, or the
// padded image at a per-row offset from the tile's first pixel. Each tier
// has one kernel body, instantiated for both.
template <std::size_t kW>
struct PanelRows {
  const float* panel;
  const float* operator()(std::size_t p) const { return panel + p * kW; }
};

struct OffsetRows {
  const float* origin;
  const std::size_t* off;
  const float* operator()(std::size_t p) const { return origin + off[p]; }
};

// Portable micro-kernel: tile[r][c] = sum_p apanel[p*6+r] * b(p)[c].
// Plain nested loops the compiler can unroll/vectorize at the baseline ISA;
// same p-ascending accumulation order as the AVX2 kernel.
// One tile row at a time: 16 accumulators fit the baseline SSE register
// file, so they stay register-resident across the whole k walk (a full
// 6×16 accumulator block spills and runs ~8x slower). B is re-read once
// per row but is at most kBlockK*kNr floats = 16 KiB (packed) or kb rows
// read in place — L1.
struct PortableTier {
  static constexpr std::size_t kWidth = kNr;
  template <class Rows>
  static void run(std::size_t kb, const float* apanel, Rows b, float* tile) {
    for (std::size_t r = 0; r < kMr; ++r) {
      float acc[kNr] = {0.0f};
      for (std::size_t p = 0; p < kb; ++p) {
        const float av = apanel[p * kMr + r];
        const float* bp = b(p);
        for (std::size_t c = 0; c < kNr; ++c) acc[c] += av * bp[c];
      }
      std::memcpy(tile + r * kNr, acc, sizeof(acc));
    }
  }
};

#ifdef FEDL_X86
// AVX2+FMA micro-kernel. Compiled with a function-level target attribute so
// the rest of the TU (and the whole build) stays at the baseline ISA; the
// dispatcher guarantees it only runs on CPUs with AVX2 and FMA.
struct Avx2Tier {
  static constexpr std::size_t kWidth = kNr;
  template <class Rows>
  __attribute__((target("avx2,fma"))) static void run(std::size_t kb,
                                                      const float* apanel,
                                                      Rows b, float* tile) {
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
    __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
    for (std::size_t p = 0; p < kb; ++p) {
      const float* bp = b(p);
      const __m256 b0 = _mm256_loadu_ps(bp);
      const __m256 b1 = _mm256_loadu_ps(bp + 8);
      const float* ap = apanel + p * kMr;
      __m256 a = _mm256_broadcast_ss(ap + 0);
      c00 = _mm256_fmadd_ps(a, b0, c00);
      c01 = _mm256_fmadd_ps(a, b1, c01);
      a = _mm256_broadcast_ss(ap + 1);
      c10 = _mm256_fmadd_ps(a, b0, c10);
      c11 = _mm256_fmadd_ps(a, b1, c11);
      a = _mm256_broadcast_ss(ap + 2);
      c20 = _mm256_fmadd_ps(a, b0, c20);
      c21 = _mm256_fmadd_ps(a, b1, c21);
      a = _mm256_broadcast_ss(ap + 3);
      c30 = _mm256_fmadd_ps(a, b0, c30);
      c31 = _mm256_fmadd_ps(a, b1, c31);
      a = _mm256_broadcast_ss(ap + 4);
      c40 = _mm256_fmadd_ps(a, b0, c40);
      c41 = _mm256_fmadd_ps(a, b1, c41);
      a = _mm256_broadcast_ss(ap + 5);
      c50 = _mm256_fmadd_ps(a, b0, c50);
      c51 = _mm256_fmadd_ps(a, b1, c51);
    }
    _mm256_storeu_ps(tile + 0 * kNr, c00);
    _mm256_storeu_ps(tile + 0 * kNr + 8, c01);
    _mm256_storeu_ps(tile + 1 * kNr, c10);
    _mm256_storeu_ps(tile + 1 * kNr + 8, c11);
    _mm256_storeu_ps(tile + 2 * kNr, c20);
    _mm256_storeu_ps(tile + 2 * kNr + 8, c21);
    _mm256_storeu_ps(tile + 3 * kNr, c30);
    _mm256_storeu_ps(tile + 3 * kNr + 8, c31);
    _mm256_storeu_ps(tile + 4 * kNr, c40);
    _mm256_storeu_ps(tile + 4 * kNr + 8, c41);
    _mm256_storeu_ps(tile + 5 * kNr, c50);
    _mm256_storeu_ps(tile + 5 * kNr + 8, c51);
  }
};

// AVX-512F micro-kernel: 6x32 tile as 12 ZMM accumulators (2 per row) + 2 B
// loads + 1 broadcast, mirroring the AVX2 register discipline at twice the
// width. Same p-ascending accumulation order as the other kernels.
struct Avx512Tier {
  static constexpr std::size_t kWidth = kNrAvx512;
  template <class Rows>
  __attribute__((target("avx512f"))) static void run(std::size_t kb,
                                                     const float* apanel,
                                                     Rows b, float* tile) {
    __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
    __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
    __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
    __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
    __m512 c40 = _mm512_setzero_ps(), c41 = _mm512_setzero_ps();
    __m512 c50 = _mm512_setzero_ps(), c51 = _mm512_setzero_ps();
    for (std::size_t p = 0; p < kb; ++p) {
      const float* bp = b(p);
      const __m512 b0 = _mm512_loadu_ps(bp);
      const __m512 b1 = _mm512_loadu_ps(bp + 16);
      const float* ap = apanel + p * kMr;
      __m512 a = _mm512_set1_ps(ap[0]);
      c00 = _mm512_fmadd_ps(a, b0, c00);
      c01 = _mm512_fmadd_ps(a, b1, c01);
      a = _mm512_set1_ps(ap[1]);
      c10 = _mm512_fmadd_ps(a, b0, c10);
      c11 = _mm512_fmadd_ps(a, b1, c11);
      a = _mm512_set1_ps(ap[2]);
      c20 = _mm512_fmadd_ps(a, b0, c20);
      c21 = _mm512_fmadd_ps(a, b1, c21);
      a = _mm512_set1_ps(ap[3]);
      c30 = _mm512_fmadd_ps(a, b0, c30);
      c31 = _mm512_fmadd_ps(a, b1, c31);
      a = _mm512_set1_ps(ap[4]);
      c40 = _mm512_fmadd_ps(a, b0, c40);
      c41 = _mm512_fmadd_ps(a, b1, c41);
      a = _mm512_set1_ps(ap[5]);
      c50 = _mm512_fmadd_ps(a, b0, c50);
      c51 = _mm512_fmadd_ps(a, b1, c51);
    }
    _mm512_storeu_ps(tile + 0 * kNrAvx512, c00);
    _mm512_storeu_ps(tile + 0 * kNrAvx512 + 16, c01);
    _mm512_storeu_ps(tile + 1 * kNrAvx512, c10);
    _mm512_storeu_ps(tile + 1 * kNrAvx512 + 16, c11);
    _mm512_storeu_ps(tile + 2 * kNrAvx512, c20);
    _mm512_storeu_ps(tile + 2 * kNrAvx512 + 16, c21);
    _mm512_storeu_ps(tile + 3 * kNrAvx512, c30);
    _mm512_storeu_ps(tile + 3 * kNrAvx512 + 16, c31);
    _mm512_storeu_ps(tile + 4 * kNrAvx512, c40);
    _mm512_storeu_ps(tile + 4 * kNrAvx512 + 16, c41);
    _mm512_storeu_ps(tile + 5 * kNrAvx512, c50);
    _mm512_storeu_ps(tile + 5 * kNrAvx512 + 16, c51);
  }
};
#endif  // FEDL_X86

// The two entry points of a tier (gemm_stages::MicroKernel).
template <class Tier>
void panel_kernel(std::size_t kb, const float* apanel, const float* bpanel,
                  float* tile) {
  Tier::run(kb, apanel, PanelRows<Tier::kWidth>{bpanel}, tile);
}

template <class Tier>
void offset_kernel(std::size_t kb, const float* apanel, const float* origin,
                   const std::size_t* off, float* tile) {
  Tier::run(kb, apanel, OffsetRows{origin, off}, tile);
}

template <class Tier>
gemm_stages::MicroKernel tier_kernel() {
  return {panel_kernel<Tier>, offset_kernel<Tier>, Tier::kWidth};
}

}  // namespace

namespace gemm_stages {

// Dispatch-layer telemetry: call volume and FLOP throughput, plus which
// micro-kernel tier the dispatcher resolved (0 = portable, 1 = AVX2+FMA,
// 2 = AVX-512) and how many extra workers the threaded macro loop ran with.
void note_gemm_call(std::size_t m, std::size_t n, std::size_t k) {
  static const obs::Counter calls("gemm.calls");
  static const obs::Counter flops("gemm.flops");
  static const obs::Gauge kernel_tier("gemm.kernel_tier");
  calls.add();
  flops.add(static_cast<std::uint64_t>(2) * m * n * k);
  kernel_tier.set(static_cast<double>(active_gemm_kernel()));
}

void note_gemm_threads(std::size_t extra) {
  static const obs::Counter threaded_calls("gemm.threaded_calls");
  static const obs::Counter threaded_workers("gemm.threaded_workers");
  threaded_calls.add();
  threaded_workers.add(extra);
}

void pack_a(bool trans_a, const float* a, std::size_t lda, std::size_t row0,
            std::size_t col0, std::size_t mb, std::size_t kb, float* out) {
  for (std::size_t ib = 0; ib < mb; ib += kMr) {
    const std::size_t rows = std::min(kMr, mb - ib);
    for (std::size_t p = 0; p < kb; ++p) {
      for (std::size_t r = 0; r < rows; ++r)
        out[p * kMr + r] = trans_a ? a[(col0 + p) * lda + (row0 + ib + r)]
                                   : a[(row0 + ib + r) * lda + (col0 + p)];
      for (std::size_t r = rows; r < kMr; ++r) out[p * kMr + r] = 0.0f;
    }
    out += kMr * kb;
  }
}

namespace {

// Copies kb rows of kW floats (source row stride ld) into a dense panel.
// The constant width lets the compiler inline each row copy as a few
// vector moves instead of a library call per 64- or 128-byte row.
template <std::size_t kW>
void copy_rows(const float* src, std::size_t ld, std::size_t kb, float* out) {
  for (std::size_t p = 0; p < kb; ++p)
    std::memcpy(out + p * kW, src + p * ld, kW * sizeof(float));
}

}  // namespace

// On SSE hosts each 4x4 block is four loads, a register transpose and four
// stores; missing rows read as zeros.
void transpose_4_rows(const float* const* rows, std::size_t live,
                      std::size_t kb, std::size_t nr, float* out) {
  std::size_t p = 0;
#ifdef __SSE__
  const __m128 zero = _mm_setzero_ps();
  for (; p + 4 <= kb; p += 4) {
    __m128 r0 = live > 0 ? _mm_loadu_ps(rows[0] + p) : zero;
    __m128 r1 = live > 1 ? _mm_loadu_ps(rows[1] + p) : zero;
    __m128 r2 = live > 2 ? _mm_loadu_ps(rows[2] + p) : zero;
    __m128 r3 = live > 3 ? _mm_loadu_ps(rows[3] + p) : zero;
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    _mm_storeu_ps(out + p * nr, r0);
    _mm_storeu_ps(out + (p + 1) * nr, r1);
    _mm_storeu_ps(out + (p + 2) * nr, r2);
    _mm_storeu_ps(out + (p + 3) * nr, r3);
  }
#endif
  for (; p < kb; ++p)
    for (std::size_t q = 0; q < 4; ++q)
      out[p * nr + q] = q < live ? rows[q][p] : 0.0f;
}

void pack_b(bool trans_b, const float* b, std::size_t ldb, std::size_t row0,
            std::size_t col0, std::size_t kb, std::size_t nb, std::size_t nr,
            float* out) {
  FEDL_CHECK_EQ(nr % 4, 0u) << "panel width " << nr;
  for (std::size_t jb = 0; jb < nb; jb += nr) {
    const std::size_t cols = std::min(nr, nb - jb);
    if (trans_b) {
      // op(B) columns are contiguous rows of B: transpose them four rows at
      // a time, each read in order; the blocks past nb write the padding.
      for (std::size_t c = 0; c < nr; c += 4) {
        const std::size_t live = cols > c ? std::min<std::size_t>(4, cols - c)
                                          : 0;
        const float* rows[4] = {};
        for (std::size_t q = 0; q < live; ++q)
          rows[q] = b + (col0 + jb + c + q) * ldb + row0;
        transpose_4_rows(rows, live, kb, nr, out + c);
      }
    } else if (cols == nr && nr == kNrAvx512) {
      copy_rows<kNrAvx512>(b + row0 * ldb + (col0 + jb), ldb, kb, out);
    } else if (cols == nr && nr == kNr) {
      copy_rows<kNr>(b + row0 * ldb + (col0 + jb), ldb, kb, out);
    } else {
      // Partial panel: live columns, then zeros, in one select per element
      // (no library call per short row).
      for (std::size_t p = 0; p < kb; ++p) {
        const float* src = b + (row0 + p) * ldb + (col0 + jb);
        float* o = out + p * nr;
        for (std::size_t c = 0; c < nr; ++c) o[c] = c < cols ? src[c] : 0.0f;
      }
    }
    out += nr * kb;
  }
}

namespace {

// C = alpha*tile [+ beta_eff*C] [+ bias], the mode tests resolved at
// compile time; each live element sees the same operations in the same
// order in every specialisation.
template <bool kReadC, BiasMode kBias>
void write_back(const float* tile, std::size_t nr_stride, float* c,
                std::size_t ldc, std::size_t mr, std::size_t nr, float alpha,
                float beta_eff, const float* bias, std::size_t row0,
                std::size_t col0) {
  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* trow = tile + r * nr_stride;
    const float row_bias = kBias == BiasMode::kPerRow ? bias[row0 + r] : 0.0f;
    const float* col_bias = kBias == BiasMode::kPerCol ? bias + col0 : nullptr;
    for (std::size_t cc = 0; cc < nr; ++cc) {
      float v = alpha * trow[cc];
      if constexpr (kReadC) v += beta_eff * crow[cc];
      if constexpr (kBias == BiasMode::kPerRow) v += row_bias;
      if constexpr (kBias == BiasMode::kPerCol) v += col_bias[cc];
      crow[cc] = v;
    }
  }
}

template <bool kReadC>
WriteBackFn write_back_for(BiasMode bias_mode) {
  switch (bias_mode) {
    case BiasMode::kPerRow:
      return write_back<kReadC, BiasMode::kPerRow>;
    case BiasMode::kPerCol:
      return write_back<kReadC, BiasMode::kPerCol>;
    case BiasMode::kNone:
      break;
  }
  return write_back<kReadC, BiasMode::kNone>;
}

}  // namespace

WriteBackFn select_write_back(bool read_c, BiasMode bias_mode) {
  return read_c ? write_back_for<true>(bias_mode)
                : write_back_for<false>(bias_mode);
}

MicroKernel select_micro_kernel() {
#ifdef FEDL_X86
  switch (active_gemm_kernel()) {
    case GemmKernel::kAvx512:
      return tier_kernel<Avx512Tier>();
    case GemmKernel::kAvx2Fma:
      return tier_kernel<Avx2Tier>();
    case GemmKernel::kPortable:
      break;
  }
#endif
  return tier_kernel<PortableTier>();
}

}  // namespace gemm_stages

void gemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const float* a, const float* b,
                float beta, float* c) {
  const std::size_t lda = trans_a ? m : k;
  const std::size_t ldb = trans_b ? k : n;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * n + j] =
          alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

void gemm_bias(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float beta, float* c,
               std::size_t ldc, BiasMode bias_mode, const float* bias) {
  if (m == 0 || n == 0) return;
  FEDL_PROFILE_SCOPE("tensor.gemm");
  gemm_stages::note_gemm_call(m, n, k);
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      const float row_bias =
          bias_mode == BiasMode::kPerRow ? bias[i] : 0.0f;
      for (std::size_t j = 0; j < n; ++j) {
        float v = beta == 0.0f ? 0.0f : beta * crow[j];
        if (bias_mode == BiasMode::kPerRow) v += row_bias;
        if (bias_mode == BiasMode::kPerCol) v += bias[j];
        crow[j] = v;
      }
    }
    return;
  }
  const gemm_stages::MicroKernel kd = gemm_stages::select_micro_kernel();
  const auto pack = [=](std::size_t p0, std::size_t j0, std::size_t kb,
                        std::size_t nb, std::size_t nr, float* out) {
    gemm_stages::pack_b(trans_b, b, ldb, p0, j0, kb, nb, nr, out);
  };
  gemm_stages::PanelOperand<decltype(pack)> operand(n, k, kd.nr, pack);
  gemm_stages::macro_loop({trans_a, m, n, k, alpha, a, lda, beta, c, ldc,
                           bias_mode, bias},
                          kd, operand);
}

void gemm_bias(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, const float* b,
               float beta, float* c, BiasMode bias_mode, const float* bias) {
  gemm_bias(trans_a, trans_b, m, n, k, alpha, a, trans_a ? m : k, b,
            trans_b ? k : n, beta, c, n, bias_mode, bias);
}

void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  gemm_bias(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, BiasMode::kNone,
            nullptr);
}

void gemm(bool trans_a, bool trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c) {
  FEDL_CHECK_EQ(a.shape().rank(), 2u);
  FEDL_CHECK_EQ(b.shape().rank(), 2u);
  const std::size_t m = trans_a ? a.shape()[1] : a.shape()[0];
  const std::size_t ka = trans_a ? a.shape()[0] : a.shape()[1];
  const std::size_t kb = trans_b ? b.shape()[1] : b.shape()[0];
  const std::size_t n = trans_b ? b.shape()[0] : b.shape()[1];
  FEDL_CHECK_EQ(ka, kb) << "inner dims mismatch: " << a.shape().str() << " * "
                        << b.shape().str();
  if (c.shape() != Shape{m, n}) {
    FEDL_CHECK_EQ(beta, 0.0f) << "beta != 0 requires a correctly-shaped C";
    c = Tensor(Shape{m, n});
  }
  gemm(trans_a, trans_b, m, n, ka, alpha, a.data(), b.data(), beta, c.data());
}

}  // namespace fedl
