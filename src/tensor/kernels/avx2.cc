// The AVX2 path, built with AVX2 codegen and -ffp-contract=off when the
// toolchain supports it (see src/tensor/CMakeLists.txt). Its lane-independent
// kernels are lane_kernels.inc, the scalar path's source, vectorized by the
// compiler. Only the two matmuls are written in intrinsics: they keep their
// accumulators in registers across the whole kk reduction, which the
// compiler does not do. Rules that keep them bit-identical to scalar.cc:
//  - each out[i,j] sums over kk in increasing order, with the scalar path's
//    semantic zero-skip; only the lane-independent direction (output
//    columns, or output rows in MatMulTransABlock) is widened;
//  - multiplies and adds stay separate intrinsics, never a fused
//    multiply-add.
// Without AVX2 the shared kernels compile as scalar code and the matmuls
// forward to scalar.

#include "tensor/kernels/internal.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace fedda::tensor::kernels::avx2 {

bool KernelsCompiled() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

#if defined(__AVX2__)

namespace {

// Element (i, kk) of the left operand is arow[kk * k_stride] with arow =
// a + i * i_stride, mirroring scalar.cc: the plain and transposed-operand
// kernels are this one body with different load addresses.
inline void MatMulRowsImpl(const float* a, const float* b, float* out,
                           int64_t row_begin, int64_t row_end,
                           int64_t i_stride, int64_t k_stride, int64_t k,
                           int64_t n) {
  // Register-blocked over output columns: 64 columns (8 ymm accumulators)
  // stay resident across the whole kk reduction, so B is streamed once per
  // block and OUT is touched twice. Each out[i,j] still accumulates over kk
  // in increasing order — bit-identical to the scalar i-k-j loop.
  constexpr int64_t kBlock = 64;
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * i_stride;
    float* orow = out + i * n;
    int64_t j = 0;
    for (; j + kBlock <= n; j += kBlock) {
      float* oblk = orow + j;
      __m256 acc0 = _mm256_loadu_ps(oblk + 0);
      __m256 acc1 = _mm256_loadu_ps(oblk + 8);
      __m256 acc2 = _mm256_loadu_ps(oblk + 16);
      __m256 acc3 = _mm256_loadu_ps(oblk + 24);
      __m256 acc4 = _mm256_loadu_ps(oblk + 32);
      __m256 acc5 = _mm256_loadu_ps(oblk + 40);
      __m256 acc6 = _mm256_loadu_ps(oblk + 48);
      __m256 acc7 = _mm256_loadu_ps(oblk + 56);
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aval = arow[kk * k_stride];
        if (aval == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(aval);
        const float* bblk = b + kk * n + j;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bblk)));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(va, _mm256_loadu_ps(bblk + 8)));
        acc2 = _mm256_add_ps(acc2,
                             _mm256_mul_ps(va, _mm256_loadu_ps(bblk + 16)));
        acc3 = _mm256_add_ps(acc3,
                             _mm256_mul_ps(va, _mm256_loadu_ps(bblk + 24)));
        acc4 = _mm256_add_ps(acc4,
                             _mm256_mul_ps(va, _mm256_loadu_ps(bblk + 32)));
        acc5 = _mm256_add_ps(acc5,
                             _mm256_mul_ps(va, _mm256_loadu_ps(bblk + 40)));
        acc6 = _mm256_add_ps(acc6,
                             _mm256_mul_ps(va, _mm256_loadu_ps(bblk + 48)));
        acc7 = _mm256_add_ps(acc7,
                             _mm256_mul_ps(va, _mm256_loadu_ps(bblk + 56)));
      }
      _mm256_storeu_ps(oblk + 0, acc0);
      _mm256_storeu_ps(oblk + 8, acc1);
      _mm256_storeu_ps(oblk + 16, acc2);
      _mm256_storeu_ps(oblk + 24, acc3);
      _mm256_storeu_ps(oblk + 32, acc4);
      _mm256_storeu_ps(oblk + 40, acc5);
      _mm256_storeu_ps(oblk + 48, acc6);
      _mm256_storeu_ps(oblk + 56, acc7);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(orow + j);
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aval = arow[kk * k_stride];
        if (aval == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(aval),
                               _mm256_loadu_ps(b + kk * n + j)));
      }
      _mm256_storeu_ps(orow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = orow[j];
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aval = arow[kk * k_stride];
        if (aval == 0.0f) continue;
        acc += aval * b[kk * n + j];
      }
      orow[j] = acc;
    }
  }
}

}  // namespace

void MatMulRows(const float* a, const float* b, float* out, int64_t row_begin,
                int64_t row_end, int64_t k, int64_t n) {
  MatMulRowsImpl(a, b, out, row_begin, row_end, /*i_stride=*/k,
                 /*k_stride=*/1, k, n);
}

namespace {

// Output rows [i, i + 8) x columns [j0, j0 + kWidth) of the transposed
// product. The eight rows' A entries for one kk are adjacent in A's row kk,
// so one load feeds all of them and the lanes run over output rows; each
// column keeps its own accumulator. A lane whose A entry is zero keeps its
// accumulator through a blend: that skips the product exactly as the
// scalar `continue` does (adding the product instead would turn -0 into
// +0, and 0 * inf into NaN). Every out[i,j] still sums over kk in
// increasing order, so the block is bit-identical to the scalar loop.
template <int kWidth>
void MatMulTransABlock(const float* a, const float* b, float* out, int64_t i,
                       int64_t j0, int64_t m, int64_t k, int64_t n) {
  const __m256 vzero = _mm256_setzero_ps();
  alignas(32) float lanes[8];
  // The fully unrolled column loops keep acc[] in registers.
  __m256 acc[kWidth];
  for (int j = 0; j < kWidth; ++j) {
    for (int l = 0; l < 8; ++l) lanes[l] = out[(i + l) * n + j0 + j];
    acc[j] = _mm256_load_ps(lanes);
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 va = _mm256_loadu_ps(a + kk * m + i);
    const __m256 skip = _mm256_cmp_ps(va, vzero, _CMP_EQ_OQ);
    const float* brow = b + kk * n + j0;
#pragma GCC unroll 8
    for (int j = 0; j < kWidth; ++j) {
      const __m256 sum =
          _mm256_add_ps(acc[j], _mm256_mul_ps(va, _mm256_set1_ps(brow[j])));
      acc[j] = _mm256_blendv_ps(sum, acc[j], skip);
    }
  }
  for (int j = 0; j < kWidth; ++j) {
    _mm256_store_ps(lanes, acc[j]);
    for (int l = 0; l < 8; ++l) out[(i + l) * n + j0 + j] = lanes[l];
  }
}

}  // namespace

void MatMulTransARows(const float* a, const float* b, float* out,
                      int64_t row_begin, int64_t row_end, int64_t m,
                      int64_t k, int64_t n) {
  // Output rows in blocks of eight (vectorized over rows, see
  // MatMulTransABlock), columns in passes of at most eight accumulators.
  int64_t i = row_begin;
  for (; i + 8 <= row_end; i += 8) {
    int64_t j0 = 0;
    for (; j0 + 8 <= n; j0 += 8) {
      MatMulTransABlock<8>(a, b, out, i, j0, m, k, n);
    }
    if (j0 + 4 <= n) {
      MatMulTransABlock<4>(a, b, out, i, j0, m, k, n);
      j0 += 4;
    }
    if (j0 + 2 <= n) {
      MatMulTransABlock<2>(a, b, out, i, j0, m, k, n);
      j0 += 2;
    }
    if (j0 < n) MatMulTransABlock<1>(a, b, out, i, j0, m, k, n);
  }
  // Fewer than eight rows left: one row at a time, reading A column-wise.
  MatMulRowsImpl(a, b, out, i, row_end, /*i_stride=*/1, /*k_stride=*/m, k,
                 n);
}

#else  // !defined(__AVX2__): toolchain without -mavx2.

void MatMulRows(const float* a, const float* b, float* out, int64_t row_begin,
                int64_t row_end, int64_t k, int64_t n) {
  scalar::MatMulRows(a, b, out, row_begin, row_end, k, n);
}
void MatMulTransARows(const float* a, const float* b, float* out,
                      int64_t row_begin, int64_t row_end, int64_t m,
                      int64_t k, int64_t n) {
  scalar::MatMulTransARows(a, b, out, row_begin, row_end, m, k, n);
}

#endif  // defined(__AVX2__)

#include "tensor/kernels/lane_kernels.inc"

}  // namespace fedda::tensor::kernels::avx2
