// Compiled with -mavx2 -ffp-contract=off when the toolchain supports it
// (see src/tensor/CMakeLists.txt); otherwise every function forwards to the
// scalar reference. -ffp-contract=off matters: contracting mul+add into an
// FMA would change rounding and break the bit-exactness contract.
//
// Vectorization rules that keep every kernel bit-identical to scalar.cc:
//  - elementwise kernels are lane-independent, so an 8-wide main loop plus
//    a scalar tail computes exactly the scalar expression per element;
//  - multiplies and adds stay separate intrinsics (_mm256_mul_ps then
//    _mm256_add_ps), never _mm256_fmadd_ps;
//  - matmul (plain and transposed-operand) keeps the per-element reduction
//    in increasing-kk order and the semantic zero-skip of the scalar path,
//    only widening over the output columns j (lane-independent direction);
//  - branches become compare+blend mirroring the scalar ternary exactly
//    (including negative zero and NaN operands).

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

void EwMul(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < end; ++i) out[i] = a[i] * b[i];
}

void EwAdd(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < end; ++i) out[i] = a[i] + b[i];
}

void EwSub(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < end; ++i) out[i] = a[i] - b[i];
}

void AccumulateAdd(float* dst, const float* src, int64_t begin, int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < end; ++i) dst[i] += src[i];
}

void AccumulateAxpy(float* dst, float alpha, const float* src, int64_t begin,
                    int64_t end) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(src + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < end; ++i) dst[i] += alpha * src[i];
}

void AccumulateMul(float* dst, const float* a, const float* b, int64_t begin,
                   int64_t end) {
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < end; ++i) dst[i] += a[i] * b[i];
}

void Scale(float* dst, float alpha, int64_t begin, int64_t end) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), va));
  }
  for (; i < end; ++i) dst[i] *= alpha;
}

namespace {

// v > 0 ? v : slope * v, lane-wise. The compare-and-blend reproduces the
// scalar ternary exactly: +0/-0 compare as not-greater (take slope * v, and
// slope * ±0 matches scalar), NaN compares false (take slope * NaN = NaN,
// same quieted multiply as scalar).
inline __m256 LeakyReluVec(__m256 v, __m256 vslope, __m256 vzero) {
  const __m256 neg = _mm256_mul_ps(vslope, v);
  const __m256 gt = _mm256_cmp_ps(v, vzero, _CMP_GT_OQ);
  return _mm256_blendv_ps(neg, v, gt);
}

}  // namespace

void LeakyRelu(const float* a, float* out, float slope, int64_t begin,
               int64_t end) {
  const __m256 vslope = _mm256_set1_ps(slope);
  const __m256 vzero = _mm256_setzero_ps();
  int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    _mm256_storeu_ps(out + i,
                     LeakyReluVec(_mm256_loadu_ps(a + i), vslope, vzero));
  }
  for (; i < end; ++i) {
    const float x = a[i];
    out[i] = x > 0.0f ? x : slope * x;
  }
}

void BiasAddRows(const float* x, const float* bias, float* out,
                 int64_t row_begin, int64_t row_end, int64_t cols) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float* xrow = x + r * cols;
    float* orow = out + r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(orow + c, _mm256_add_ps(_mm256_loadu_ps(xrow + c),
                                               _mm256_loadu_ps(bias + c)));
    }
    for (; c < cols; ++c) orow[c] = xrow[c] + bias[c];
  }
}

void AccumulateGatherRowsRange(const float* src, const int32_t* idx,
                               int64_t i_begin, int64_t i_end, int64_t cols,
                               float* dst) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const float* srow = src + static_cast<int64_t>(idx[i]) * cols;
    float* drow = dst + i * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(drow + c, _mm256_add_ps(_mm256_loadu_ps(drow + c),
                                               _mm256_loadu_ps(srow + c)));
    }
    for (; c < cols; ++c) drow[c] += srow[c];
  }
}

void ScatterAddRowsRange(const float* src, const Csr& csr, int64_t cols,
                         float* out, int64_t row_begin, int64_t row_end) {
  // Contributions to one destination row are accumulated position by
  // position (never reassociated across positions); only the independent
  // column direction is widened.
  for (int64_t r = row_begin; r < row_end; ++r) {
    float* dst = out + r * cols;
    for (int64_t p = csr.offsets[static_cast<size_t>(r)];
         p < csr.offsets[static_cast<size_t>(r) + 1]; ++p) {
      const int64_t i = csr.order[static_cast<size_t>(p)];
      const float* srow = src + i * cols;
      int64_t c = 0;
      for (; c + 8 <= cols; c += 8) {
        _mm256_storeu_ps(dst + c, _mm256_add_ps(_mm256_loadu_ps(dst + c),
                                                _mm256_loadu_ps(srow + c)));
      }
      for (; c < cols; ++c) dst[c] += srow[c];
    }
  }
}

#else  // !defined(__AVX2__): toolchain without -mavx2; forward to scalar.

void MatMulRows(const float* a, const float* b, float* out, int64_t row_begin,
                int64_t row_end, int64_t k, int64_t n) {
  scalar::MatMulRows(a, b, out, row_begin, row_end, k, n);
}
void MatMulTransARows(const float* a, const float* b, float* out,
                      int64_t row_begin, int64_t row_end, int64_t m,
                      int64_t k, int64_t n) {
  scalar::MatMulTransARows(a, b, out, row_begin, row_end, m, k, n);
}
void EwMul(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  scalar::EwMul(a, b, out, begin, end);
}
void EwAdd(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  scalar::EwAdd(a, b, out, begin, end);
}
void EwSub(const float* a, const float* b, float* out, int64_t begin,
           int64_t end) {
  scalar::EwSub(a, b, out, begin, end);
}
void AccumulateAdd(float* dst, const float* src, int64_t begin, int64_t end) {
  scalar::AccumulateAdd(dst, src, begin, end);
}
void AccumulateAxpy(float* dst, float alpha, const float* src, int64_t begin,
                    int64_t end) {
  scalar::AccumulateAxpy(dst, alpha, src, begin, end);
}
void AccumulateMul(float* dst, const float* a, const float* b, int64_t begin,
                   int64_t end) {
  scalar::AccumulateMul(dst, a, b, begin, end);
}
void Scale(float* dst, float alpha, int64_t begin, int64_t end) {
  scalar::Scale(dst, alpha, begin, end);
}
void LeakyRelu(const float* a, float* out, float slope, int64_t begin,
               int64_t end) {
  scalar::LeakyRelu(a, out, slope, begin, end);
}
void BiasAddRows(const float* x, const float* bias, float* out,
                 int64_t row_begin, int64_t row_end, int64_t cols) {
  scalar::BiasAddRows(x, bias, out, row_begin, row_end, cols);
}
void AccumulateGatherRowsRange(const float* src, const int32_t* idx,
                               int64_t i_begin, int64_t i_end, int64_t cols,
                               float* dst) {
  scalar::AccumulateGatherRowsRange(src, idx, i_begin, i_end, cols, dst);
}
void ScatterAddRowsRange(const float* src, const Csr& csr, int64_t cols,
                         float* out, int64_t row_begin, int64_t row_end) {
  scalar::ScatterAddRowsRange(src, csr, cols, out, row_begin, row_end);
}

#endif  // defined(__AVX2__)

}  // namespace fedda::tensor::kernels::avx2
