#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels/internal.h"

namespace fedda::tensor::kernels::scalar {

// The loops in this file and in lane_kernels.inc ARE the numeric contract:
// they reproduce the historical op implementations expression for
// expression (same operation order, no reassociation), and the AVX2 path is
// tested bit-for-bit against them. Change nothing here without regenerating
// every golden suite. avx2.cc compiles lane_kernels.inc again and
// hand-blocks its own matmul; the gather copy and the segment softmax below
// run on every path.

namespace {

// Element (i, kk) of the left operand sits at a[i * i_stride + kk *
// k_stride]; strides (1, m) read a (k x m) matrix column-wise as its
// transpose. Both entry points share this one loop body, so the transposed
// kernel is the plain one with only the load address changed.
inline void MatMulRowsImpl(const float* a, const float* b, float* out,
                           int64_t row_begin, int64_t row_end,
                           int64_t i_stride, int64_t k_stride, int64_t k,
                           int64_t n) {
  // i-k-j order: streams through B rows, cache-friendly for row-major. The
  // zero-skip is semantic, not just fast: skipping `0 * b[j]` also skips the
  // NaN that 0 * inf would produce, so every path must skip identically.
  for (int64_t i = row_begin; i < row_end; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = a[i * i_stride + kk * k_stride];
      if (aval == 0.0f) continue;
      const float* brow = b + kk * n;
      float* orow = out + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += aval * brow[j];
    }
  }
}

}  // namespace

void MatMulRows(const float* a, const float* b, float* out, int64_t row_begin,
                int64_t row_end, int64_t k, int64_t n) {
  MatMulRowsImpl(a, b, out, row_begin, row_end, /*i_stride=*/k,
                 /*k_stride=*/1, k, n);
}

void MatMulTransARows(const float* a, const float* b, float* out,
                      int64_t row_begin, int64_t row_end, int64_t m,
                      int64_t k, int64_t n) {
  MatMulRowsImpl(a, b, out, row_begin, row_end, /*i_stride=*/1,
                 /*k_stride=*/m, k, n);
}

#include "tensor/kernels/lane_kernels.inc"

void GatherRowsRange(const float* src, const int32_t* idx, int64_t i_begin,
                     int64_t i_end, int64_t cols, float* out) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const int64_t r = idx[i];
    std::copy(src + r * cols, src + (r + 1) * cols, out + i * cols);
  }
}

void SegmentSoftmaxRows(const float* logits, const Csr& csr, float* out,
                        int64_t seg_begin, int64_t seg_end) {
  // Each segment's max/sum accumulate over members in increasing position
  // order — the same partial sums the original interleaved sequential loop
  // produced, so any segment partition is bit-identical.
  for (int64_t s = seg_begin; s < seg_end; ++s) {
    const int64_t lo = csr.offsets[static_cast<size_t>(s)];
    const int64_t hi = csr.offsets[static_cast<size_t>(s) + 1];
    float seg_max = -std::numeric_limits<float>::infinity();
    for (int64_t p = lo; p < hi; ++p) {
      seg_max = std::max(seg_max, logits[csr.order[static_cast<size_t>(p)]]);
    }
    float seg_sum = 0.0f;
    for (int64_t p = lo; p < hi; ++p) {
      const int64_t i = csr.order[static_cast<size_t>(p)];
      const float e = std::exp(logits[i] - seg_max);
      out[i] = e;
      seg_sum += e;
    }
    for (int64_t p = lo; p < hi; ++p) {
      out[csr.order[static_cast<size_t>(p)]] /= seg_sum;
    }
  }
}

void SegmentSoftmaxGradRows(const float* y, const float* dy, const Csr& csr,
                            float* dl, int64_t seg_begin, int64_t seg_end) {
  // d l_i = y_i * (dy_i - sum_{j in seg(i)} y_j dy_j)
  for (int64_t s = seg_begin; s < seg_end; ++s) {
    const int64_t lo = csr.offsets[static_cast<size_t>(s)];
    const int64_t hi = csr.offsets[static_cast<size_t>(s) + 1];
    float seg_dot = 0.0f;
    for (int64_t p = lo; p < hi; ++p) {
      const int64_t i = csr.order[static_cast<size_t>(p)];
      seg_dot += y[i] * dy[i];
    }
    for (int64_t p = lo; p < hi; ++p) {
      const int64_t i = csr.order[static_cast<size_t>(p)];
      dl[i] += y[i] * (dy[i] - seg_dot);
    }
  }
}

}  // namespace fedda::tensor::kernels::scalar
