#ifndef FEDDA_TENSOR_KERNELS_INTERNAL_H_
#define FEDDA_TENSOR_KERNELS_INTERNAL_H_

#include <cstdint>

#include "tensor/kernels/kernels.h"

/// Per-path serial kernels. The public entry points (kernels.h) resolve the
/// active path once, partition the index space with the thread pool, and
/// call one of these on each [begin, end) range. Keeping the per-path
/// functions serial and range-based means the dispatch and threading logic
/// exists exactly once (dispatch.cc) and every path sees identical chunk
/// boundaries.
///
/// Both paths define the set below. The lane-independent kernels have one
/// source, lane_kernels.inc, which scalar.cc and avx2.cc each compile into
/// their own namespace; only the matmuls differ (avx2.cc hand-blocks them
/// in intrinsics). `scalar` is the reference: its build of every loop is
/// the bit-exactness contract the AVX2 build is tested against. It alone
/// holds the gather copy and the exp-based segment kernels, which run
/// scalar on every path. MatMulTransARows computes rows [row_begin,
/// row_end) of out (m x n) += aᵀ * b, where a is (k x m) and is read
/// column-wise.
#define FEDDA_KERNELS_PER_PATH                                                \
  void MatMulRows(const float* a, const float* b, float* out,                 \
                  int64_t row_begin, int64_t row_end, int64_t k, int64_t n);  \
  void MatMulTransARows(const float* a, const float* b, float* out,           \
                        int64_t row_begin, int64_t row_end, int64_t m,        \
                        int64_t k, int64_t n);                                \
  void EwMul(const float* a, const float* b, float* out, int64_t begin,       \
             int64_t end);                                                    \
  void EwAdd(const float* a, const float* b, float* out, int64_t begin,       \
             int64_t end);                                                    \
  void EwSub(const float* a, const float* b, float* out, int64_t begin,       \
             int64_t end);                                                    \
  void AccumulateAdd(float* dst, const float* src, int64_t begin,             \
                     int64_t end);                                            \
  void AccumulateAxpy(float* dst, float alpha, const float* src,              \
                      int64_t begin, int64_t end);                            \
  void AccumulateMul(float* dst, const float* a, const float* b,              \
                     int64_t begin, int64_t end);                             \
  void Scale(float* dst, float alpha, int64_t begin, int64_t end);            \
  void LeakyRelu(const float* a, float* out, float slope, int64_t begin,      \
                 int64_t end);                                                \
  void BiasAddRows(const float* x, const float* bias, float* out,             \
                   int64_t row_begin, int64_t row_end, int64_t cols);         \
  void AccumulateGatherRowsRange(const float* src, const int32_t* idx,        \
                                 int64_t i_begin, int64_t i_end,              \
                                 int64_t cols, float* dst);                   \
  void ScatterAddRowsRange(const float* src, const Csr& csr, int64_t cols,    \
                           float* out, int64_t row_begin, int64_t row_end);

namespace fedda::tensor::kernels::scalar {

FEDDA_KERNELS_PER_PATH

void GatherRowsRange(const float* src, const int32_t* idx, int64_t i_begin,
                     int64_t i_end, int64_t cols, float* out);
void SegmentSoftmaxRows(const float* logits, const Csr& csr, float* out,
                        int64_t seg_begin, int64_t seg_end);
void SegmentSoftmaxGradRows(const float* y, const float* dy, const Csr& csr,
                            float* dl, int64_t seg_begin, int64_t seg_end);

}  // namespace fedda::tensor::kernels::scalar

namespace fedda::tensor::kernels::avx2 {

FEDDA_KERNELS_PER_PATH

/// True when avx2.cc was compiled with AVX2 codegen enabled (the build
/// probed -mavx2 successfully). Runtime CPU support is checked separately.
bool KernelsCompiled();

}  // namespace fedda::tensor::kernels::avx2

#undef FEDDA_KERNELS_PER_PATH

#endif  // FEDDA_TENSOR_KERNELS_INTERNAL_H_
