// Kernel-equivalence harness (DESIGN.md §13): every dispatched kernel must
// produce *byte-identical* output on every available dispatch path at every
// thread count. The reference for each case is the scalar path executed
// inline (null pool); the battery re-runs the same case under the
// parameterized (path, threads) pair and compares with memcmp, so negative
// zeros, NaN payloads and denormals all count.
//
// Shapes are adversarial on purpose: empty, singleton, every tail residue
// n ≡ 1..7 (mod 8) around the AVX2 vector width, sizes straddling the
// 64-column matmul register block, aliased outputs for the elementwise
// kernels, and gather/scatter index patterns with heavy duplication.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/kernels/kernels.h"

namespace fedda::tensor {
namespace {

namespace k = ::fedda::tensor::kernels;

/// The mode that runs `path`: kAuto runs every supported path other than
/// scalar.
k::DispatchMode ModeFor(k::Path path) {
  return path == k::Path::kScalar ? k::DispatchMode::kScalar
                                  : k::DispatchMode::kAuto;
}

/// Saves and restores the process-wide dispatch mode around each test.
class DispatchGuard {
 public:
  DispatchGuard() : saved_(k::dispatch_mode()) {}
  ~DispatchGuard() { k::SetDispatchMode(saved_); }

 private:
  k::DispatchMode saved_;
};

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Deterministic data with the hostile cases mixed in: exact zeros (the
/// matmul zero-skip), negative zeros, and magnitudes spread over several
/// orders so reassociated accumulation would actually change bits.
std::vector<float> RandomData(int64_t n, core::Rng* rng) {
  std::vector<float> out(static_cast<size_t>(n));
  for (auto& v : out) {
    const double roll = rng->Uniform();
    if (roll < 0.05) {
      v = 0.0f;
    } else if (roll < 0.08) {
      v = -0.0f;
    } else if (roll < 0.12) {
      v = static_cast<float>(rng->Uniform(-1e-6, 1e-6));
    } else {
      v = static_cast<float>(rng->Uniform(-8.0, 8.0));
    }
  }
  return out;
}

/// (rows x cols) row-major -> its (cols x rows) transpose.
std::vector<float> Transpose(const std::vector<float>& a, int64_t rows,
                             int64_t cols) {
  std::vector<float> out(a.size());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      out[static_cast<size_t>(c * rows + r)] =
          a[static_cast<size_t>(r * cols + c)];
    }
  }
  return out;
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<k::Path, int>> {
 protected:
  void SetUp() override {
    path_ = std::get<0>(GetParam());
    const int threads = std::get<1>(GetParam());
    if (threads > 0) pool_ = std::make_unique<core::ThreadPool>(threads);
  }

  core::ThreadPool* pool() { return pool_.get(); }

  /// Runs `make_output` twice — scalar reference inline, then the
  /// parameterized path on the test's pool — and requires byte equality.
  /// `make_output` must regenerate any in/out buffers itself so the two
  /// runs start from identical state.
  template <typename Fn>
  void RunCase(const std::string& what, Fn&& make_output) {
    RunCase(what, make_output, make_output);
  }

  /// As above, with a separate reference: `reference` runs on the scalar
  /// path inline, `candidate` on the parameterized path and pool.
  template <typename Ref, typename Fn>
  void RunCase(const std::string& what, Ref&& reference, Fn&& candidate) {
    k::SetDispatchMode(k::DispatchMode::kScalar);
    ASSERT_EQ(k::ActivePath(), k::Path::kScalar);
    const std::vector<float> expected = reference(nullptr);
    k::SetDispatchMode(ModeFor(path_));
    ASSERT_EQ(k::ActivePath(), path_);
    const std::vector<float> actual = candidate(pool());
    ASSERT_EQ(expected.size(), actual.size()) << what;
    if (expected.empty()) return;
    if (std::memcmp(expected.data(), actual.data(),
                    expected.size() * sizeof(float)) == 0) {
      return;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(Bits(expected[i]), Bits(actual[i]))
          << what << ": first bit mismatch at flat index " << i << " ("
          << expected[i] << " vs " << actual[i] << ") on path "
          << k::PathName(path_);
    }
  }

  /// The transposed-operand kernel against its contract: MatMulTransA(a, b)
  /// must equal the scalar MatMul on an explicit transposed copy of `a`, byte
  /// for byte, on every path and thread count.
  void RunTransACase(const std::string& what, const std::vector<float>& a,
                     const std::vector<float>& b, int64_t m, int64_t kd,
                     int64_t n) {
    const std::vector<float> at = Transpose(a, kd, m);
    RunCase(
        what,
        [&](core::ThreadPool* p) {
          std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
          k::MatMul(at.data(), b.data(), out.data(), m, kd, n, p);
          return out;
        },
        [&](core::ThreadPool* p) {
          std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
          k::MatMulTransA(a.data(), b.data(), out.data(), m, kd, n, p);
          return out;
        });
  }

  DispatchGuard guard_;
  k::Path path_ = k::Path::kScalar;
  std::unique_ptr<core::ThreadPool> pool_;
};

// Tail residues around the 8-lane vector width, explicit per the harness
// contract: n ≡ 0..7 (mod 8) both below and above one full vector.
const int64_t kTailSizes[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                              15, 16, 17, 33, 34, 35, 36, 37, 38, 39,
                              63, 64, 65, 1000};

TEST_P(KernelEquivalenceTest, MatMul) {
  const struct {
    int64_t m, k_dim, n;
  } shapes[] = {{0, 0, 0},  {0, 3, 2},   {1, 1, 1},  {3, 5, 7},
                {2, 8, 8},  {4, 3, 64},  {2, 2, 65}, {1, 9, 71},
                {5, 17, 130}, {3, 257, 1}, {7, 1, 9}};
  core::Rng rng(1234);
  for (const auto& s : shapes) {
    const std::vector<float> a = RandomData(s.m * s.k_dim, &rng);
    const std::vector<float> b = RandomData(s.k_dim * s.n, &rng);
    RunCase("matmul " + std::to_string(s.m) + "x" + std::to_string(s.k_dim) +
                "x" + std::to_string(s.n),
            [&](core::ThreadPool* p) {
              std::vector<float> out(static_cast<size_t>(s.m * s.n), 0.0f);
              k::MatMul(a.data(), b.data(), out.data(), s.m, s.k_dim, s.n, p);
              return out;
            });
  }
}

TEST_P(KernelEquivalenceTest, MatMulZeroSkipIsSemantic) {
  // Rows of B reached only through zero A entries hold inf/NaN; the
  // zero-skip means they must never be touched, on any path. If a path
  // dropped the skip, 0 * inf = NaN would leak into the output.
  const int64_t m = 3, kd = 4, n = 19;
  std::vector<float> a(static_cast<size_t>(m * kd), 0.0f);
  a[0 * kd + 1] = 2.0f;  // row 0 uses only B row 1
  a[1 * kd + 3] = -1.5f; // row 1 uses only B row 3
  // row 2 of A is all zeros -> output row 2 stays exactly zero.
  std::vector<float> b(static_cast<size_t>(kd * n));
  for (int64_t r = 0; r < kd; ++r) {
    const float fill = (r == 1 || r == 3)
                           ? 0.5f
                           : std::numeric_limits<float>::quiet_NaN();
    for (int64_t c = 0; c < n; ++c) b[static_cast<size_t>(r * n + c)] = fill;
  }
  RunCase("matmul-zero-skip", [&](core::ThreadPool* p) {
    std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
    k::MatMul(a.data(), b.data(), out.data(), m, kd, n, p);
    for (float v : out) EXPECT_FALSE(std::isnan(v));
    return out;
  });
}

TEST_P(KernelEquivalenceTest, MatMulTransAMatchesTransposedCopy) {
  // (m, k, n) with a (k x m): n = 1 is the attention-vector case (a_src /
  // a_dst weights, k = node count); the rest put n on and off the 8-lane
  // and 64-column boundaries, with m = 1 and k = 1 edges.
  const struct {
    int64_t m, k_dim, n;
  } shapes[] = {{0, 0, 0},   {0, 3, 2},   {1, 1, 1},    {3, 5, 7},
                {8, 2, 8},   {16, 333, 1}, {8, 1000, 1}, {1, 9, 71},
                {4, 3, 64},  {2, 2, 65},  {5, 17, 130}, {37, 129, 9},
                {64, 50, 16}, {7, 1, 9}};
  core::Rng rng(4321);
  for (const auto& s : shapes) {
    const std::vector<float> a = RandomData(s.k_dim * s.m, &rng);
    const std::vector<float> b = RandomData(s.k_dim * s.n, &rng);
    RunTransACase("matmul-trans-a " + std::to_string(s.m) + "x" +
                      std::to_string(s.k_dim) + "x" + std::to_string(s.n),
                  a, b, s.m, s.k_dim, s.n);
  }
}

TEST_P(KernelEquivalenceTest, MatMulTransAZeroSkipIsSemantic) {
  // As MatMulZeroSkipIsSemantic, through the transposed operand: B rows
  // reached only through zero entries of A's columns hold inf/NaN and must
  // never be read into the output.
  const int64_t m = 3, kd = 4, n = 19;
  std::vector<float> a(static_cast<size_t>(kd * m), 0.0f);
  a[1 * m + 0] = 2.0f;   // output row 0 uses only B row 1
  a[3 * m + 1] = -1.5f;  // output row 1 uses only B row 3
  // column 2 of A is all zeros -> output row 2 stays exactly zero.
  std::vector<float> b(static_cast<size_t>(kd * n));
  for (int64_t r = 0; r < kd; ++r) {
    const float fill = r == 1   ? 0.5f
                       : r == 3 ? -0.25f
                       : r == 0 ? std::numeric_limits<float>::infinity()
                                : std::numeric_limits<float>::quiet_NaN();
    for (int64_t c = 0; c < n; ++c) b[static_cast<size_t>(r * n + c)] = fill;
  }
  RunTransACase("matmul-trans-a-zero-skip", a, b, m, kd, n);
  std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
  k::MatMulTransA(a.data(), b.data(), out.data(), m, kd, n, pool());
  for (float v : out) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(KernelEquivalenceTest, ElementwiseAndAccumulate) {
  core::Rng rng(77);
  for (int64_t n : kTailSizes) {
    const std::vector<float> a = RandomData(n, &rng);
    const std::vector<float> b = RandomData(n, &rng);
    const std::vector<float> seed = RandomData(n, &rng);
    const std::string tag = " n=" + std::to_string(n);
    RunCase("ewmul" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(a.size());
      k::EwMul(a.data(), b.data(), out.data(), n, p);
      return out;
    });
    RunCase("ewadd" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(a.size());
      k::EwAdd(a.data(), b.data(), out.data(), n, p);
      return out;
    });
    RunCase("ewsub" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(a.size());
      k::EwSub(a.data(), b.data(), out.data(), n, p);
      return out;
    });
    RunCase("accumulate-add" + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = seed;
      k::AccumulateAdd(dst.data(), a.data(), n, p);
      return dst;
    });
    RunCase("accumulate-axpy" + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = seed;
      k::AccumulateAxpy(dst.data(), -0.625f, a.data(), n, p);
      return dst;
    });
    RunCase("accumulate-mul" + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = seed;
      k::AccumulateMul(dst.data(), a.data(), b.data(), n, p);
      return dst;
    });
    RunCase("scale" + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = seed;
      k::ScaleInPlace(dst.data(), 1.7f, n, p);
      return dst;
    });
    RunCase("leaky-relu" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(a.size());
      k::LeakyRelu(a.data(), out.data(), n, 0.2f, p);
      return out;
    });
  }
}

TEST_P(KernelEquivalenceTest, ElementwiseAliasedOutput) {
  // The elementwise kernels document that out may alias an input (lane i
  // reads only index i). Exercise out == a explicitly.
  core::Rng rng(99);
  for (int64_t n : {1LL, 7LL, 33LL, 100LL}) {
    const std::vector<float> a = RandomData(n, &rng);
    const std::vector<float> b = RandomData(n, &rng);
    const std::string tag = " aliased n=" + std::to_string(n);
    RunCase("ewmul" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::EwMul(buf.data(), b.data(), buf.data(), n, p);
      return buf;
    });
    RunCase("ewadd" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::EwAdd(buf.data(), b.data(), buf.data(), n, p);
      return buf;
    });
    RunCase("ewsub" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::EwSub(b.data(), buf.data(), buf.data(), n, p);
      return buf;
    });
    RunCase("leaky-relu" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::LeakyRelu(buf.data(), buf.data(), n, 0.01f, p);
      return buf;
    });
  }
}

TEST_P(KernelEquivalenceTest, AccumulateAliasedOutput) {
  // The accumulate kernels let dst alias an input too. In the AVX2 build
  // each loop carries the vectorizer's runtime overlap check, which picks
  // the vector loop or a scalar fallback from the pointer distance; an
  // exact alias must give the scalar bits whichever it picks.
  core::Rng rng(101);
  for (int64_t n : {1LL, 7LL, 33LL, 100LL}) {
    const std::vector<float> a = RandomData(n, &rng);
    const std::vector<float> b = RandomData(n, &rng);
    const std::string tag = " aliased n=" + std::to_string(n);
    RunCase("accumulate-add dst==src" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::AccumulateAdd(buf.data(), buf.data(), n, p);
      return buf;
    });
    RunCase("accumulate-axpy dst==src" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::AccumulateAxpy(buf.data(), -0.625f, buf.data(), n, p);
      return buf;
    });
    RunCase("accumulate-mul dst==a" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = a;
      k::AccumulateMul(buf.data(), buf.data(), b.data(), n, p);
      return buf;
    });
    RunCase("accumulate-mul dst==b" + tag, [&](core::ThreadPool* p) {
      std::vector<float> buf = b;
      k::AccumulateMul(buf.data(), a.data(), buf.data(), n, p);
      return buf;
    });
  }
}

TEST_P(KernelEquivalenceTest, LeakyReluNegativeZeroAndNan) {
  // The compare+blend vector body must agree with the scalar ternary on
  // the awkward inputs: -0.0 (not > 0, takes the slope branch and keeps
  // its sign bit through the multiply) and NaN (not > 0, slope branch).
  const std::vector<float> a = {
      0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      1.0f, -1.0f, std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min()};
  RunCase("leaky-relu special values", [&](core::ThreadPool* p) {
    std::vector<float> out(a.size());
    k::LeakyRelu(a.data(), out.data(), static_cast<int64_t>(a.size()), 0.25f,
                 p);
    return out;
  });
}

TEST_P(KernelEquivalenceTest, BiasKernels) {
  core::Rng rng(11);
  const struct {
    int64_t rows, cols;
  } shapes[] = {{0, 5}, {1, 1}, {3, 9}, {4, 33}, {2, 130}, {5, 64}, {7, 3}};
  for (const auto& s : shapes) {
    const std::vector<float> x = RandomData(s.rows * s.cols, &rng);
    const std::vector<float> bias = RandomData(s.cols, &rng);
    const std::string tag = " " + std::to_string(s.rows) + "x" +
                            std::to_string(s.cols);
    const size_t out_size = static_cast<size_t>(s.rows * s.cols);
    RunCase("bias-add" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(out_size);
      k::BiasAdd(x.data(), bias.data(), out.data(), s.rows, s.cols, p);
      return out;
    });
  }
}

std::vector<int32_t> RandomIndices(int64_t n_idx, int64_t num_rows,
                                   core::Rng* rng) {
  std::vector<int32_t> idx(static_cast<size_t>(n_idx));
  for (auto& v : idx) {
    // Heavy duplication: half the draws land in the first two rows, so
    // scatter destinations see many contributions.
    v = static_cast<int32_t>(rng->Uniform() < 0.5
                                 ? rng->UniformInt(uint64_t{2})
                                 : rng->UniformInt(
                                       static_cast<uint64_t>(num_rows)));
  }
  return idx;
}

TEST_P(KernelEquivalenceTest, GatherScatterSegment) {
  core::Rng rng(42);
  const struct {
    int64_t n_idx, num_rows, cols;
  } shapes[] = {{0, 4, 3},  {1, 1, 1},   {5, 3, 7},  {64, 8, 33},
                {17, 5, 1}, {100, 4, 130}, {33, 33, 9}};
  for (const auto& s : shapes) {
    const std::vector<float> src = RandomData(s.num_rows * s.cols, &rng);
    const std::vector<float> contrib = RandomData(s.n_idx * s.cols, &rng);
    const std::vector<float> logits = RandomData(s.n_idx, &rng);
    const std::vector<float> dy = RandomData(s.n_idx, &rng);
    std::vector<int32_t> idx =
        s.num_rows > 0 ? RandomIndices(s.n_idx, s.num_rows, &rng)
                       : std::vector<int32_t>();
    const k::Csr csr = k::BuildCsr(idx, s.num_rows);
    const std::string tag = " n_idx=" + std::to_string(s.n_idx) +
                            " rows=" + std::to_string(s.num_rows) +
                            " cols=" + std::to_string(s.cols);
    RunCase("gather-rows" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(s.n_idx * s.cols));
      k::GatherRows(src.data(), idx.data(), s.n_idx, s.cols, out.data(), p);
      return out;
    });
    RunCase("accumulate-gather-rows" + tag, [&](core::ThreadPool* p) {
      std::vector<float> dst = contrib;  // pre-seeded accumulator
      k::AccumulateGatherRows(src.data(), idx.data(), s.n_idx, s.cols,
                              dst.data(), p);
      return dst;
    });
    RunCase("scatter-add-rows" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(s.num_rows * s.cols), 0.0f);
      k::ScatterAddRows(contrib.data(), csr, s.cols, out.data(), p);
      return out;
    });
    RunCase("segment-softmax" + tag, [&](core::ThreadPool* p) {
      std::vector<float> out(static_cast<size_t>(s.n_idx));
      k::SegmentSoftmax(logits.data(), csr, out.data(), p);
      return out;
    });
    RunCase("segment-softmax-grad" + tag, [&](core::ThreadPool* p) {
      std::vector<float> y(static_cast<size_t>(s.n_idx));
      k::SegmentSoftmax(logits.data(), csr, y.data(), nullptr);
      std::vector<float> dl(static_cast<size_t>(s.n_idx), 0.0f);
      k::SegmentSoftmaxGrad(y.data(), dy.data(), csr, dl.data(), p);
      return dl;
    });
  }
}

TEST_P(KernelEquivalenceTest, ScatterAddEmptyAndFullSegments) {
  // A CSR where some destinations receive nothing and one receives
  // everything — the degenerate segment shapes.
  const int64_t num_rows = 5, n_idx = 12, cols = 9;
  std::vector<int32_t> idx(static_cast<size_t>(n_idx), 2);  // all to row 2
  idx.back() = 4;                                           // one to row 4
  const k::Csr csr = k::BuildCsr(idx, num_rows);
  core::Rng rng(5);
  const std::vector<float> contrib = RandomData(n_idx * cols, &rng);
  const std::vector<float> logits = RandomData(n_idx, &rng);
  RunCase("scatter-add skewed", [&](core::ThreadPool* p) {
    std::vector<float> out(static_cast<size_t>(num_rows * cols), 0.0f);
    k::ScatterAddRows(contrib.data(), csr, cols, out.data(), p);
    return out;
  });
  RunCase("segment-softmax skewed", [&](core::ThreadPool* p) {
    std::vector<float> out(static_cast<size_t>(n_idx));
    k::SegmentSoftmax(logits.data(), csr, out.data(), p);
    return out;
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllPathsAllThreads, KernelEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(k::SupportedPaths()),
                       ::testing::Values(0, 1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<k::Path, int>>& param) {
      return std::string(k::PathName(std::get<0>(param.param))) + "_threads" +
             std::to_string(std::get<1>(param.param));
    });

// ---------------------------------------------------------------------------
// Dispatch policy unit tests (not parameterized).
// ---------------------------------------------------------------------------

TEST(DispatchPolicyTest, ParseDispatchMode) {
  EXPECT_EQ(k::ParseDispatchMode(nullptr), k::DispatchMode::kAuto);
  EXPECT_EQ(k::ParseDispatchMode(""), k::DispatchMode::kAuto);
  EXPECT_EQ(k::ParseDispatchMode("auto"), k::DispatchMode::kAuto);
  EXPECT_EQ(k::ParseDispatchMode("scalar"), k::DispatchMode::kScalar);
  EXPECT_EQ(k::ParseDispatchMode("bogus"), k::DispatchMode::kAuto);
}

TEST(DispatchPolicyTest, UnavailablePathFallsBackToScalar) {
  DispatchGuard guard;
  // On a host or build without AVX2, auto degrades to scalar instead of
  // crashing.
  k::SetDispatchMode(k::DispatchMode::kAuto);
  EXPECT_EQ(k::ActivePath(),
            k::Avx2Available() ? k::Path::kAvx2 : k::Path::kScalar);
  k::SetDispatchMode(k::DispatchMode::kScalar);
  EXPECT_EQ(k::ActivePath(), k::Path::kScalar);
}

TEST(DispatchPolicyTest, SupportedPathsAlwaysIncludesScalar) {
  const std::vector<k::Path> paths = k::SupportedPaths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), k::Path::kScalar);
  if (k::Avx2Available()) {
    bool has_avx2 = false;
    for (k::Path p : paths) has_avx2 |= (p == k::Path::kAvx2);
    EXPECT_TRUE(has_avx2);
  }
}

TEST(CsrCacheTest, HitsOnSharedVectorMissesOnFresh) {
  auto ids = std::make_shared<const std::vector<int32_t>>(
      std::vector<int32_t>{0, 2, 1, 2, 0});
  const int64_t hits_before = k::CsrCacheHits();
  const int64_t misses_before = k::CsrCacheMisses();
  auto csr1 = k::GetCsr(ids, 3);
  EXPECT_EQ(k::CsrCacheMisses(), misses_before + 1);
  auto csr2 = k::GetCsr(ids, 3);
  EXPECT_EQ(k::CsrCacheHits(), hits_before + 1);
  EXPECT_EQ(csr1.get(), csr2.get());  // literally the same grouping
  ASSERT_EQ(csr1->offsets.size(), 4u);
  EXPECT_EQ(csr1->offsets[3], 5);

  // A different num_rows for the same vector must rebuild, not serve the
  // 3-row grouping.
  auto csr3 = k::GetCsr(ids, 5);
  EXPECT_EQ(csr3->offsets.size(), 6u);
}

TEST(CsrCacheTest, ExpiredEntryIsRebuiltNotServedStale) {
  // Drop the owning shared_ptr, then allocate fresh vectors until one very
  // likely reuses the address. Whatever happens, GetCsr must return the
  // grouping for the *new* contents.
  auto ids = std::make_shared<const std::vector<int32_t>>(
      std::vector<int32_t>{1, 1, 1, 1});
  auto old_csr = k::GetCsr(ids, 2);
  EXPECT_EQ(old_csr->offsets[1], 0);  // row 0 empty
  ids.reset();
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto fresh = std::make_shared<const std::vector<int32_t>>(
        std::vector<int32_t>{0, 0, 0, 0});
    auto csr = k::GetCsr(fresh, 2);
    ASSERT_EQ(csr->offsets[1], 4) << "stale CSR served on attempt "
                                  << attempt;
  }
}

TEST(CsrCacheTest, BuildCsrGroupsInIncreasingPositionOrder) {
  const std::vector<int32_t> rows = {2, 0, 2, 1, 2, 0};
  const k::Csr csr = k::BuildCsr(rows, 3);
  ASSERT_EQ(csr.offsets.size(), 4u);
  EXPECT_EQ(csr.offsets[0], 0);
  EXPECT_EQ(csr.offsets[1], 2);
  EXPECT_EQ(csr.offsets[2], 3);
  EXPECT_EQ(csr.offsets[3], 6);
  // Within each destination, positions appear in increasing order — the
  // property that makes grouped scatter bit-identical to the sequential
  // loop.
  const std::vector<int32_t> expected_order = {1, 5, 3, 0, 2, 4};
  EXPECT_EQ(csr.order, expected_order);
}

}  // namespace
}  // namespace fedda::tensor
