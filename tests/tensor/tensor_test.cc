#include "tensor/tensor.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace fedda::tensor {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.rows(), 0);
  EXPECT_EQ(t.cols(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, ConstructedZeroInitialized) {
  Tensor t(2, 3);
  EXPECT_EQ(t.size(), 6);
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) EXPECT_EQ(t.at(r, c), 0.0f);
  }
}

TEST(TensorTest, FactoryConstructors) {
  EXPECT_EQ(Tensor::Ones(2, 2).Sum(), 4.0);
  EXPECT_EQ(Tensor::Full(2, 2, 3.0f).Sum(), 12.0);
  Tensor v = Tensor::FromVector(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(v.at(0, 1), 2.0f);
  EXPECT_EQ(v.at(1, 0), 3.0f);
  Tensor row = Tensor::RowVector({5, 6});
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 2);
  Tensor col = Tensor::ColVector({5, 6});
  EXPECT_EQ(col.rows(), 2);
  EXPECT_EQ(col.cols(), 1);
  Tensor eye = Tensor::Identity(3);
  EXPECT_EQ(eye.at(1, 1), 1.0f);
  EXPECT_EQ(eye.at(0, 1), 0.0f);
  EXPECT_EQ(eye.Sum(), 3.0);
}

TEST(TensorTest, RandomInitializersRespectBounds) {
  core::Rng rng(3);
  Tensor u = Tensor::RandomUniform(10, 10, &rng, -2.0f, 2.0f);
  EXPECT_LE(u.MaxAbs(), 2.0);
  Tensor g = Tensor::GlorotUniform(64, 64, &rng);
  const float limit = std::sqrt(6.0f / 128.0f);
  EXPECT_LE(g.MaxAbs(), limit + 1e-6);
  EXPECT_GT(g.MaxAbs(), 0.0);
}

TEST(TensorTest, RandomNormalMoments) {
  core::Rng rng(5);
  Tensor n = Tensor::RandomNormal(100, 100, &rng, 1.0f, 2.0f);
  EXPECT_NEAR(n.Mean(), 1.0, 0.05);
}

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a = Tensor::FromVector(1, 3, {1, 2, 3});
  Tensor b = Tensor::FromVector(1, 3, {10, 20, 30});
  a.Add(b);
  EXPECT_EQ(a.at(0, 2), 33.0f);
  a.Axpy(0.5f, b);
  EXPECT_EQ(a.at(0, 0), 16.0f);
  a.Scale(2.0f);
  EXPECT_EQ(a.at(0, 0), 32.0f);
  a.Zero();
  EXPECT_EQ(a.Sum(), 0.0);
}

TEST(TensorTest, SubProducesDifference) {
  Tensor a = Tensor::FromVector(1, 2, {5, 7});
  Tensor b = Tensor::FromVector(1, 2, {2, 10});
  Tensor d = a.Sub(b);
  EXPECT_EQ(d.at(0, 0), 3.0f);
  EXPECT_EQ(d.at(0, 1), -3.0f);
}

TEST(TensorTest, Reductions) {
  Tensor t = Tensor::FromVector(2, 2, {-1, 2, -3, 4});
  EXPECT_EQ(t.Sum(), 2.0);
  EXPECT_EQ(t.Mean(), 0.5);
  EXPECT_EQ(t.AbsMean(), 2.5);
  EXPECT_EQ(t.MaxAbs(), 4.0);
  EXPECT_NEAR(t.Norm(), std::sqrt(1.0 + 4.0 + 9.0 + 16.0), 1e-6);
}

TEST(TensorTest, EmptyReductionsAreZero) {
  Tensor t;
  EXPECT_EQ(t.Sum(), 0.0);
  EXPECT_EQ(t.Mean(), 0.0);
  EXPECT_EQ(t.AbsMean(), 0.0);
  EXPECT_EQ(t.MaxAbs(), 0.0);
}

TEST(TensorTest, Transposed) {
  Tensor t = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.Transposed();
  EXPECT_EQ(tt.rows(), 3);
  EXPECT_EQ(tt.cols(), 2);
  EXPECT_EQ(tt.at(2, 1), 6.0f);
  EXPECT_EQ(tt.at(0, 1), 4.0f);
}

TEST(TensorTest, EqualsAndAllClose) {
  Tensor a = Tensor::FromVector(1, 2, {1.0f, 2.0f});
  Tensor b = Tensor::FromVector(1, 2, {1.0f, 2.0f});
  Tensor c = Tensor::FromVector(1, 2, {1.0f, 2.00001f});
  Tensor d = Tensor::FromVector(2, 1, {1.0f, 2.0f});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
  EXPECT_TRUE(a.AllClose(c, 1e-4f));
  EXPECT_FALSE(a.AllClose(c, 1e-7f));
  EXPECT_FALSE(a.AllClose(d));  // shape mismatch
}

TEST(MatMulValueTest, MatchesManualProduct) {
  Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMulValue(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulValueTest, TransAMatchesTransposedCopyBitwise) {
  core::Rng rng(10);
  Tensor a = Tensor::RandomNormal(37, 5, &rng);
  a.at(3, 2) = 0.0f;  // exercise the zero-skip
  Tensor b = Tensor::RandomNormal(37, 3, &rng);
  const Tensor expected = MatMulValue(a.Transposed(), b);
  const Tensor actual = MatMulTransAValue(a, b);
  ASSERT_TRUE(actual.SameShape(expected));
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        static_cast<size_t>(actual.size()) * sizeof(float)),
            0);
}

TEST(MatMulValueTest, IdentityIsNeutral) {
  core::Rng rng(9);
  Tensor a = Tensor::RandomNormal(4, 4, &rng);
  EXPECT_TRUE(MatMulValue(a, Tensor::Identity(4)).AllClose(a));
  EXPECT_TRUE(MatMulValue(Tensor::Identity(4), a).AllClose(a));
}

TEST(TensorDeathTest, OutOfBoundsAccessAborts) {
  Tensor t(2, 2);
  EXPECT_DEATH(t.at(2, 0), "out of");
  EXPECT_DEATH(t.at(0, -1), "out of");
}

TEST(TensorDeathTest, OutOfBoundsMessageNamesIndexAndShape) {
  // at()'s failure path is out of line; the abort message is unchanged:
  // the failed bound, then the index and the shape.
  Tensor t(2, 3);
  const Tensor& ct = t;
  EXPECT_DEATH(t.at(5, 1),
               "FEDDA_CHECK failure at .*tensor\\.cc:[0-9]+: r >= 0 && r < "
               "rows_ && c >= 0 && c < cols_ index \\( 5 , 1 \\) out of "
               "\\[ 2 , 3 \\)");
  EXPECT_DEATH((void)ct.at(1, 3),
               "index \\( 1 , 3 \\) out of \\[ 2 , 3 \\)");
}

TEST(TensorDeathTest, ShapeMismatchAborts) {
  Tensor a(2, 2), b(2, 3);
  EXPECT_DEATH(a.Add(b), "SameShape");
}

TEST(TensorTest, ToStringSmallAndLarge) {
  Tensor small = Tensor::FromVector(1, 2, {1.0f, 2.0f});
  EXPECT_NE(small.ToString().find("1.0000"), std::string::npos);
  Tensor large(100, 100);
  EXPECT_NE(large.ToString().find("[...]"), std::string::npos);
}

}  // namespace
}  // namespace fedda::tensor
