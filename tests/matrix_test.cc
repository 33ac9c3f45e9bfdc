#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "common/random.h"
#include "math/matrix.h"

namespace fvae {
namespace {

Matrix NaiveMultiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < a.cols(); ++p) acc += double(a(i, p)) * b(p, j);
      out(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 0.0f);
  }
  m.at(1, 2) = 5.0f;
  EXPECT_EQ(m(1, 2), 5.0f);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(2, 1), 6.0f);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(4);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(id(r, c), r == c ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, FillAndSetZero) {
  Matrix m(3, 3, 2.0f);
  EXPECT_EQ(m(1, 1), 2.0f);
  m.Fill(7.0f);
  EXPECT_EQ(m(2, 0), 7.0f);
  m.SetZero();
  EXPECT_EQ(m(0, 2), 0.0f);
}

TEST(MatrixTest, Transposed) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0f);
  EXPECT_EQ(t(0, 0), 1.0f);
}

TEST(MatrixTest, ScaleAddAddScaled) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a.Scale(2.0f);
  EXPECT_EQ(a(1, 1), 8.0f);
  a.Add(b);
  EXPECT_EQ(a(0, 0), 12.0f);
  a.AddScaled(b, -1.0f);
  EXPECT_EQ(a(0, 0), 2.0f);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m = Matrix::FromRows({{3, 4}});
  EXPECT_NEAR(m.FrobeniusNorm(), 5.0f, 1e-6f);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{1.5, 1}});
  EXPECT_NEAR(Matrix::MaxAbsDiff(a, b), 1.0f, 1e-6f);
}

TEST(MatrixTest, GaussianHasRoughlyRightSpread) {
  Rng rng(3);
  Matrix m = Matrix::Gaussian(100, 100, 2.0f, rng);
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sum_sq += double(m.data()[i]) * m.data()[i];
  }
  const double n = double(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sum_sq / n, 4.0, 0.3);
}

TEST(MatrixTest, XavierUniformWithinBounds) {
  Rng rng(5);
  Matrix m = Matrix::XavierUniform(30, 50, rng);
  const float limit = std::sqrt(6.0f / 80.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), limit);
  }
}

TEST(MatrixTest, ToStringTruncates) {
  Matrix m(20, 20, 1.0f);
  const std::string s = m.ToString(2, 2);
  EXPECT_NE(s.find("20x20"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// ---------- GEMM family, vs naive reference ----------

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, GemmMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 100 + n);
  Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
  Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
  Matrix out;
  Gemm(a, b, &out);
  EXPECT_LT(Matrix::MaxAbsDiff(out, NaiveMultiply(a, b)), 1e-3f);
}

TEST_P(GemmShapeTest, GemmNTMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 999 + k * 77 + n);
  Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
  Matrix b = Matrix::Gaussian(n, k, 1.0f, rng);
  Matrix out;
  GemmNT(a, b, &out);
  EXPECT_LT(Matrix::MaxAbsDiff(out, NaiveMultiply(a, b.Transposed())),
            1e-3f);
}

TEST_P(GemmShapeTest, GemmTNMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 13 + k * 7 + n);
  Matrix a = Matrix::Gaussian(k, m, 1.0f, rng);
  Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
  Matrix out;
  GemmTN(a, b, &out);
  EXPECT_LT(Matrix::MaxAbsDiff(out, NaiveMultiply(a.Transposed(), b)),
            1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(65, 64, 63),
                      std::make_tuple(100, 1, 100),
                      std::make_tuple(1, 128, 1),
                      std::make_tuple(130, 70, 90),
                      // m = 1: a single fold-in user.
                      std::make_tuple(1, 192, 48),
                      // Training decoder heads (batch 256, width 192) at
                      // the large and small fields' candidate counts, and
                      // the latent head.
                      std::make_tuple(256, 192, 2126),
                      std::make_tuple(256, 192, 128),
                      std::make_tuple(256, 48, 192)));

// The transposed products run the same kernel on a packed operand, so they
// must match Gemm on an explicitly transposed operand bit for bit.
TEST(GemmTest, TransposedProductsAreBitwiseGemm) {
  Rng rng(31);
  for (const auto& [m, k, n] : {std::make_tuple(1, 192, 48),
                                std::make_tuple(37, 19, 53),
                                std::make_tuple(256, 192, 131)}) {
    const Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
    const Matrix b = Matrix::Gaussian(n, k, 1.0f, rng);
    Matrix nt, reference;
    GemmNT(a, b, &nt);
    Gemm(a, b.Transposed(), &reference);
    ASSERT_EQ(nt.rows(), reference.rows());
    ASSERT_EQ(nt.cols(), reference.cols());
    for (size_t i = 0; i < nt.size(); ++i) {
      ASSERT_EQ(nt.data()[i], reference.data()[i]) << "GemmNT element " << i;
    }

    const Matrix at = Matrix::Gaussian(k, m, 1.0f, rng);
    const Matrix c = Matrix::Gaussian(k, n, 1.0f, rng);
    Matrix tn;
    GemmTN(at, c, &tn);
    Gemm(at.Transposed(), c, &reference);
    ASSERT_EQ(tn.rows(), reference.rows());
    ASSERT_EQ(tn.cols(), reference.cols());
    for (size_t i = 0; i < tn.size(); ++i) {
      ASSERT_EQ(tn.data()[i], reference.data()[i]) << "GemmTN element " << i;
    }
  }
}

// The kernel contract has no zero-operand skips: 0 * inf and 0 * NaN are
// NaN, so a non-finite b entry reaches the output even where a is zero.
TEST(GemmTest, GemmTNPropagatesNonFiniteThroughZeroMultiplier) {
  Matrix a(2, 3);  // all zeros: out = a^T b is 3 x 2
  Matrix b = Matrix::FromRows({{1.0f, 2.0f}, {3.0f, 4.0f}});
  b(0, 0) = std::numeric_limits<float>::infinity();
  b(1, 1) = std::numeric_limits<float>::quiet_NaN();
  Matrix out;
  GemmTN(a, b, &out);
  for (size_t i = 0; i < out.rows(); ++i) {
    EXPECT_TRUE(std::isnan(out(i, 0))) << "row " << i;
    EXPECT_TRUE(std::isnan(out(i, 1))) << "row " << i;
  }
}

TEST(GemmTest, GemmAccumulateAddsOnTop) {
  Rng rng(17);
  Matrix a = Matrix::Gaussian(4, 5, 1.0f, rng);
  Matrix b = Matrix::Gaussian(5, 6, 1.0f, rng);
  Matrix out(4, 6, 1.0f);
  GemmAccumulate(a, b, &out);
  Matrix expected = NaiveMultiply(a, b);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected.data()[i] += 1.0f;
  }
  EXPECT_LT(Matrix::MaxAbsDiff(out, expected), 1e-4f);
}

TEST(GemmTest, IdentityIsNeutral) {
  Rng rng(23);
  Matrix a = Matrix::Gaussian(6, 6, 1.0f, rng);
  Matrix out;
  Gemm(a, Matrix::Identity(6), &out);
  EXPECT_LT(Matrix::MaxAbsDiff(out, a), 1e-5f);
}

}  // namespace
}  // namespace fvae
