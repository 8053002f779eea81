// Tests for src/dense: LU solves/inverses against hand results and random
// residual checks; Jacobi SVD against matrices with known singular values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/rng.hpp"
#include "dense/lu.hpp"
#include "dense/matrix.hpp"
#include "dense/svd.hpp"
#include "gen/laplace.hpp"
#include "gen/random_sparse.hpp"

namespace mcmi {
namespace {

TEST(DenseMatrix, MultiplyAndTranspose) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  DenseMatrix b(3, 2);
  b(0, 0) = 7; b(1, 0) = 8; b(2, 0) = 9;
  b(0, 1) = 1; b(1, 1) = 2; b(2, 1) = 3;
  const DenseMatrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 7 + 16 + 27);
  EXPECT_DOUBLE_EQ(c(1, 1), 4 + 10 + 18);
  const DenseMatrix at = a.transpose();
  EXPECT_DOUBLE_EQ(at(2, 1), 6);
}

TEST(Lu, SolvesHandCheckedSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  const std::vector<real_t> x = dense_solve(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const std::vector<real_t> x = dense_solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, ThrowsOnSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, Error);
}

TEST(Lu, RandomResidualSmall) {
  const CsrMatrix sp = random_diag_dominant(50, 6, 2.0, 3);
  const DenseMatrix a = DenseMatrix::from_csr(sp);
  Xoshiro256 rng = make_stream(5);
  std::vector<real_t> b(50);
  for (real_t& v : b) v = normal01(rng);
  const std::vector<real_t> x = dense_solve(a, b);
  const std::vector<real_t> ax = a.multiply(x);
  for (index_t i = 0; i < 50; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(Lu, InverseTimesMatrixIsIdentity) {
  const CsrMatrix sp = random_diag_dominant(30, 5, 2.0, 7);
  const DenseMatrix a = DenseMatrix::from_csr(sp);
  const DenseMatrix inv = dense_inverse(a);
  const DenseMatrix prod = inv.multiply(a);
  EXPECT_LT(prod.max_abs_diff(DenseMatrix::identity(30)), 1e-9);
}

TEST(Lu, DeterminantOfTriangularProduct) {
  DenseMatrix a(3, 3);
  a(0, 0) = 2; a(1, 1) = 3; a(2, 2) = 4;
  a(0, 1) = 1; a(0, 2) = 5; a(1, 2) = -2;
  EXPECT_NEAR(LuFactorization(a).determinant(), 24.0, 1e-12);
}

TEST(Svd, DiagonalMatrixSingularValues) {
  DenseMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -2.0;  // singular values are magnitudes
  a(2, 2) = 0.5;
  const std::vector<real_t> s = singular_values(a);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_NEAR(s[0], 3.0, 1e-12);
  EXPECT_NEAR(s[1], 2.0, 1e-12);
  EXPECT_NEAR(s[2], 0.5, 1e-12);
}

TEST(Svd, OrthogonalMatrixHasUnitSpectrum) {
  // 2x2 rotation.
  DenseMatrix q(2, 2);
  const real_t t = 0.7;
  q(0, 0) = std::cos(t); q(0, 1) = -std::sin(t);
  q(1, 0) = std::sin(t); q(1, 1) = std::cos(t);
  const std::vector<real_t> s = singular_values(q);
  EXPECT_NEAR(s[0], 1.0, 1e-12);
  EXPECT_NEAR(s[1], 1.0, 1e-12);
}

TEST(Svd, FrobeniusIdentity) {
  // sum sigma_i^2 == ||A||_F^2.
  const CsrMatrix sp = pdd_real_sparse(20, 0.3, 11);
  const DenseMatrix a = DenseMatrix::from_csr(sp);
  const std::vector<real_t> s = singular_values(a);
  real_t sum2 = 0.0;
  for (real_t v : s) sum2 += v * v;
  EXPECT_NEAR(std::sqrt(sum2), a.norm_frobenius(), 1e-9);
}

TEST(Svd, LaplacianConditionNumberMatchesTheory) {
  // 1D Laplacian eigenvalues: 2 - 2 cos(k pi / (n+1)); kappa = l_max/l_min.
  const index_t n = 12;
  const DenseMatrix a = DenseMatrix::from_csr(laplace_1d(n));
  const real_t lmin = 2.0 - 2.0 * std::cos(M_PI / (n + 1));
  const real_t lmax = 2.0 - 2.0 * std::cos(n * M_PI / (n + 1));
  EXPECT_NEAR(condition_number_exact(a), lmax / lmin, 1e-6 * lmax / lmin);
}

TEST(Svd, SingularMatrixReportsInfiniteKappa) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_TRUE(std::isinf(condition_number_exact(a)));

  // An exactly zero column stays exactly zero under every rotation, so
  // sigma_min is 0 and kappa is +inf.
  DenseMatrix z = DenseMatrix::from_csr(pdd_real_sparse(9, 0.4, 5));
  for (index_t i = 0; i < z.rows(); ++i) z(i, 4) = 0.0;
  const std::vector<real_t> s = singular_values(z);
  EXPECT_GT(s.front(), 0.0);
  EXPECT_EQ(s.back(), 0.0);
  EXPECT_TRUE(std::isinf(condition_number_exact(z)));
}

/// Applies plane rotations to rows (k, k + stride) for every row k and a
/// handful of angles: an orthogonal G with dense mixing, returns G * a.
DenseMatrix rotate_rows(DenseMatrix a) {
  const index_t m = a.rows();
  for (index_t stride = 1; stride < m; stride *= 2) {
    for (index_t k = 0; k + stride < m; ++k) {
      const real_t theta = 0.3 + 0.17 * static_cast<real_t>(k % 7) + stride;
      const real_t c = std::cos(theta);
      const real_t s = std::sin(theta);
      for (index_t j = 0; j < a.cols(); ++j) {
        const real_t u = a(k, j);
        const real_t v = a(k + stride, j);
        a(k, j) = c * u - s * v;
        a(k + stride, j) = s * u + c * v;
      }
    }
  }
  return a;
}

TEST(Svd, Laplace2dFullSpectrumMatchesClosedForm) {
  // laplace_2d(16) (n = 225) is symmetric positive definite with
  // eigenvalues 4 - 2 cos(i pi / 16) - 2 cos(j pi / 16), i, j = 1..15.
  const index_t m = 16;
  std::vector<real_t> expected;
  for (index_t i = 1; i < m; ++i) {
    for (index_t j = 1; j < m; ++j) {
      expected.push_back(4.0 - 2.0 * std::cos(i * M_PI / m) -
                         2.0 * std::cos(j * M_PI / m));
    }
  }
  std::sort(expected.begin(), expected.end(), std::greater<real_t>());
  const std::vector<real_t> s =
      singular_values(DenseMatrix::from_csr(laplace_2d(m)));
  ASSERT_EQ(s.size(), expected.size());
  for (std::size_t k = 0; k < s.size(); ++k) {
    EXPECT_NEAR(s[k], expected[k], 1e-12 * expected[k]) << "k = " << k;
  }
}

TEST(Svd, OrthogonalInvariance) {
  const DenseMatrix a = DenseMatrix::from_csr(pdd_real_sparse(40, 0.2, 3));
  const std::vector<real_t> s = singular_values(a);
  const std::vector<real_t> sg = singular_values(rotate_rows(a));
  ASSERT_EQ(sg.size(), s.size());
  for (std::size_t k = 0; k < s.size(); ++k) {
    EXPECT_NEAR(sg[k], s[k], 1e-12 * s[k]) << "k = " << k;
  }
}

TEST(Svd, TallInput) {
  // G * [D; 0] with G orthogonal (m = 23 rows, n = 6 columns) has the
  // singular values |d_k|.
  const std::vector<real_t> d = {5.0, -3.5, 2.25, 1.0, -0.5, 0.125};
  DenseMatrix a(23, static_cast<index_t>(d.size()));
  for (index_t k = 0; k < a.cols(); ++k) a(k, k) = d[k];
  const std::vector<real_t> s = singular_values(rotate_rows(a));
  ASSERT_EQ(s.size(), d.size());
  for (std::size_t k = 0; k < d.size(); ++k) {
    EXPECT_NEAR(s[k], std::abs(d[k]), 1e-13 * std::abs(d[k]));
  }
  // A wide input is transposed inside condition_number_exact.
  EXPECT_NEAR(condition_number_exact(rotate_rows(a).transpose()), 40.0,
              1e-12 * 40.0);
}

/// Small and odd sizes: laplace_1d(n) has eigenvalues
/// 2 - 2 cos(k pi / (n + 1)), k = 1..n.
class SvdSmallSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(SvdSmallSizes, Laplace1dSpectrum) {
  const index_t n = GetParam();
  const std::vector<real_t> s =
      singular_values(DenseMatrix::from_csr(laplace_1d(n)));
  ASSERT_EQ(static_cast<index_t>(s.size()), n);
  for (index_t k = 0; k < n; ++k) {
    const real_t expected = 2.0 - 2.0 * std::cos((n - k) * M_PI / (n + 1));
    EXPECT_NEAR(s[k], expected, 1e-13 * expected) << "k = " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SvdSmallSizes,
                         ::testing::Values(1, 2, 3, 5, 7, 9, 17));

TEST(Svd, RepeatableBits) {
  const DenseMatrix a = rotate_rows(
      DenseMatrix::from_csr(pdd_real_sparse(33, 0.3, 17)));
  const std::vector<real_t> first = singular_values(a);
  const std::vector<real_t> second = singular_values(a);
  EXPECT_EQ(first, second);
  EXPECT_EQ(condition_number_exact(a), condition_number_exact(a));
}

/// Property sweep: LU solve residual stays small across sizes.
class LuProperty : public ::testing::TestWithParam<index_t> {};

TEST_P(LuProperty, ResidualBelowTolerance) {
  const index_t n = GetParam();
  const CsrMatrix sp = random_diag_dominant(n, 4, 1.8, 100 + n);
  const DenseMatrix a = DenseMatrix::from_csr(sp);
  std::vector<real_t> b(static_cast<std::size_t>(n), 1.0);
  const std::vector<real_t> x = dense_solve(a, b);
  const std::vector<real_t> ax = a.multiply(x);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuProperty,
                         ::testing::Values(5, 17, 33, 64, 101));

}  // namespace
}  // namespace mcmi
