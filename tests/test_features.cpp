// Tests for src/features: the x_A feature vector and condition-number
// estimation (exact vs iterative paths).

#include <gtest/gtest.h>

#include <cmath>

#include "features/matrix_features.hpp"
#include "gen/adv_diff.hpp"
#include "gen/laplace.hpp"
#include "gen/plasma.hpp"
#include "gen/random_sparse.hpp"

namespace mcmi {
namespace {

TEST(Features, VectorWidthMatchesNames) {
  const MatrixFeatures f = extract_features(laplace_2d(6));
  EXPECT_EQ(static_cast<index_t>(f.to_vector().size()),
            MatrixFeatures::count());
  EXPECT_EQ(MatrixFeatures::names().size(), f.to_vector().size());
}

TEST(Features, LaplacianValues) {
  const CsrMatrix a = laplace_2d(8);
  const MatrixFeatures f = extract_features(a);
  EXPECT_DOUBLE_EQ(f.dimension, 49.0);
  EXPECT_DOUBLE_EQ(f.symmetry, 1.0);
  EXPECT_DOUBLE_EQ(f.norm_inf, 8.0);
  EXPECT_DOUBLE_EQ(f.norm_one, 8.0);  // symmetric
  EXPECT_NEAR(f.fill, a.fill(), 1e-15);
  EXPECT_NEAR(f.avg_row_nnz,
              static_cast<real_t>(a.nnz()) / static_cast<real_t>(a.rows()),
              1e-12);
  // Laplacian is not diagonally dominant in the strict sense: ratio 1.
  EXPECT_NEAR(f.diag_dominance, 1.0, 1e-12);
}

TEST(Features, ConditionEstimateMatchesExactOnSmallMatrix) {
  const CsrMatrix a = laplace_2d(10);
  const real_t exact = estimate_condition_number(a, /*exact_threshold=*/1000);
  const real_t iterative = estimate_condition_number(a, /*exact_threshold=*/1);
  EXPECT_NEAR(iterative, exact, 0.25 * exact);
}

TEST(Features, ConditionGrowsWithPlasmaResolution) {
  PlasmaOptions coarse;
  coarse.nx = 16;
  coarse.ny = 8;
  coarse.radius = 1;
  PlasmaOptions fine = coarse;
  fine.nx = 48;
  fine.ny = 24;
  const real_t k_coarse =
      estimate_condition_number(plasma_drift_diffusion(coarse));
  const real_t k_fine =
      estimate_condition_number(plasma_drift_diffusion(fine));
  EXPECT_GT(k_fine, k_coarse);
}

TEST(Features, ExactLogConditionIsPinned) {
  // log10 kappa is the surrogate's input for every n <= 300 matrix; these
  // values come from the exact (Jacobi SVD) path.  A change that moves them
  // changes what the surrogate sees and must update them deliberately.
  const real_t adv = extract_features(unsteady_adv_diff_order2()).log_condition;
  EXPECT_NEAR(adv, 6.8395722590614083, 1e-12 * 6.8395722590614083);
  const real_t lap = extract_features(laplace_2d(16)).log_condition;
  EXPECT_NEAR(lap, 2.0132033489027763, 1e-12 * 2.0132033489027763);
}

TEST(Features, LogConditionSaturatesForSingular) {
  // A matrix with a zero row-sum structure close to singular still yields a
  // finite feature (saturation at 16).
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, -1.0);
  coo.add(1, 0, -1.0);
  coo.add(1, 1, 1.0 + 1e-15);
  const MatrixFeatures f =
      extract_features(CsrMatrix::from_coo(std::move(coo)));
  EXPECT_TRUE(std::isfinite(f.log_condition));
  EXPECT_LE(f.log_condition, 16.0);
}

TEST(Features, AsymmetryReflectedInScore) {
  const MatrixFeatures sym = extract_features(laplace_2d(6));
  const MatrixFeatures asym = extract_features(pdd_real_sparse(36, 0.2, 3));
  EXPECT_GT(sym.symmetry, asym.symmetry);
}

/// Property sweep: features are finite for every Table 1 family member that
/// fits in a quick test budget.
class FeatureFiniteness : public ::testing::TestWithParam<const char*> {};

TEST_P(FeatureFiniteness, AllFinite) {
  CsrMatrix a = [&]() -> CsrMatrix {
    const std::string name = GetParam();
    if (name == "laplace") return laplace_2d(12);
    if (name == "plasma") return plasma_a00512();
    return pdd_real_sparse(128);
  }();
  const MatrixFeatures f = extract_features(a);
  for (real_t v : f.to_vector()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Families, FeatureFiniteness,
                         ::testing::Values("laplace", "plasma", "pdd"));

}  // namespace
}  // namespace mcmi
