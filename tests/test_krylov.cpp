// Tests for src/krylov: all three solvers against dense LU references,
// preconditioned variants, restart logic and failure handling.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/rng.hpp"
#include "dense/lu.hpp"
#include "dense/matrix.hpp"
#include "gen/laplace.hpp"
#include "gen/plasma.hpp"
#include "gen/random_sparse.hpp"
#include "krylov/solver.hpp"
#include "precond/jacobi.hpp"
#include "sparse/vector_ops.hpp"

namespace mcmi {
namespace {

std::vector<real_t> random_rhs(index_t n, u64 seed) {
  Xoshiro256 rng = make_stream(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (real_t& v : b) v = normal01(rng);
  return b;
}

real_t true_residual(const CsrMatrix& a, const std::vector<real_t>& x,
                     const std::vector<real_t>& b) {
  return norm2(subtract(b, a.multiply(x))) / norm2(b);
}

TEST(Cg, SolvesLaplacianToTolerance) {
  const CsrMatrix a = laplace_2d(12);
  const std::vector<real_t> b = random_rhs(a.rows(), 1);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.tolerance = 1e-10;
  const SolveResult res = solve_cg(a, b, id, x, opt);
  EXPECT_TRUE(res.converged());
  EXPECT_LT(true_residual(a, x, b), 1e-8);
}

TEST(Cg, MatchesDenseSolve) {
  const CsrMatrix a = laplace_2d(8);
  const std::vector<real_t> b = random_rhs(a.rows(), 2);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.tolerance = 1e-12;
  solve_cg(a, b, id, x, opt);
  const std::vector<real_t> x_ref =
      dense_solve(DenseMatrix::from_csr(a), b);
  for (index_t i = 0; i < a.rows(); ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-7);
}

TEST(Cg, JacobiPreconditionerKeepsCorrectSolution) {
  const CsrMatrix a = random_spd(60, 4, 1.0, 5);
  const std::vector<real_t> b = random_rhs(60, 3);
  JacobiPreconditioner jacobi(a);
  std::vector<real_t> x;
  SolveOptions opt;
  opt.tolerance = 1e-11;
  const SolveResult res = solve_cg(a, b, jacobi, x, opt);
  EXPECT_TRUE(res.converged());
  EXPECT_LT(true_residual(a, x, b), 1e-8);
}

TEST(Cg, FiniteTerminationInExactArithmetic) {
  // CG converges in at most n steps (plus rounding slack).
  const CsrMatrix a = laplace_1d(30);
  const std::vector<real_t> b = random_rhs(30, 4);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.tolerance = 1e-10;
  const SolveResult res = solve_cg(a, b, id, x, opt);
  EXPECT_TRUE(res.converged());
  EXPECT_LE(res.iterations, 35);
}

TEST(Cg, IndefiniteBreakdownLeavesIterateUntouched) {
  // A symmetric indefinite operator: the 2-D Laplacian shifted below its
  // four smallest eigenvalues, on a grid large enough for a multi-chunk
  // SpMV plan.  The first curvature <q, Aq> = <b, Ab> is positive; a later
  // one turns negative once the Krylov space resolves a negative
  // eigenvalue.  That iteration must report kDiverged and return before it
  // updates x or r, so x equals, bit for bit, the x of the same solve
  // stopped one iteration earlier.
  const CsrMatrix lap = laplace_2d(64);
  const CsrMatrix a = lap.add_diagonal(
      -0.02, std::vector<real_t>(static_cast<std::size_t>(lap.rows()), 1.0));
  const std::vector<real_t> b = random_rhs(a.rows(), 11);
  IdentityPreconditioner id;
  SolveOptions opt;
  opt.tolerance = 0.0;  // only the breakdown can end the solve early
  opt.stagnation_window = 0;
  opt.max_iterations = 2000;
  std::vector<real_t> x;
  const SolveResult res = solve_cg(a, b, id, x, opt);
  ASSERT_EQ(res.status, SolveStatus::kDiverged);
  // The solve broke down at iteration k = iterations + 1; k > 1 means at
  // least one full update ran before it.
  ASSERT_GE(res.iterations, 1);

  SolveOptions stop_before = opt;
  stop_before.max_iterations = res.iterations;  // k - 1
  std::vector<real_t> x_before;
  const SolveResult before = solve_cg(a, b, id, x_before, stop_before);
  EXPECT_EQ(before.status, SolveStatus::kMaxIterations);
  EXPECT_EQ(before.iterations, res.iterations);
  ASSERT_EQ(x.size(), x_before.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(std::memcmp(&x[i], &x_before[i], sizeof(real_t)), 0)
        << "x differs at " << i;
  }
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  const CsrMatrix a = plasma_a00512();
  const std::vector<real_t> b = random_rhs(a.rows(), 5);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.tolerance = 1e-10;
  opt.max_iterations = 2000;
  opt.restart = 200;
  const SolveResult res = solve_gmres(a, b, id, x, opt);
  EXPECT_TRUE(res.converged());
  EXPECT_LT(true_residual(a, x, b), 1e-7);
}

TEST(Gmres, FullKrylovConvergesWithinN) {
  const CsrMatrix a = pdd_real_sparse(40, 0.2, 7);
  const std::vector<real_t> b = random_rhs(40, 6);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.restart = 40;  // full GMRES
  opt.tolerance = 1e-12;
  const SolveResult res = solve_gmres(a, b, id, x, opt);
  EXPECT_TRUE(res.converged());
  EXPECT_LE(res.iterations, 41);
}

TEST(Gmres, RestartedStillConverges) {
  const CsrMatrix a = pdd_real_sparse(60, 0.15, 9);
  const std::vector<real_t> b = random_rhs(60, 7);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.restart = 5;  // aggressive restarting
  opt.tolerance = 1e-9;
  opt.max_iterations = 3000;
  const SolveResult res = solve_gmres(a, b, id, x, opt);
  EXPECT_TRUE(res.converged());
  EXPECT_LT(true_residual(a, x, b), 1e-6);
}

TEST(Gmres, HistoryIsMonotoneNonincreasingWithinCycle) {
  const CsrMatrix a = laplace_2d(10);
  const std::vector<real_t> b = random_rhs(a.rows(), 8);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.restart = 200;
  opt.record_history = true;
  const SolveResult res = solve_gmres(a, b, id, x, opt);
  ASSERT_TRUE(res.converged());
  for (std::size_t i = 1; i < res.history.size(); ++i) {
    EXPECT_LE(res.history[i], res.history[i - 1] + 1e-14);
  }
}

TEST(Gmres, ZeroRhsConvergesImmediately) {
  const CsrMatrix a = laplace_1d(10);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  const SolveResult res =
      solve_gmres(a, std::vector<real_t>(10, 0.0), id, x, {});
  EXPECT_TRUE(res.converged());
  EXPECT_EQ(res.iterations, 0);
}

TEST(Bicgstab, SolvesNonsymmetricSystem) {
  const CsrMatrix a = pdd_real_sparse(80, 0.15, 11);
  const std::vector<real_t> b = random_rhs(80, 9);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.tolerance = 1e-10;
  const SolveResult res = solve_bicgstab(a, b, id, x, opt);
  EXPECT_TRUE(res.converged());
  EXPECT_LT(true_residual(a, x, b), 1e-7);
}

TEST(Bicgstab, JacobiPreconditionedMatchesDense) {
  const CsrMatrix a = random_diag_dominant(50, 5, 2.0, 13);
  const std::vector<real_t> b = random_rhs(50, 10);
  JacobiPreconditioner jacobi(a);
  std::vector<real_t> x;
  SolveOptions opt;
  opt.tolerance = 1e-11;
  const SolveResult res = solve_bicgstab(a, b, jacobi, x, opt);
  EXPECT_TRUE(res.converged());
  const std::vector<real_t> ref = dense_solve(DenseMatrix::from_csr(a), b);
  for (index_t i = 0; i < 50; ++i) EXPECT_NEAR(x[i], ref[i], 1e-6);
}

TEST(Solver, DispatchAndNames) {
  EXPECT_EQ(method_name(KrylovMethod::kCG), "cg");
  EXPECT_EQ(method_name(KrylovMethod::kGMRES), "gmres");
  EXPECT_EQ(method_name(KrylovMethod::kBiCGStab), "bicgstab");
  EXPECT_EQ(parse_method("gmres"), KrylovMethod::kGMRES);
  EXPECT_THROW(parse_method("qmr"), Error);
}

TEST(Solver, MaxIterationsRespected) {
  const CsrMatrix a = laplace_2d(24);  // needs ~90 iterations
  const std::vector<real_t> b = random_rhs(a.rows(), 12);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.max_iterations = 5;
  const SolveResult res = solve_cg(a, b, id, x, opt);
  EXPECT_FALSE(res.converged());
  EXPECT_EQ(res.iterations, 5);
}

/// A "preconditioner" that produces non-finite output: the solvers must
/// fail gracefully (no exception, a precise kNonFinite verdict) — this is
/// the divergent-MCMC code path of the training data.
class PoisonPreconditioner final : public Preconditioner {
 public:
  void apply(const std::vector<real_t>& x,
             std::vector<real_t>& y) const override {
    y.assign(x.size(), std::numeric_limits<real_t>::infinity());
  }
  [[nodiscard]] std::string name() const override { return "poison"; }
};

class SolverFailure : public ::testing::TestWithParam<KrylovMethod> {};

TEST_P(SolverFailure, NonFinitePreconditionerFailsGracefully) {
  const CsrMatrix a = laplace_1d(20);
  PoisonPreconditioner poison;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.max_iterations = 50;
  const SolveResult res =
      solve(GetParam(), a, std::vector<real_t>(20, 1.0), poison, x, opt);
  EXPECT_FALSE(res.converged());
  EXPECT_EQ(res.status, SolveStatus::kNonFinite);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SolverFailure,
                         ::testing::Values(KrylovMethod::kCG,
                                           KrylovMethod::kGMRES,
                                           KrylovMethod::kBiCGStab));

/// All solvers agree with the dense reference on a well-conditioned
/// nonsymmetric (or SPD, for CG) system.
class SolverAgreement : public ::testing::TestWithParam<KrylovMethod> {};

TEST_P(SolverAgreement, MatchesDenseReference) {
  const KrylovMethod method = GetParam();
  const CsrMatrix a = method == KrylovMethod::kCG
                          ? random_spd(40, 4, 1.0, 15)
                          : random_diag_dominant(40, 4, 2.0, 15);
  const std::vector<real_t> b = random_rhs(40, 16);
  IdentityPreconditioner id;
  std::vector<real_t> x;
  SolveOptions opt;
  opt.tolerance = 1e-11;
  opt.restart = 40;
  const SolveResult res = solve(method, a, b, id, x, opt);
  ASSERT_TRUE(res.converged()) << method_name(method);
  const std::vector<real_t> ref = dense_solve(DenseMatrix::from_csr(a), b);
  for (index_t i = 0; i < 40; ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-6) << method_name(method);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SolverAgreement,
                         ::testing::Values(KrylovMethod::kCG,
                                           KrylovMethod::kGMRES,
                                           KrylovMethod::kBiCGStab));

}  // namespace
}  // namespace mcmi
