// Shard-determinism conformance suite for the sharded execution layer
// (sparse/sharded_plan.hpp): bit-equality of SpMV, the fused dot/norm
// reductions, full Krylov solves, and batched MCMC grid builds across shard
// counts {1, 2, 3, 4, 8} (plus the CI matrix leg's MCMI_TEST_SHARDS), shard
// counts coprime to the thread count, degenerate layouts (empty shard,
// single-row shards, everything-in-one-shard), a seeded 200-layout
// reduction-order fuzz test against ShardReducer::reference, and the
// regression guard that no stale content-keyed single plan is observed
// after a shard-layout switch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/env.hpp"
#include "core/error.hpp"
#include "gen/laplace.hpp"
#include "gen/plasma.hpp"
#include "gen/random_sparse.hpp"
#include "krylov/solver.hpp"
#include "mcmc/batched_build.hpp"
#include "mcmc/inverter.hpp"
#include "precond/jacobi.hpp"
#include "precond/preconditioner.hpp"
#include "precond/sparse_precond.hpp"
#include "sparse/csr.hpp"
#include "sparse/sharded_plan.hpp"
#include "sparse/spmv_plan.hpp"

namespace mcmi {
namespace {

/// The conformance shard counts from the issue, plus the CI matrix leg's
/// MCMI_TEST_SHARDS when it names a count not already covered.
std::vector<index_t> conformance_shard_counts() {
  std::vector<index_t> counts = {1, 2, 3, 4, 8};
  const index_t extra = env_int("MCMI_TEST_SHARDS", 0);
  if (extra > 0 &&
      std::find(counts.begin(), counts.end(), extra) == counts.end()) {
    counts.push_back(extra);
  }
  return counts;
}

/// The three matrix families the suite sweeps: structured SPD (Laplace),
/// the paper's plasma operator, and a random nonsymmetric sparse matrix.
std::vector<std::pair<std::string, CsrMatrix>> conformance_matrices() {
  std::vector<std::pair<std::string, CsrMatrix>> out;
  out.emplace_back("laplace_2d(64)", laplace_2d(64));  // 3969 rows, >1 chunk
  out.emplace_back("plasma_a00512", plasma_a00512());
  out.emplace_back("pdd_real_sparse(300)", pdd_real_sparse(300, 0.1, 77));
  return out;
}

std::vector<real_t> test_vector(index_t n, u64 salt) {
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<real_t>(i + 1) * 0.7 +
                    static_cast<real_t>(salt));
  }
  return x;
}

/// A copy of `a` bound to a sharded plan under `layout`.
CsrMatrix sharded_copy(const CsrMatrix& a, ShardLayout layout) {
  CsrMatrix s = a;
  s.set_shard_layout(std::move(layout));
  return s;
}

std::string layout_string(const ShardLayout& layout) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < layout.boundaries.size(); ++i) {
    if (i != 0) os << ", ";
    os << layout.boundaries[i];
  }
  os << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// ShardLayout construction
// ---------------------------------------------------------------------------

TEST(ShardLayout, NnzBalancedPartitionsAllRows) {
  const CsrMatrix a = laplace_2d(64);
  for (const index_t s : {1, 2, 3, 4, 8, 17}) {
    const ShardLayout layout = ShardLayout::nnz_balanced(s, a.row_ptr());
    ASSERT_EQ(layout.shards(), s);
    EXPECT_EQ(layout.boundaries.front(), 0);
    EXPECT_EQ(layout.boundaries.back(), a.rows());
    for (std::size_t i = 1; i < layout.boundaries.size(); ++i) {
      EXPECT_LE(layout.boundaries[i - 1], layout.boundaries[i]);
    }
    layout.validate(a.rows());
  }
}

TEST(ShardLayout, NnzBalancedBalancesWorkNotRows) {
  // Arrow-like skew: one row holding a large share of the nonzeros should
  // get a shard close to itself, not 1/s of the rows.
  const index_t n = 400;
  CooMatrix coo(n, n);
  for (index_t j = 0; j < n; ++j) coo.add(0, j, 1.0);
  for (index_t i = 1; i < n; ++i) coo.add(i, i, 4.0);
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  const ShardLayout layout = ShardLayout::nnz_balanced(2, a.row_ptr());
  // Half the work is row 0 (n nonzeros) vs n-1 diagonal rows: the first
  // shard must end long before the halfway row.
  EXPECT_LT(layout.boundaries[1], n / 4);
}

TEST(ShardLayout, FingerprintDistinguishesLayouts) {
  const CsrMatrix a = laplace_2d(32);
  const ShardLayout two = ShardLayout::nnz_balanced(2, a.row_ptr());
  const ShardLayout four = ShardLayout::nnz_balanced(4, a.row_ptr());
  const ShardLayout none{};
  EXPECT_NE(two.fingerprint(), four.fingerprint());
  EXPECT_NE(two.fingerprint(), none.fingerprint());
  EXPECT_EQ(two.fingerprint(),
            ShardLayout::nnz_balanced(2, a.row_ptr()).fingerprint());
}

TEST(ShardLayout, ValidateRejectsBadPartitions) {
  EXPECT_THROW((ShardLayout{{1, 4}}).validate(4), Error);    // first != 0
  EXPECT_THROW((ShardLayout{{0, 3}}).validate(4), Error);    // last != rows
  EXPECT_THROW((ShardLayout{{0, 3, 2, 4}}).validate(4),
               Error);                      // not monotone
  (ShardLayout{{0, 2, 2, 4}}).validate(4);  // empty shard is legal
}

// ---------------------------------------------------------------------------
// SpMV and fused-reduction conformance across shard counts
// ---------------------------------------------------------------------------

TEST(ShardedPlanConformance, SpmvBitIdenticalAcrossShardCounts) {
  for (const auto& [name, a] : conformance_matrices()) {
    SCOPED_TRACE(name);
    const std::vector<real_t> x = test_vector(a.cols(), 3);
    const std::vector<real_t> golden = a.multiply(x);  // single-plan path
    for (const index_t s : conformance_shard_counts()) {
      SCOPED_TRACE("shards=" + std::to_string(s));
      const CsrMatrix sharded =
          sharded_copy(a, ShardLayout::nnz_balanced(s, a.row_ptr()));
      ASSERT_NE(sharded.sharded_plan(), nullptr);
      EXPECT_EQ(sharded.multiply(x), golden);  // element-exact
    }
  }
}

TEST(ShardedPlanConformance, FusedDotNormBitIdenticalAcrossShardCounts) {
  for (const auto& [name, a] : conformance_matrices()) {
    if (a.rows() != a.cols()) continue;  // fused paths are square-only
    SCOPED_TRACE(name);
    const std::vector<real_t> x = test_vector(a.cols(), 5);
    const std::vector<real_t> w = test_vector(a.rows(), 9);
    std::vector<real_t> y_golden(static_cast<std::size_t>(a.rows()));
    const real_t dot_xy_golden = a.multiply_dot(x, y_golden);
    const real_t dot_wy_golden = a.multiply_dot(x, y_golden, w);
    real_t fused_dot_golden = 0.0, fused_norm_golden = 0.0;
    a.multiply_dot_norm2(x, y_golden, w, fused_dot_golden, fused_norm_golden);
    for (const index_t s : conformance_shard_counts()) {
      SCOPED_TRACE("shards=" + std::to_string(s));
      const CsrMatrix sharded =
          sharded_copy(a, ShardLayout::nnz_balanced(s, a.row_ptr()));
      std::vector<real_t> y(static_cast<std::size_t>(a.rows()));
      EXPECT_EQ(sharded.multiply_dot(x, y), dot_xy_golden);
      EXPECT_EQ(y, y_golden);
      EXPECT_EQ(sharded.multiply_dot(x, y, w), dot_wy_golden);
      real_t dot = 0.0, norm = 0.0;
      sharded.multiply_dot_norm2(x, y, w, dot, norm);
      EXPECT_EQ(dot, fused_dot_golden);
      EXPECT_EQ(norm, fused_norm_golden);
    }
  }
}

TEST(ShardedPlanConformance, DegenerateLayoutsBitIdentical) {
  const CsrMatrix a = laplace_2d(20);  // 361 rows
  const index_t n = a.rows();
  const std::vector<real_t> x = test_vector(n, 1);
  const std::vector<real_t> w = test_vector(n, 2);
  std::vector<real_t> y_golden(static_cast<std::size_t>(n));
  real_t dot_golden = 0.0, norm_golden = 0.0;
  a.multiply_dot_norm2(x, y_golden, w, dot_golden, norm_golden);

  std::vector<std::pair<std::string, ShardLayout>> layouts;
  layouts.emplace_back("all-in-one", ShardLayout{{0, n}});
  layouts.emplace_back("empty-middle-shard", ShardLayout{{0, n / 3, n / 3, n}});
  layouts.emplace_back("empty-edge-shards", ShardLayout{{0, 0, n, n}});
  layouts.emplace_back("single-row-shards", ShardLayout::uniform(n, n));
  for (auto& [name, layout] : layouts) {
    SCOPED_TRACE(name);
    const CsrMatrix sharded = sharded_copy(a, layout);
    std::vector<real_t> y(static_cast<std::size_t>(n));
    real_t dot = 0.0, norm = 0.0;
    sharded.multiply_dot_norm2(x, y, w, dot, norm);
    EXPECT_EQ(y, y_golden);
    EXPECT_EQ(dot, dot_golden);
    EXPECT_EQ(norm, norm_golden);
  }
}

#ifdef _OPENMP
TEST(ShardedPlanConformance, CoprimeShardAndThreadCounts) {
  // Shard counts coprime to every thread count exercised: no accidental
  // shard-per-thread alignment can mask an order dependence.
  const CsrMatrix a = plasma_a00512();
  const std::vector<real_t> x = test_vector(a.cols(), 11);
  const std::vector<real_t> w = test_vector(a.rows(), 13);
  std::vector<real_t> y_golden(static_cast<std::size_t>(a.rows()));
  real_t dot_golden = 0.0, norm_golden = 0.0;
  a.multiply_dot_norm2(x, y_golden, w, dot_golden, norm_golden);

  const int saved_threads = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    for (const index_t s : {3, 5, 7}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(s));
      const CsrMatrix sharded =
          sharded_copy(a, ShardLayout::nnz_balanced(s, a.row_ptr()));
      std::vector<real_t> y(static_cast<std::size_t>(a.rows()));
      real_t dot = 0.0, norm = 0.0;
      sharded.multiply_dot_norm2(x, y, w, dot, norm);
      EXPECT_EQ(y, y_golden);
      EXPECT_EQ(dot, dot_golden);
      EXPECT_EQ(norm, norm_golden);
    }
  }
  omp_set_num_threads(saved_threads);
}
#endif

// ---------------------------------------------------------------------------
// Full Krylov solves across shard counts
// ---------------------------------------------------------------------------

TEST(ShardedPlanConformance, KrylovSolvesBitIdenticalAcrossShardCounts) {
  // tolerance = 0 can never be met, so every solve runs the same fixed
  // iteration count and the x comparison covers every fused reduction the
  // method performs.
  SolveOptions options;
  options.tolerance = 0.0;
  options.max_iterations = 25;
  options.restart = 10;

  const CsrMatrix spd = laplace_2d(24);
  const CsrMatrix nonsym = pdd_real_sparse(200, 0.1, 31);
  const JacobiPreconditioner jacobi(spd);
  const IdentityPreconditioner identity;
  // An MCMC P ~ A^-1 for the SPD system.  The sharded case binds P to the
  // same shard count as A, each over its own nnz balance, as the serving
  // layer does at swap-in, so CG's preconditioner tail runs sharded too.
  const CsrMatrix p_mcmc =
      McmcInverter(spd, {1.0, 0.25, 0.25}, McmcOptions{}).compute();
  const SparseApproximateInverse spai(p_mcmc, "mcmc");

  struct Case {
    std::string name;
    KrylovMethod method;
    const CsrMatrix* a;
    const Preconditioner* p;
    bool shard_p = false;  ///< bind P to the operator's shard count
  };
  const std::vector<Case> cases = {
      {"cg/laplace", KrylovMethod::kCG, &spd, &jacobi},
      {"cg/laplace/sharded-spai", KrylovMethod::kCG, &spd, &spai, true},
      {"gmres/pdd", KrylovMethod::kGMRES, &nonsym, &identity},
      {"bicgstab/pdd", KrylovMethod::kBiCGStab, &nonsym, &identity},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<real_t> b = test_vector(c.a->rows(), 17);
    std::vector<real_t> x_golden;
    const SolveResult golden =
        solve(c.method, *c.a, b, *c.p, x_golden, options);
    for (const index_t s : conformance_shard_counts()) {
      SCOPED_TRACE("shards=" + std::to_string(s));
      const CsrMatrix sharded =
          sharded_copy(*c.a, ShardLayout::nnz_balanced(s, c.a->row_ptr()));
      const Preconditioner* p = c.p;
      SparseApproximateInverse sharded_spai(p_mcmc, "mcmc");
      if (c.shard_p) {
        sharded_spai.set_shard_layout(
            ShardLayout::nnz_balanced(s, p_mcmc.row_ptr()));
        ASSERT_NE(sharded_spai.matrix().sharded_plan(), nullptr);
        p = &sharded_spai;
      }
      std::vector<real_t> x;
      const SolveResult result = solve(c.method, sharded, b, *p, x, options);
      EXPECT_EQ(result.iterations, golden.iterations);
      EXPECT_EQ(x, x_golden);  // bit-identical trajectory end to end
    }
  }
}

// ---------------------------------------------------------------------------
// Reduction-order fuzz: ShardReducer::reduce vs the serial reference
// ---------------------------------------------------------------------------

TEST(ShardReducerFuzz, RandomLayoutsMatchReferenceByteForByte) {
  // 200 seeded random layouts per matrix, including empty shards and wildly
  // unbalanced boundaries.  reduce() must reproduce the serial reference
  // exactly; a failure prints the offending boundary list for replay.
  std::mt19937 rng(0x5eed5eedu);
  for (const auto& [name, a] : conformance_matrices()) {
    SCOPED_TRACE(name);
    const index_t n = a.rows();
    const ShardReducer reducer(SpmvPlan::chunk_boundaries(n, a.row_ptr()));
    const std::vector<real_t> w = test_vector(n, 23);
    const std::vector<real_t> y = test_vector(n, 29);
    real_t ref_dot = 0.0, ref_norm = 0.0;
    reducer.reference(w.data(), y.data(), true, ref_dot, ref_norm);

    std::uniform_int_distribution<index_t> shard_count(1, 16);
    std::uniform_int_distribution<index_t> boundary(0, n);
    for (int trial = 0; trial < 200; ++trial) {
      ShardLayout layout;
      const index_t s = shard_count(rng);
      layout.boundaries.resize(static_cast<std::size_t>(s) + 1);
      layout.boundaries.front() = 0;
      layout.boundaries.back() = n;
      for (index_t i = 1; i < s; ++i) {
        layout.boundaries[static_cast<std::size_t>(i)] = boundary(rng);
      }
      std::sort(layout.boundaries.begin(), layout.boundaries.end());
      layout.validate(n);

      real_t dot = 0.0, norm = 0.0;
      reducer.reduce(layout, w.data(), y.data(), true, dot, norm);
      if (dot != ref_dot || norm != ref_norm) {
        ADD_FAILURE() << "reduction order leak on " << name << " trial "
                      << trial << " layout " << layout_string(layout)
                      << ": dot " << dot << " vs " << ref_dot << ", norm "
                      << norm << " vs " << ref_norm;
        break;  // one replayable failure per matrix is enough
      }
    }
  }
}

TEST(ShardReducer, GridMatchesSinglePlanChunks) {
  // The reducer's block grid must BE the single plan's chunk grid — that
  // identity is what makes the sharded fused path bit-equal to the
  // unsharded one.
  const CsrMatrix a = laplace_2d(64);
  const ShardedPlan plan = ShardedPlan::build(
      a.rows(), a.cols(), a.row_ptr(), a.col_idx(),
      ShardLayout::nnz_balanced(3, a.row_ptr()));
  EXPECT_EQ(plan.reducer().block_rows(),
            SpmvPlan::chunk_boundaries(a.rows(), a.row_ptr()));
  ASSERT_GT(plan.reducer().num_blocks(), 1);  // the sweep must multi-block
}

// ---------------------------------------------------------------------------
// Batched MCMC grid builds under shard layouts
// ---------------------------------------------------------------------------

TEST(ShardedMcmcBuild, GridBuildBitIdenticalAcrossLayouts) {
  const CsrMatrix a = laplace_2d(10);
  const std::vector<GridTrial> trials = {{0.5, 0.25}, {0.25, 0.125}};
  const BatchedGridResult golden = batched_grid_build(a, 1.0, trials, {});

  std::vector<std::pair<std::string, ShardLayout>> layouts;
  for (const index_t s : conformance_shard_counts()) {
    layouts.emplace_back("nnz_balanced(" + std::to_string(s) + ")",
                         ShardLayout::nnz_balanced(s, a.row_ptr()));
  }
  layouts.emplace_back("uniform(7)", ShardLayout::uniform(7, a.rows()));
  layouts.emplace_back("empty-shard",
                       ShardLayout{{0, a.rows() / 2, a.rows() / 2, a.rows()}});
  for (auto& [name, layout] : layouts) {
    SCOPED_TRACE(name);
    McmcOptions options;
    options.shards = layout;
    const BatchedGridResult sharded =
        batched_grid_build(a, 1.0, trials, options);
    ASSERT_EQ(sharded.preconditioners.size(), golden.preconditioners.size());
    for (std::size_t t = 0; t < trials.size(); ++t) {
      SCOPED_TRACE("trial=" + std::to_string(t));
      // Full-content CSR hash: structure and value bit patterns.
      EXPECT_EQ(sharded.preconditioners[t].content_fingerprint(),
                golden.preconditioners[t].content_fingerprint());
      EXPECT_EQ(sharded.info[t].total_transitions,
                golden.info[t].total_transitions);
      EXPECT_EQ(sharded.info[t].chains_per_row, golden.info[t].chains_per_row);
    }
  }
}

TEST(ShardedMcmcBuild, StandaloneInverterHonorsShardLayout) {
  const CsrMatrix a = pdd_real_sparse(80, 0.12, 19);
  McmcOptions plain;
  const CsrMatrix golden = McmcInverter(a, {1.0, 0.5, 0.25}, plain).compute();
  McmcOptions sharded_options;
  sharded_options.shards = ShardLayout::nnz_balanced(3, a.row_ptr());
  const CsrMatrix sharded =
      McmcInverter(a, {1.0, 0.5, 0.25}, sharded_options).compute();
  EXPECT_EQ(sharded.content_fingerprint(), golden.content_fingerprint());
}

TEST(ShardRowSpans, CoverEveryRowWithoutCrossingShards) {
  const ShardLayout layout{{0, 5, 5, 17, 40}};
  const auto spans = shard_row_spans(layout, 2, 33, 8);
  index_t covered = 2;
  for (const auto& [begin, end] : spans) {
    EXPECT_EQ(begin, covered);  // contiguous, in order
    EXPECT_LT(begin, end);
    EXPECT_LE(end - begin, 8);
    // A span never crosses a shard boundary.
    for (std::size_t b = 1; b + 1 < layout.boundaries.size(); ++b) {
      const index_t edge = layout.boundaries[b];
      EXPECT_FALSE(begin < edge && edge < end)
          << "span [" << begin << ", " << end << ") crosses shard edge "
          << edge;
    }
    covered = end;
  }
  EXPECT_EQ(covered, 33);
}

// ---------------------------------------------------------------------------
// Stale-plan regression: layout switches must never serve the old plan
// ---------------------------------------------------------------------------

TEST(ShardLayoutSwitch, NoStalePlanAfterLayoutSwitch) {
  // The content-keyed lazy SpmvPlan cache knows nothing about shards; a
  // switch must be observed through the accessor by the very next product,
  // and every product keeps the single plan's bits.
  const CsrMatrix golden_matrix = laplace_2d(16);
  const std::vector<real_t> x = test_vector(golden_matrix.cols(), 43);
  const std::vector<real_t> golden = golden_matrix.multiply(x);

  CsrMatrix m = golden_matrix;
  EXPECT_EQ(m.sharded_plan(), nullptr);
  EXPECT_EQ(m.multiply(x), golden);  // populates the lazy single plan

  // Single plan -> 3 shards: the plan flips, bits do not.
  const ShardLayout three = ShardLayout::nnz_balanced(3, m.row_ptr());
  m.set_shard_layout(three);
  const auto bound_three = m.sharded_plan();
  ASSERT_NE(bound_three, nullptr);
  EXPECT_EQ(bound_three->layout(), three);
  EXPECT_EQ(m.multiply(x), golden);

  // 3 shards -> single-row shards: a fresh plan under the new layout.
  const ShardLayout single_rows = ShardLayout::uniform(m.rows(), m.rows());
  m.set_shard_layout(single_rows);
  const auto bound_rows = m.sharded_plan();
  ASSERT_NE(bound_rows, nullptr);
  EXPECT_NE(bound_rows, bound_three);
  EXPECT_EQ(bound_rows->layout(), single_rows);
  EXPECT_EQ(bound_rows->num_shards(), m.rows());
  EXPECT_EQ(m.multiply(x), golden);

  // Back to the single plan: the accessor clears, the original bits return.
  m.set_shard_layout(ShardLayout{});
  EXPECT_EQ(m.sharded_plan(), nullptr);
  EXPECT_EQ(m.multiply(x), golden);
}

TEST(ShardLayoutSwitch, CopiesInheritTheBoundLayout) {
  const CsrMatrix a = laplace_2d(12);
  CsrMatrix m = a;
  const ShardLayout two = ShardLayout::nnz_balanced(2, m.row_ptr());
  m.set_shard_layout(two);
  const CsrMatrix copy = m;
  ASSERT_NE(copy.sharded_plan(), nullptr);
  EXPECT_EQ(copy.sharded_plan()->layout(), two);
  CsrMatrix assigned;
  assigned = m;
  ASSERT_NE(assigned.sharded_plan(), nullptr);
  EXPECT_EQ(assigned.sharded_plan()->layout(), two);

  const std::vector<real_t> x = test_vector(a.cols(), 47);
  EXPECT_EQ(copy.multiply(x), a.multiply(x));
}

}  // namespace
}  // namespace mcmi
