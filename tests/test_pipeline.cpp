// Tests for src/pipeline: the eq. (4) metric, dataset building shapes and
// measurement bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/rng.hpp"
#include "gen/matrix_set.hpp"
#include "pipeline/dataset_builder.hpp"
#include "pipeline/metric.hpp"
#include "stats/summary.hpp"

namespace mcmi {
namespace {

SolveOptions quick_solve() {
  SolveOptions opt;
  opt.restart = 250;
  opt.max_iterations = 1500;
  return opt;
}

/// Runs `probe` with OpenMP teams of 1 and of 4 threads and returns both
/// results, restoring the caller's team size (a build without OpenMP runs
/// it twice serially).  The batched probes score concurrently, so the two
/// must agree bit for bit.
template <class Probe>
auto at_one_and_four_threads(Probe probe) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  auto one = probe();
  omp_set_num_threads(4);
  auto four = probe();
  omp_set_num_threads(saved);
  return std::make_pair(std::move(one), std::move(four));
#else
  auto one = probe();
  return std::make_pair(std::move(one), probe());
#endif
}

TEST(Metric, RatioBelowOneOnPreconditionableMatrix) {
  const NamedMatrix nm = make_matrix("a00512");
  PerformanceMeasurer measurer(nm.matrix, quick_solve());
  const MetricResult r =
      measurer.measure({1.0, 0.0625, 0.0625}, KrylovMethod::kGMRES, 0);
  EXPECT_TRUE(r.preconditioned_converged);
  EXPECT_LT(r.y, 1.0);
  EXPECT_EQ(r.steps_without, measurer.baseline_steps(KrylovMethod::kGMRES));
  EXPECT_NEAR(r.y,
              static_cast<real_t>(r.steps_with) /
                  static_cast<real_t>(r.steps_without),
              1e-12);
}

TEST(Metric, BaselineIsCachedAndDeterministic) {
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer measurer(nm.matrix, quick_solve());
  const index_t b1 = measurer.baseline_steps(KrylovMethod::kGMRES);
  const index_t b2 = measurer.baseline_steps(KrylovMethod::kGMRES);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(b1, 0);
}

TEST(Metric, ReplicatesVaryButAreSeedStable) {
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N128");
  PerformanceMeasurer m1(nm.matrix, quick_solve());
  PerformanceMeasurer m2(nm.matrix, quick_solve());
  const std::vector<real_t> ys1 =
      m1.measure_replicates({1.0, 0.5, 0.0625}, KrylovMethod::kGMRES, 4);
  const std::vector<real_t> ys2 =
      m2.measure_replicates({1.0, 0.5, 0.0625}, KrylovMethod::kGMRES, 4);
  ASSERT_EQ(ys1.size(), 4u);
  EXPECT_EQ(ys1, ys2);  // identical seeds -> identical replicates
  // Replicates use different sampler seeds, so they are not all equal
  // (statistically certain at eps = 0.5 where N = 2 chains).
  bool any_different = false;
  for (std::size_t i = 1; i < ys1.size(); ++i) {
    if (ys1[i] != ys1[0]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Metric, DivergentAlphaIsCappedFailureSignal) {
  const NamedMatrix nm = make_matrix("2DFDLaplace_16");
  McmcOptions mcmc;
  mcmc.walk_cap = 64;
  PerformanceMeasurer measurer(nm.matrix, quick_solve(), mcmc, 4.0);
  const MetricResult r =
      measurer.measure({0.01, 0.5, 0.5}, KrylovMethod::kGMRES, 0);
  EXPECT_GE(r.y, 1.0);
  EXPECT_LE(r.y, 4.0);  // the cap
}

TEST(Metric, YCapBudgetLeavesYUnchanged) {
  // Scored solves stop at the first step count the cap already covers.  A
  // measurer whose cap never binds (so its solves run to max_iterations)
  // must give exactly the same y's once they are capped.
  const NamedMatrix nm = make_matrix("2DFDLaplace_16");
  McmcOptions mcmc;
  mcmc.walk_cap = 64;
  PerformanceMeasurer capped(nm.matrix, quick_solve(), mcmc, 4.0);
  PerformanceMeasurer unbounded(nm.matrix, quick_solve(), mcmc, 1e9);
  const std::vector<GridTrial> trials = {{0.5, 0.5}, {0.25, 0.125}};
  const std::vector<KrylovMethod> methods = {KrylovMethod::kGMRES,
                                             KrylovMethod::kBiCGStab};
  index_t at_cap = 0;
  for (real_t alpha : {0.01, 1.0}) {  // 0.01 is the divergent alpha
    const auto ys =
        capped.measure_grid_replicates_methods(alpha, trials, methods, 2);
    const auto full =
        unbounded.measure_grid_replicates_methods(alpha, trials, methods, 2);
    for (std::size_t m = 0; m < methods.size(); ++m) {
      for (std::size_t t = 0; t < trials.size(); ++t) {
        for (std::size_t r = 0; r < 2; ++r) {
          EXPECT_EQ(ys[m][t][r], std::min(4.0, full[m][t][r]))
              << "alpha " << alpha << " method " << m << " trial " << t
              << " replicate " << r;
          if (ys[m][t][r] == 4.0) ++at_cap;
        }
      }
    }
  }
  EXPECT_GT(at_cap, 0);  // the budget was exercised

  // The single-trial path shares score_solve; there the budget shows in
  // the step count of the capped run.
  const MetricResult r =
      capped.measure({0.01, 0.5, 0.5}, KrylovMethod::kGMRES, 0);
  const MetricResult full =
      unbounded.measure({0.01, 0.5, 0.5}, KrylovMethod::kGMRES, 0);
  EXPECT_EQ(r.y, std::min(4.0, full.y));
  EXPECT_EQ(r.y, 4.0);
  EXPECT_LT(r.steps_with, full.steps_with);
}

TEST(Metric, MeasureGridMatchesPerTrialMeasure) {
  // The batched probe must reproduce measure() exactly: same replicate
  // seeds, bit-identical preconditioner, so identical step counts and y —
  // at one thread and with its solves spread over four.
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer batched(nm.matrix, quick_solve());
  PerformanceMeasurer serial(nm.matrix, quick_solve());
  const real_t alpha = 1.0;
  const std::vector<GridTrial> trials = {
      {0.5, 0.5}, {0.25, 0.125}, {0.125, 0.0625}, {0.5, 0.0625}};
  for (index_t replicate = 0; replicate < 2; ++replicate) {
    const auto [grid, grid4] = at_one_and_four_threads([&] {
      return batched.measure_grid(alpha, trials, KrylovMethod::kGMRES,
                                  replicate);
    });
    ASSERT_EQ(grid.size(), trials.size());
    ASSERT_EQ(grid4.size(), trials.size());
    for (std::size_t t = 0; t < trials.size(); ++t) {
      EXPECT_EQ(grid4[t].steps_with, grid[t].steps_with) << "trial " << t;
      EXPECT_EQ(grid4[t].y, grid[t].y) << "trial " << t;
      const MetricResult single = serial.measure(
          {alpha, trials[t].eps, trials[t].delta}, KrylovMethod::kGMRES,
          replicate);
      EXPECT_EQ(grid[t].steps_with, single.steps_with) << "trial " << t;
      EXPECT_EQ(grid[t].steps_without, single.steps_without);
      EXPECT_EQ(grid[t].y, single.y) << "trial " << t;  // bit-identical
      EXPECT_EQ(grid[t].build.total_transitions,
                single.build.total_transitions)
          << "trial " << t;
      EXPECT_EQ(grid[t].build.chains_per_row, single.build.chains_per_row);
      EXPECT_EQ(grid[t].build.walk_cutoff, single.build.walk_cutoff);
    }
  }
}

TEST(Metric, MeasureGridReplicatesShape) {
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer measurer(nm.matrix, quick_solve());
  const std::vector<GridTrial> trials = {{0.5, 0.5}, {0.25, 0.25}};
  const auto ys =
      measurer.measure_grid_replicates(1.0, trials, KrylovMethod::kGMRES, 3);
  ASSERT_EQ(ys.size(), 2u);
  for (const auto& column : ys) {
    ASSERT_EQ(column.size(), 3u);
    for (real_t y : column) EXPECT_GT(y, 0.0);
  }
  const auto per_trial =
      measurer.measure_replicates({1.0, 0.5, 0.5}, KrylovMethod::kGMRES, 3);
  EXPECT_EQ(ys[0], per_trial);  // identical replicate seeding
}

TEST(Metric, MeasureGridReplicatesMatchesPerReplicateMeasure) {
  // The interleaved replicate-batched path must reproduce measure() for
  // EVERY (trial, replicate) cell — bit-identical preconditioners, so
  // bit-identical y's.
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer batched(nm.matrix, quick_solve());
  PerformanceMeasurer serial(nm.matrix, quick_solve());
  const std::vector<GridTrial> trials = {
      {0.5, 0.5}, {0.25, 0.125}, {0.125, 0.0625}};
  const index_t replicates = 3;
  const auto ys = batched.measure_grid_replicates(
      2.0, trials, KrylovMethod::kBiCGStab, replicates);
  ASSERT_EQ(ys.size(), trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    ASSERT_EQ(ys[t].size(), static_cast<std::size_t>(replicates));
    for (index_t r = 0; r < replicates; ++r) {
      const MetricResult single =
          serial.measure({2.0, trials[t].eps, trials[t].delta},
                         KrylovMethod::kBiCGStab, r);
      EXPECT_EQ(ys[t][static_cast<std::size_t>(r)], single.y)
          << "trial " << t << " replicate " << r;
    }
  }
}

TEST(Metric, MultiMethodGridMatchesPerMethodGrids) {
  // One ensemble serving both Krylov methods must score exactly like two
  // per-method probes: P is method-independent, so only the solves differ.
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer multi(nm.matrix, quick_solve());
  PerformanceMeasurer gmres_only(nm.matrix, quick_solve());
  PerformanceMeasurer bicg_only(nm.matrix, quick_solve());
  const std::vector<GridTrial> trials = {{0.5, 0.5}, {0.25, 0.125}};
  const auto [ys, ys4] = at_one_and_four_threads([&] {
    return multi.measure_grid_replicates_methods(
        1.0, trials, {KrylovMethod::kGMRES, KrylovMethod::kBiCGStab}, 2);
  });
  ASSERT_EQ(ys.size(), 2u);
  EXPECT_EQ(ys4, ys);  // concurrent scoring is thread-count invariant
  EXPECT_EQ(ys[0], gmres_only.measure_grid_replicates(
                       1.0, trials, KrylovMethod::kGMRES, 2));
  EXPECT_EQ(ys[1], bicg_only.measure_grid_replicates(
                       1.0, trials, KrylovMethod::kBiCGStab, 2));
}

TEST(Metric, GroupedMediansMatchPerPointMedians) {
  // measure_grouped_medians routes through the multi-alpha builder; the
  // alpha pair (1, 3) engages shared successor draws while 2.0 in the mix
  // forms its own group — medians must match plain per-point replicate
  // loops either way.
  const NamedMatrix nm = make_matrix("PDD_RealSparse_N64");
  PerformanceMeasurer grouped(nm.matrix, quick_solve());
  PerformanceMeasurer serial(nm.matrix, quick_solve());
  const std::vector<McmcParams> grid = {{1.0, 0.5, 0.25},
                                        {3.0, 0.25, 0.125},
                                        {1.0, 0.25, 0.25},
                                        {2.0, 0.5, 0.125}};
  const index_t replicates = 3;
  const auto [medians, medians4] = at_one_and_four_threads([&] {
    return grouped.measure_grouped_medians(grid, KrylovMethod::kGMRES,
                                           replicates);
  });
  ASSERT_EQ(medians.size(), grid.size());
  EXPECT_EQ(medians4, medians);  // concurrent scoring is thread-count invariant
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::vector<real_t> ys =
        serial.measure_replicates(grid[i], KrylovMethod::kGMRES, replicates);
    EXPECT_EQ(medians[i], median(ys)) << "grid point " << i;
  }
}

TEST(DatasetBuilder, SampleCountFormula) {
  // One SPD matrix: 64 grid x 2 solvers + 16 CG + 2 divergence x 2 solvers.
  DatasetBuildOptions opt;
  opt.replicates = 2;
  const std::vector<NamedMatrix> mats = {make_matrix("2DFDLaplace_16")};
  const SurrogateDataset ds = build_dataset(mats, opt);
  EXPECT_EQ(ds.num_matrices(), 1);
  EXPECT_EQ(ds.size(), 64 * 2 + 16 + 4);
  // One non-SPD matrix: no CG block.
  const std::vector<NamedMatrix> mats2 = {make_matrix("PDD_RealSparse_N64")};
  const SurrogateDataset ds2 = build_dataset(mats2, opt);
  EXPECT_EQ(ds2.size(), 64 * 2 + 4);
}

TEST(DatasetBuilder, SamplesCarryEncodedSolver) {
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.grid = {{1.0, 0.5, 0.5}};  // single grid point for speed
  opt.divergence_samples = 0;
  const std::vector<NamedMatrix> mats = {make_matrix("PDD_RealSparse_N64")};
  const SurrogateDataset ds = build_dataset(mats, opt);
  ASSERT_EQ(ds.size(), 2);
  EXPECT_DOUBLE_EQ(ds.samples[0].xm[4], 1.0);  // gmres one-hot
  EXPECT_DOUBLE_EQ(ds.samples[1].xm[5], 1.0);  // bicgstab one-hot
  for (const LabeledSample& s : ds.samples) {
    EXPECT_GE(s.y_mean, 0.0);
    EXPECT_GE(s.y_std, 0.0);
  }
}

TEST(DatasetBuilder, AppendReusesMatrixEntry) {
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.grid = {{1.0, 0.5, 0.5}};
  opt.divergence_samples = 0;
  const NamedMatrix m = make_matrix("PDD_RealSparse_N64");
  SurrogateDataset ds = build_dataset({m}, opt);
  const index_t id1 = append_matrix_measurements(
      ds, m, {{2.0, 0.5, 0.5}}, {KrylovMethod::kGMRES}, opt);
  EXPECT_EQ(id1, 0);  // reused, not duplicated
  EXPECT_EQ(ds.num_matrices(), 1);
  EXPECT_EQ(ds.size(), 3);
  const NamedMatrix other = make_matrix("PDD_RealSparse_N128");
  const index_t id2 = append_matrix_measurements(
      ds, other, {{2.0, 0.5, 0.5}}, {KrylovMethod::kGMRES}, opt);
  EXPECT_EQ(id2, 1);
  EXPECT_EQ(ds.num_matrices(), 2);
}

TEST(DatasetBuilder, BatchedGridLabelsMatchPerTrialLabels) {
  // The alpha-grouped batched path must label exactly like the per-trial
  // loop it replaced: same sample order (grid-major, method-minor), same
  // means and deviations.  The grid interleaves two alphas to exercise the
  // group-and-scatter logic.
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.divergence_samples = 0;
  opt.grid = {{1.0, 0.5, 0.5},
              {2.0, 0.5, 0.25},
              {1.0, 0.25, 0.5},
              {2.0, 0.25, 0.25}};
  const NamedMatrix m = make_matrix("PDD_RealSparse_N64");
  const SurrogateDataset ds = build_dataset({m}, opt);
  ASSERT_EQ(ds.size(), static_cast<index_t>(opt.grid.size() * 2));

  McmcOptions mcmc = opt.mcmc;
  mcmc.seed = mix64(opt.seed ^ 1u);  // matrix_id 0
  PerformanceMeasurer measurer(m.matrix, opt.solve, mcmc);
  std::size_t s = 0;
  for (const McmcParams& params : opt.grid) {
    for (KrylovMethod method :
         {KrylovMethod::kGMRES, KrylovMethod::kBiCGStab}) {
      const std::vector<real_t> ys =
          measurer.measure_replicates(params, method, opt.replicates);
      EXPECT_EQ(ds.samples[s].y_mean, mean(ys)) << "sample " << s;
      EXPECT_EQ(ds.samples[s].y_std, sample_std(ys)) << "sample " << s;
      ++s;
    }
  }
}

TEST(DatasetBuilder, GraphAndFeaturesMatchMatrix) {
  DatasetBuildOptions opt;
  opt.replicates = 2;
  opt.grid = {{1.0, 0.5, 0.5}};
  opt.divergence_samples = 0;
  const NamedMatrix m = make_matrix("PDD_RealSparse_N64");
  const SurrogateDataset ds = build_dataset({m}, opt);
  EXPECT_EQ(ds.graphs[0].num_nodes, m.matrix.rows());
  EXPECT_EQ(ds.graphs[0].num_edges(), m.matrix.nnz());
  EXPECT_FALSE(ds.features[0].empty());
  EXPECT_EQ(ds.matrix_names[0], "PDD_RealSparse_N64");
}

}  // namespace
}  // namespace mcmi
