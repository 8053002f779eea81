#include "pipeline/metric.hpp"

#include <cmath>
#include <cstddef>
#include <exception>
#include <utility>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "stats/summary.hpp"

namespace mcmi {

PerformanceMeasurer::PerformanceMeasurer(const CsrMatrix& a,
                                         SolveOptions solve_options,
                                         McmcOptions mcmc_options,
                                         real_t y_cap)
    : a_(a), solve_options_(solve_options), mcmc_options_(mcmc_options),
      y_cap_(y_cap) {
  MCMI_CHECK(a.rows() == a.cols(), "metric needs a square system");
  // Fixed right-hand side b = (1, ..., 1): deterministic across replicates,
  // so all randomness comes from the preconditioner sampler.
  rhs_.assign(static_cast<std::size_t>(a.rows()), 1.0);
}

index_t PerformanceMeasurer::baseline_steps(KrylovMethod method) {
  const int m = static_cast<int>(method);
  if (baseline_[m] < 0) {
    IdentityPreconditioner identity;
    std::vector<real_t> x;
    const SolveResult res =
        solve(method, a_, rhs_, identity, x, solve_options_);
    baseline_[m] =
        res.converged() ? res.iterations : solve_options_.max_iterations;
  }
  return baseline_[m];
}

McmcOptions PerformanceMeasurer::replicate_options(index_t replicate) const {
  McmcOptions options = mcmc_options_;
  options.seed = mix64(mcmc_options_.seed +
                       0x9e3779b9 * static_cast<u64>(replicate + 1));
  return options;
}

index_t PerformanceMeasurer::y_cap_budget(index_t steps_without) const {
  const index_t max_steps = solve_options_.max_iterations;
  const auto without = static_cast<real_t>(steps_without);
  if (!(y_cap_ * without < static_cast<real_t>(max_steps))) return max_steps;
  auto budget = std::max<index_t>(
      1, static_cast<index_t>(std::floor(y_cap_ * without)));
  // Step past any rounding in y_cap * steps_without: the budget is the first
  // count the eq. (4) division below itself maps to y_cap.
  while (budget < max_steps &&
         static_cast<real_t>(budget) / without < y_cap_) {
    ++budget;
  }
  return budget;
}

void PerformanceMeasurer::score_solve(const SparseApproximateInverse& precond,
                                      KrylovMethod method,
                                      MetricResult& result) const {
  // Any run that reaches the budget scores y_cap whether it would converge
  // later or not, and every shorter run follows the same path, so stopping
  // there leaves y unchanged.
  SolveOptions options = solve_options_;
  options.max_iterations = y_cap_budget(result.steps_without);
  std::vector<real_t> x;
  const SolveResult res = solve(method, a_, rhs_, precond, x, options);
  result.preconditioned_converged = res.converged();
  result.baseline_converged = true;  // baseline counted even when saturated
  result.steps_with =
      res.converged() ? res.iterations : options.max_iterations;
  result.y = std::min(y_cap_, static_cast<real_t>(result.steps_with) /
                                  static_cast<real_t>(result.steps_without));
}

std::vector<MetricResult> PerformanceMeasurer::score_rounds(
    const std::vector<BatchedGridResult*>& rounds,
    const std::vector<KrylovMethod>& methods) {
  // The lazily cached baselines are filled here, before the region, and
  // only read inside it.
  std::vector<index_t> bases;
  bases.reserve(methods.size());
  for (KrylovMethod method : methods) bases.push_back(baseline_steps(method));

  // One item per (round, trial); item i owns result slots [i*M, (i+1)*M).
  std::vector<std::pair<BatchedGridResult*, std::size_t>> items;
  for (BatchedGridResult* round : rounds) {
    for (std::size_t t = 0; t < round->preconditioners.size(); ++t) {
      items.emplace_back(round, t);
    }
  }
  const std::size_t n_methods = methods.size();
  std::vector<MetricResult> results(items.size() * n_methods);

  // Solves of n <= ~1000 systems barely scale inside (vectors sit below the
  // kernels' parallel threshold, the SpMV splits into one or two chunks), so
  // the team spreads whole solves instead; the kernels inside run serially
  // because nested regions are inactive.  Their chunking and reduction
  // order depend on the shapes only, so every y is bit-identical at any
  // thread count.  An exception cannot leave the region: the first one is
  // kept and rethrown after it.
  std::exception_ptr error;
#pragma omp parallel for schedule(dynamic, 1)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(items.size());
       ++i) {
    try {
      const auto [round, t] = items[static_cast<std::size_t>(i)];
      const SparseApproximateInverse precond(
          std::move(round->preconditioners[t]), "mcmcmi");
      for (std::size_t m = 0; m < n_methods; ++m) {
        MetricResult& result =
            results[static_cast<std::size_t>(i) * n_methods + m];
        result.steps_without = bases[m];
        result.build = round->info[t];
        score_solve(precond, methods[m], result);
      }
    } catch (...) {
#pragma omp critical(mcmi_score_rounds_error)
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return results;
}

MetricResult PerformanceMeasurer::measure(const McmcParams& params,
                                          KrylovMethod method,
                                          index_t replicate) {
  MetricResult result;
  result.steps_without = baseline_steps(method);

  McmcInverter inverter(a_, params, replicate_options(replicate));
  inverter.set_kernel_cache(&kernel_cache_);
  CsrMatrix p = inverter.compute();
  result.build = inverter.info();
  const SparseApproximateInverse precond(std::move(p), "mcmcmi");
  score_solve(precond, method, result);
  return result;
}

std::vector<MetricResult> PerformanceMeasurer::measure_grid(
    real_t alpha, const std::vector<GridTrial>& trials, KrylovMethod method,
    index_t replicate) {
  BatchedGridResult built = batched_grid_build(
      a_, alpha, trials, replicate_options(replicate), &kernel_cache_);
  return score_rounds({&built}, {method});
}

std::vector<u64> PerformanceMeasurer::replicate_seeds(
    index_t replicates) const {
  std::vector<u64> seeds;
  seeds.reserve(static_cast<std::size_t>(replicates));
  for (index_t r = 0; r < replicates; ++r) {
    seeds.push_back(replicate_options(r).seed);
  }
  return seeds;
}

std::vector<std::vector<real_t>> PerformanceMeasurer::measure_grid_replicates(
    real_t alpha, const std::vector<GridTrial>& trials, KrylovMethod method,
    index_t replicates) {
  return measure_grid_replicates_methods(alpha, trials, {method},
                                         replicates)[0];
}

std::vector<std::vector<std::vector<real_t>>>
PerformanceMeasurer::measure_grid_replicates_methods(
    real_t alpha, const std::vector<GridTrial>& trials,
    const std::vector<KrylovMethod>& methods, index_t replicates) {
  MCMI_CHECK(replicates >= 1, "need at least one replicate");
  MCMI_CHECK(!methods.empty(), "need at least one Krylov method");

  // One interleaved walk ensemble serves every (trial, replicate) — and
  // every method, because P does not depend on the solver: each replicate's
  // build is bit-identical to measure()'s, so the solves — and the y's —
  // match per-(method, replicate) loops exactly.
  ReplicatedGridResult built = replicate_batched_grid_build(
      a_, alpha, trials, replicate_seeds(replicates), mcmc_options_,
      &kernel_cache_);
  std::vector<BatchedGridResult*> rounds;
  for (BatchedGridResult& round : built.replicates) rounds.push_back(&round);
  const std::vector<MetricResult> results = score_rounds(rounds, methods);

  std::vector<std::vector<std::vector<real_t>>> ys(
      methods.size(), std::vector<std::vector<real_t>>(trials.size()));
  std::size_t k = 0;  // results are in (replicate, trial, method) order
  for (index_t r = 0; r < replicates; ++r) {
    for (std::size_t t = 0; t < trials.size(); ++t) {
      for (std::size_t m = 0; m < methods.size(); ++m) {
        ys[m][t].push_back(results[k++].y);
      }
    }
  }
  return ys;
}

std::vector<real_t> PerformanceMeasurer::measure_grouped_medians(
    const std::vector<McmcParams>& grid, KrylovMethod method,
    index_t replicates) {
  MCMI_CHECK(replicates >= 1, "need at least one replicate");
  if (grid.empty()) return {};
  const std::vector<AlphaGroup> groups = group_grid_by_alpha(grid);

  // The multi-alpha builder shares one ensemble's successor draws across
  // every alpha when the kernels allow it (alias path, bitwise-identical
  // tables) and falls back to one replicate-batched ensemble per alpha
  // otherwise; the per-(point, replicate) preconditioners — and so the
  // medians — are bit-identical either way.
  MultiAlphaGridResult built = multi_alpha_grid_build(
      a_, groups, replicate_seeds(replicates), mcmc_options_, &kernel_cache_);
  std::vector<BatchedGridResult*> rounds;
  for (ReplicatedGridResult& group : built.groups) {
    for (BatchedGridResult& round : group.replicates) rounds.push_back(&round);
  }
  const std::vector<MetricResult> results = score_rounds(rounds, {method});

  std::vector<real_t> medians(grid.size(), 0.0);
  std::size_t k = 0;  // results are in (group, replicate, trial) order
  for (const AlphaGroup& group : groups) {
    std::vector<std::vector<real_t>> ys(group.trials.size());
    for (index_t r = 0; r < replicates; ++r) {
      for (std::vector<real_t>& column : ys) column.push_back(results[k++].y);
    }
    for (std::size_t t = 0; t < group.trials.size(); ++t) {
      medians[static_cast<std::size_t>(group.indices[t])] = median(ys[t]);
    }
  }
  return medians;
}

std::vector<real_t> PerformanceMeasurer::measure_replicates(
    const McmcParams& params, KrylovMethod method, index_t replicates) {
  MCMI_CHECK(replicates >= 1, "need at least one replicate");
  std::vector<real_t> ys;
  ys.reserve(static_cast<std::size_t>(replicates));
  for (index_t r = 0; r < replicates; ++r) {
    ys.push_back(measure(params, method, r).y);
  }
  return ys;
}

}  // namespace mcmi
