// Sharded-execution scaling benchmark: per-shard work balance and reduce
// overhead of the ShardedPlan backend against the single-plan path on the
// 512^2-family Laplacian (ROADMAP sharded-execution item).
//
// Three rows, each swept over shard counts (arg 0 = the single-plan
// baseline, not a one-shard ShardedPlan):
//  - BM_ShardedSpmv/{0,1,2,4,8}     : plain y = A x.  The gated pair
//                                     4-shard : single asserts sharding
//                                     keeps >= 0.9x of the single-plan
//                                     throughput (the flattened
//                                     (shard, chunk) schedule must not cap
//                                     parallelism at the shard count).
//  - BM_ShardedFusedDot/{0,1,2,4,8} : fused multiply_dot_norm2 — the
//                                     ShardReducer's fixed-block fold on
//                                     top of the product; the delta against
//                                     BM_ShardedSpmv at the same shard
//                                     count is the deterministic-reduce
//                                     overhead (info rows).
//  - BM_ShardedGridBuild/{0,4}      : a batched MCMC grid build with and
//                                     without a shard layout — the
//                                     span-scheduled walk ensemble must not
//                                     tax the builders.
//
// Sharded rows report work_imbalance = max shard nnz / (nnz / shards): 1.0
// is a perfect nnz split, and the value is a pure function of the layout,
// so a regression here is a layout bug, not noise.
//
// Run with --json[=path] to mirror the report into a JSON file (default
// BENCH_sharded_scaling.json); scripts/bench_compare.py diffs it against
// the committed BENCH_sharded_pr9.json baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "gen/laplace.hpp"
#include "mcmc/batched_build.hpp"
#include "mcmc/walk_kernel.hpp"
#include "sparse/csr.hpp"
#include "sparse/sharded_plan.hpp"

namespace {

using namespace mcmi;

/// The 512^2 family: laplace_2d(512) is the (511)^2-unknown five-point
/// Laplacian, ~1.3M nonzeros — dozens of plan chunks, so every shard count
/// here still exposes full chunk-level parallelism.
const CsrMatrix& bench_matrix() {
  static const CsrMatrix a = laplace_2d(512);
  return a;
}

std::vector<real_t> bench_vector(index_t n, u64 salt) {
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<real_t>(i + 1) * 0.7 +
                    static_cast<real_t>(salt));
  }
  return x;
}

/// Matrix bound to `shards` shards (0 = the single-plan baseline), plus the
/// layout's work imbalance for the counter row.
CsrMatrix bound_matrix(index_t shards, double* work_imbalance) {
  CsrMatrix a = bench_matrix();
  *work_imbalance = 1.0;
  if (shards <= 0) return a;
  const ShardLayout layout = ShardLayout::nnz_balanced(shards, a.row_ptr());
  index_t max_nnz = 0;
  for (index_t s = 0; s < shards; ++s) {
    max_nnz = std::max(max_nnz, a.row_ptr()[layout.boundaries[s + 1]] -
                                    a.row_ptr()[layout.boundaries[s]]);
  }
  const double fair =
      static_cast<double>(a.nnz()) / static_cast<double>(shards);
  *work_imbalance = static_cast<double>(max_nnz) / fair;
  a.set_shard_layout(layout);
  return a;
}

void BM_ShardedSpmv(benchmark::State& state) {
  double imbalance = 1.0;
  const CsrMatrix a = bound_matrix(state.range(0), &imbalance);
  const std::vector<real_t> x = bench_vector(a.cols(), 3);
  std::vector<real_t> y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
  state.counters["work_imbalance"] = imbalance;
}
BENCHMARK(BM_ShardedSpmv)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ShardedFusedDot(benchmark::State& state) {
  double imbalance = 1.0;
  const CsrMatrix a = bound_matrix(state.range(0), &imbalance);
  const std::vector<real_t> x = bench_vector(a.cols(), 5);
  const std::vector<real_t> w = bench_vector(a.rows(), 9);
  std::vector<real_t> y(static_cast<std::size_t>(a.rows()));
  real_t dot = 0.0, norm = 0.0;
  for (auto _ : state) {
    a.multiply_dot_norm2(x, y, w, dot, norm);
    benchmark::DoNotOptimize(dot);
    benchmark::DoNotOptimize(norm);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
  state.counters["work_imbalance"] = imbalance;
}
BENCHMARK(BM_ShardedFusedDot)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ShardedGridBuild(benchmark::State& state) {
  // Small grid-build workload (the 512^2 operator would dominate CI time):
  // what matters is the relative cost of span-scheduled vs plain row loops.
  const CsrMatrix a = laplace_2d(48);
  const std::vector<GridTrial> trials = {{0.25, 0.25}, {0.25, 0.125}};
  McmcOptions options;
  if (state.range(0) > 0) {
    options.shards = ShardLayout::nnz_balanced(state.range(0), a.row_ptr());
  }
  WalkKernelCache cache;
  long long transitions = 0;
  for (auto _ : state) {
    const BatchedGridResult r =
        batched_grid_build(a, 1.0, trials, options, &cache);
    benchmark::DoNotOptimize(r.preconditioners.data());
    for (const McmcBuildInfo& info : r.info) {
      transitions += info.total_transitions;
    }
  }
  state.SetItemsProcessed(transitions);
}
BENCHMARK(BM_ShardedGridBuild)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

#define MCMI_BENCH_DEFAULT_JSON "BENCH_sharded_scaling.json"
#include "json_main.hpp"
