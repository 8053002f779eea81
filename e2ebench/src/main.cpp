// End-to-end benchmark program for the mcmi library.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --out <raw.json> [--digests <dir>] [--commit <id>] [--code <id>]
//
// Runs one named workload against the library's public API, prints the run
// metadata and then the result line (correct, attempted, failed and the
// named metrics), and writes the raw material of the metrics as one JSON
// document: run metadata, set-up times, one record per answer (timings,
// iterations, the served rung, the true residual and whether the answer
// passed every check), spans, the counters the library returns, and the
// rate-ladder probes of the serving workloads.  run.py builds this program
// and relays its output.
//
// Workloads (README.md says why each exists):
//   tune_unseen  features -> surrogate -> EI/L-BFGS-B -> grouped evaluation
//                -> MCMC build -> GMRES -> true-residual test (and the
//                classical rungs when the MCMC answer fails it), on
//                held-out adv-diff systems;
//   solve_large  one walk-heavy MCMC build + GMRES(50) on laplace_2d(256),
//                at nproc threads and at one thread;
//   serve_warm   open-loop Poisson traffic against a SolveService whose
//                fingerprints were all tuned in set-up (the read path);
//   serve_churn  the same traffic with a share of never-seen matrices and
//                a store smaller than the live fingerprint set (the write
//                path: misses, fallback rungs, background builds, eviction).
//
// The seed is the only source of randomness; the library receives only the
// generated matrices and right-hand sides.

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bo/recommender.hpp"
#include "core/rng.hpp"
#include "features/matrix_features.hpp"
#include "gen/adv_diff.hpp"
#include "gen/laplace.hpp"
#include "gen/matrix_set.hpp"
#include "gen/plasma.hpp"
#include "gen/random_sparse.hpp"
#include "gnn/graph.hpp"
#include "krylov/solver.hpp"
#include "mcmc/inverter.hpp"
#include "pipeline/dataset_builder.hpp"
#include "pipeline/metric.hpp"
#include "precond/sparse_precond.hpp"
#include "serve/solve_service.hpp"
#include "solve/orchestrator.hpp"
#include "sparse/vector_ops.hpp"
#include "surrogate/trainer.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace {

using namespace mcmi;
using e2e::Tracer;

// ---- raw output -----------------------------------------------------------

/// One flat JSON object of numbers and strings.
struct Record {
  std::vector<std::pair<std::string, double>> nums;
  std::vector<std::pair<std::string, std::string>> strs;

  Record& num(const std::string& key, double value) {
    nums.emplace_back(key, value);
    return *this;
  }
  Record& str(const std::string& key, std::string value) {
    strs.emplace_back(key, std::move(value));
    return *this;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    for (const auto& kv : nums) {
      if (kv.first == key) return true;
    }
    return false;
  }
  /// The last value stored under `key` (`fallback` when absent).
  [[nodiscard]] double get(const std::string& key, double fallback = 0) const {
    for (auto it = nums.rbegin(); it != nums.rend(); ++it) {
      if (it->first == key) return it->second;
    }
    return fallback;
  }
  [[nodiscard]] std::string text(const std::string& key) const {
    for (auto it = strs.rbegin(); it != strs.rend(); ++it) {
      if (it->first == key) return it->second;
    }
    return "";
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string to_json(const Record& r) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : r.nums) {
    os << (first ? "" : ",") << '"' << json_escape(k) << "\":"
       << json_number(v);
    first = false;
  }
  for (const auto& [k, v] : r.strs) {
    os << (first ? "" : ",") << '"' << json_escape(k) << "\":\""
       << json_escape(v) << '"';
    first = false;
  }
  os << '}';
  return os.str();
}

std::string to_json(const std::vector<Record>& rs) {
  std::string out = "[";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (i) out += ",\n";
    out += to_json(rs[i]);
  }
  return out + "]";
}

/// Everything one run produces.
struct RunOutput {
  Record meta;
  std::vector<double> setup_s;
  std::vector<Record> answers;  ///< one per answer the workload produced
  std::vector<Record> systems;  ///< every generated input, with its seed
  std::vector<Record> probes;   ///< kernel and rate-ladder probes
  Record counters;              ///< library counters summed over the run
  /// Serving: each request family's share of the traffic, the weights of
  /// the per-family statistics (mix_median).
  std::vector<std::pair<std::string, double>> mix;
  double measured_s = 0.0;      ///< wall time of the measuring phase
};

void write_output(const std::string& path, const RunOutput& out,
                  const Tracer& tracer) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "{\"meta\":" << to_json(out.meta) << ",\n\"setup_s\":[";
  for (std::size_t i = 0; i < out.setup_s.size(); ++i) {
    f << (i ? "," : "") << json_number(out.setup_s[i]);
  }
  f << "],\n\"measured_s\":" << json_number(out.measured_s)
    << ",\n\"counters\":" << to_json(out.counters)
    << ",\n\"systems\":" << to_json(out.systems)
    << ",\n\"answers\":" << to_json(out.answers)
    << ",\n\"probes\":" << to_json(out.probes) << ",\n\"spans\":[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    f << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
      << ",\"parent\":" << s.parent << ",\"start\":" << json_number(s.start)
      << ",\"end\":" << json_number(s.end) << '}';
  }
  f << "]}\n";
  if (!f) throw std::runtime_error("short write to " + path);
}

// ---- shared helpers -------------------------------------------------------

std::vector<real_t> seeded_rhs(index_t n, u64 seed, u64 key) {
  Xoshiro256 rng = make_stream(seed, key, 0x72687321ULL);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (real_t& v : b) v = normal01(rng);
  return b;
}

/// True relative residual ||b - A x|| / ||b||, from a plain CSR loop that
/// shares no code with the Krylov layer or the SpMV plans.
double true_residual(const CsrMatrix& a, const std::vector<real_t>& b,
                     const std::vector<real_t>& x) {
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& va = a.values();
  long double rr = 0.0L, bb = 0.0L;
  for (index_t i = 0; i < a.rows(); ++i) {
    long double ax = 0.0L;
    for (index_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      ax += static_cast<long double>(va[static_cast<std::size_t>(k)]) *
            x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    }
    const long double r = b[static_cast<std::size_t>(i)] - ax;
    rr += r * r;
    bb += static_cast<long double>(b[static_cast<std::size_t>(i)]) *
          b[static_cast<std::size_t>(i)];
  }
  return static_cast<double>(std::sqrt(rr / bb));
}

/// The stated correctness bound on an answer's true relative residual.
/// Left-preconditioned solves stop on ||P r|| / ||P b|| <= tol, which bounds
/// the true residual only by kappa(P) * tol; a preconditioner as well
/// conditioned as A^-1 itself gives kappa(A) * tol.  The check allows ten
/// times that, with kappa(A) from the library's condition estimate, so it
/// accepts any answer a sound preconditioner can give and rejects answers
/// from (numerically) singular ones.  It is capped at 1e-2, so a trivial
/// answer (x = 0 has residual 1) fails however ill conditioned A is, and it
/// is NaN, which no residual meets, when the estimate is not finite.
constexpr double kSolveTolerance = 1e-8;
constexpr double kMaxResidualBound = 1e-2;
double residual_bound(double kappa) {
  if (!std::isfinite(kappa)) return std::nan("");
  return std::min(kMaxResidualBound,
                  10.0 * kSolveTolerance * std::max(1.0, kappa));
}

std::string hex64(u64 v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Record system_record(const std::string& name, const CsrMatrix& a,
                     const std::string& origin) {
  Record r;
  r.str("name", name).str("origin", origin);
  r.str("fingerprint", hex64(a.content_fingerprint()));
  r.num("n", static_cast<double>(a.rows()));
  r.num("nnz", static_cast<double>(a.nnz()));
  return r;
}

/// Bytes a CSR matrix occupies (values, column indices, row pointers).
double csr_bytes(const CsrMatrix& a) {
  return static_cast<double>(a.nnz()) * (sizeof(real_t) + sizeof(index_t)) +
         static_cast<double>(a.rows() + 1) * sizeof(index_t);
}

/// Kernel probe of CsrMatrix::multiply (traced runs only): repeated
/// products on one matrix, timed as a whole.  Bytes are computed from the
/// array sizes (matrix arrays + x read once + y written once), not counted
/// by hardware.
Record spmv_probe(const std::string& name, const CsrMatrix& a,
                  Tracer& tracer) {
  std::vector<real_t> x(static_cast<std::size_t>(a.cols()), 1.0), y;
  a.multiply(x, y);  // warm the plan and the caches
  const double bytes = csr_bytes(a) + 2.0 * sizeof(real_t) * a.rows();
  // About 200 MB of computed traffic, at least 10 products.
  const int reps = std::max(10, static_cast<int>(2e8 / std::max(bytes, 1.0)));
  const double t0 = tracer.now();
  for (int r = 0; r < reps; ++r) a.multiply(x, y);
  const double dt = (tracer.now() - t0) / reps;
  Record p;
  p.str("kind", "spmv").str("system", name);
  p.num("spmv_s", dt).num("bytes", bytes).num(
      "flops", 2.0 * static_cast<double>(a.nnz()));
  return p;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// ---- tune_unseen ------------------------------------------------------------

/// A held-out system and where it came from.
struct HeldOut {
  std::string name;
  CsrMatrix matrix;
  std::string origin;
};

/// The paper's unseen matrix plus order-2 adv-diff variants whose velocity,
/// memory strength and kernel length are drawn from the seed, within 10%
/// of the published matrix's values.
std::vector<HeldOut> held_out_systems(u64 seed, int variants) {
  std::vector<HeldOut> out;
  out.push_back({"unsteady_adv_diff_order2_0001", unsteady_adv_diff_order2(),
                 "paper matrix (seed-independent)"});
  Xoshiro256 rng = make_stream(seed, 0x68656c64ULL);
  for (int v = 0; v < variants; ++v) {
    AdvDiffOptions o;
    o.order = 2;
    o.velocity = uniform(rng, 0.9, 1.1);
    o.memory_strength = uniform(rng, 36.0, 44.0);
    o.kernel_length = uniform(rng, 0.32, 0.38);
    char name[64], origin[160];
    std::snprintf(name, sizeof name, "adv_diff_order2_s%llu_v%d",
                  static_cast<unsigned long long>(seed), v);
    std::snprintf(origin, sizeof origin,
                  "seed %llu variant %d: velocity %.4f memory_strength %.3f "
                  "kernel_length %.4f",
                  static_cast<unsigned long long>(seed), v, o.velocity,
                  o.memory_strength, o.kernel_length);
    out.push_back({name, unsteady_adv_diff(o), origin});
  }
  return out;
}

/// Deterministic outcome of one tune-then-solve, compared across repeats of
/// the same system in a run and against the digest file of an earlier run
/// with the same seed and thread count.
std::string tune_digest(const McmcParams& p, double best_y,
                        index_t mcmc_iters, const std::string& rung,
                        index_t iters) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g|%.17g|%lld|%s|%lld",
                p.alpha, p.eps, p.delta, best_y,
                static_cast<long long>(mcmc_iters), rung.c_str(),
                static_cast<long long>(iters));
  return buf;
}

/// The final build + solve of a tune-then-solve, run as a careful caller
/// runs it.  Left-preconditioned GMRES stops on ||P r|| / ||P b||, which a
/// rank-deficient P meets while ||r|| / ||b|| is still huge, so the caller
/// tests the true residual of the MCMC answer (with the library's own
/// product) against the stated bound and, when it fails, solves again down
/// the orchestrator's classical rungs (ILU0 -> Jacobi -> none).  The
/// benchmark's independent check of the answer runs after this returns.
struct TunedSolve {
  std::vector<real_t> x;
  McmcBuildInfo info;
  SolveResult mcmc;
  bool fell_back = false;
  SolveReport fallback;  ///< set when fell_back
  double build_s = 0.0;
  double mcmc_solve_s = 0.0;
  double fallback_s = 0.0;
};

TunedSolve verified_solve(const CsrMatrix& a, const std::vector<real_t>& b,
                          const McmcParams& chosen, const SolveOptions& so,
                          double bound, Tracer& tracer) {
  TunedSolve out;
  const double tb = tracer.now();
  CsrMatrix p;
  {
    auto sp = tracer.span("mcmc.build");
    McmcInverter inverter(a, chosen);
    p = inverter.compute();
    out.info = inverter.info();
  }
  const SparseApproximateInverse precond(std::move(p), "mcmc");
  const double ts = tracer.now();
  {
    auto sp = tracer.span("krylov.solve");
    out.mcmc = solve_gmres(a, b, precond, out.x, so);
  }
  const double te = tracer.now();
  out.build_s = ts - tb;
  out.mcmc_solve_s = te - ts;
  {
    auto sp = tracer.span("tune.verify");
    std::vector<real_t> ax;
    a.multiply(out.x, ax);
    // Written so that a NaN residual or bound fails the test.
    out.fell_back = !out.mcmc.converged() ||
                    !(norm2(subtract(b, ax)) <= bound * norm2(b));
  }
  if (out.fell_back) {
    const double tf = tracer.now();
    auto sp = tracer.span("solve.fallback");
    SolveRequest request;
    request.tolerance = so.tolerance;
    request.max_iterations = so.max_iterations;
    request.restart = so.restart;
    request.ladder.clear();
    for (const StagePolicy& rung : default_ladder()) {
      if (rung.stage != SolveStage::kMcmc) request.ladder.push_back(rung);
    }
    SolveOrchestrator orchestrator(a);
    out.fallback = orchestrator.solve(b, out.x, request);
    out.fallback_s = tracer.now() - tf;
  }
  return out;
}

struct TuneSetup {
  std::unique_ptr<SurrogateModel> model;
  std::vector<u64> training_fingerprints;
  std::vector<CsrMatrix> training_matrices;
};

TuneSetup tune_setup(Tracer& tracer) {
  TuneSetup s;
  std::vector<NamedMatrix> corpus = training_matrix_set(300);
  DatasetBuildOptions data;
  data.replicates = 3;
  SurrogateDataset dataset;
  {
    auto sp = tracer.span("pipeline.label");
    dataset = build_dataset(corpus, data);
  }
  {
    auto sp = tracer.span("surrogate.train");
    s.model = std::make_unique<SurrogateModel>(default_config());
    s.model->fit_standardizers(dataset);
    std::vector<LabeledSample> train, validation;
    dataset.split(0.2, 11, train, validation);
    TrainOptions options;
    options.epochs = 20;
    (void)train_surrogate(*s.model, dataset, train, validation, options);
  }
  for (NamedMatrix& m : corpus) {
    s.training_fingerprints.push_back(m.matrix.content_fingerprint());
    s.training_matrices.push_back(std::move(m.matrix));
  }
  return s;
}

/// One tune-then-solve of `sys`; returns its answer record.
Record tune_then_solve(const HeldOut& sys, SurrogateModel& model, u64 seed,
                       u64 system_key, Tracer& tracer) {
  const CsrMatrix& a = sys.matrix;
  Record r;
  r.str("system", sys.name);
  const double t0 = tracer.now();
  auto root = tracer.span("tune.op");

  MatrixFeatures features;
  {
    auto sp = tracer.span("features.extract");
    features = extract_features(a);
  }
  {
    auto sp = tracer.span("surrogate.embed");
    model.cache_matrix(gnn::Graph::from_csr(a), features.to_vector());
  }
  std::vector<Recommendation> batch;
  {
    auto sp = tracer.span("bo.recommend");
    batch = recommend_batch(model, KrylovMethod::kGMRES, McmcSearchSpace{},
                            RecommendOptions{});
  }
  constexpr index_t kReplicates = 2;
  constexpr real_t kYCap = 4.0;
  SolveOptions eval_solve;
  eval_solve.restart = 250;
  eval_solve.tolerance = 1e-8;
  eval_solve.max_iterations = 4000;
  std::vector<real_t> medians;
  {
    auto sp = tracer.span("pipeline.evaluate");
    PerformanceMeasurer measurer(a, eval_solve, McmcOptions{}, kYCap);
    std::vector<McmcParams> params;
    for (const Recommendation& rec : batch) params.push_back(rec.params);
    medians = measurer.measure_grouped_medians(params, KrylovMethod::kGMRES,
                                               kReplicates);
  }
  std::size_t best = 0;
  int capped = 0, ei_zero = 0;
  for (std::size_t i = 0; i < medians.size(); ++i) {
    if (medians[i] < medians[best]) best = i;
    if (medians[i] >= kYCap) ++capped;
    if (!(batch[i].ei > 0.0)) ++ei_zero;
  }
  const McmcParams chosen = batch[best].params;

  const std::vector<real_t> b = seeded_rhs(a.rows(), seed, system_key);
  const double bound = residual_bound(std::pow(10.0, features.log_condition));
  const TunedSolve ts = verified_solve(a, b, chosen, eval_solve, bound, tracer);
  double residual = 0.0;
  {
    auto sp = tracer.span("check.residual");
    residual = true_residual(a, b, ts.x);
  }
  root.close();
  const double wall = tracer.now() - t0;

  // Time to solution once x_M is known: the same verified build + solve
  // replayed, untraced, at nproc threads and at one thread.  It takes about
  // a millisecond at n = 225, so each is the median of 21 replays.
  const int threads = omp_get_max_threads();
  constexpr int kReplays = 21;
  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  const auto replay = [&](int team) {
    omp_set_num_threads(team);
    std::vector<double> times;
    for (int rep = 0; rep < kReplays; ++rep) {
      const double t1 = tracer.now();
      (void)verified_solve(a, b, chosen, eval_solve, bound, tracer);
      times.push_back(tracer.now() - t1);
    }
    omp_set_num_threads(threads);
    return e2e::median(times);
  };
  const double tts = replay(threads);
  const double tts_1t = replay(1);
  tracer.set_enabled(traced);

  const SolveStatus status =
      ts.fell_back ? ts.fallback.status : ts.mcmc.status;
  const index_t fallback_iters = ts.fell_back ? ts.fallback.iterations : 0;
  const index_t iters = ts.mcmc.iterations + fallback_iters;
  r.num("wall_s", wall).num("latency_s", wall);
  r.num("tts_s", tts).num("tts_1t_s", tts_1t).num("tts_replays", kReplays);
  r.num("mcmc_build_s", ts.build_s);
  r.num("krylov_solve_s", ts.mcmc_solve_s + ts.fallback_s);
  r.num("iters", static_cast<double>(iters));
  r.num("mcmc_iters", static_cast<double>(ts.mcmc.iterations));
  r.num("fallback_iters", static_cast<double>(fallback_iters));
  r.num("fell_back", ts.fell_back ? 1 : 0);
  r.str("rung", ts.fell_back ? stage_name(ts.fallback.served_by) : "mcmc");
  r.num("y", medians[best]).num("residual", residual);
  r.num("residual_bound", bound);
  r.num("converged", status == SolveStatus::kConverged ? 1 : 0);
  r.num("evaluations", static_cast<double>(medians.size() * kReplicates));
  r.num("candidates", static_cast<double>(medians.size()));
  r.num("capped", capped).num("ei_zero", ei_zero);
  r.num("transitions", static_cast<double>(ts.info.total_transitions));
  r.num("divergence_retirements",
        static_cast<double>(ts.info.divergence_retirements));
  r.num("alpha", chosen.alpha).num("eps", chosen.eps).num("delta",
                                                          chosen.delta);
  r.str("digest", tune_digest(chosen, medians[best], ts.mcmc.iterations,
                              r.text("rung"), iters));
  return r;
}

// ---- solve_large ------------------------------------------------------------

/// Walk-heavy corner of the search box: the most transitions per row.
constexpr McmcParams kLargeParams{0.25, 0.05, 0.05};

Record large_solve(const CsrMatrix& a, const std::vector<real_t>& b,
                   int threads, double bound, Tracer& tracer) {
  omp_set_num_threads(threads);
  Record r;
  r.str("system", "laplace_2d_256").num("threads", threads);
  const double t0 = tracer.now();
  auto root = tracer.span("large.op");
  CsrMatrix p;
  McmcBuildInfo info;
  {
    auto sp = tracer.span("mcmc.build");
    McmcInverter inverter(a, kLargeParams);
    p = inverter.compute();
    info = inverter.info();
  }
  const double nnz_p = static_cast<double>(p.nnz());
  const SparseApproximateInverse precond(std::move(p), "mcmc");
  SolveOptions so;
  so.restart = 50;
  so.tolerance = 1e-8;
  so.max_iterations = 5000;
  std::vector<real_t> x(b.size(), 0.0);
  SolveResult sr;
  const double ts = tracer.now();
  {
    auto sp = tracer.span("krylov.solve");
    sr = solve_gmres(a, b, precond, x, so);
  }
  const double te = tracer.now();
  double residual = 0.0;
  {
    auto sp = tracer.span("check.residual");
    residual = true_residual(a, b, x);
  }
  root.close();
  if (threads == 1) {
    r.num("tts_1t_s", te - t0);
  } else {
    r.num("wall_s", te - t0).num("latency_s", te - t0).num("tts_s", te - t0);
  }
  r.num("mcmc_build_s", ts - t0).num("krylov_solve_s", te - ts);
  r.num("iters", static_cast<double>(sr.iterations));
  r.num("residual", residual).num("residual_bound", bound);
  r.num("converged", sr.converged() ? 1 : 0);
  r.num("transitions", static_cast<double>(info.total_transitions));
  r.num("divergence_retirements",
        static_cast<double>(info.divergence_retirements));
  r.num("nnz_p", nnz_p);
  char digest[96];
  std::snprintf(digest, sizeof digest, "%.0f|%lld|%lld", nnz_p,
                static_cast<long long>(info.total_transitions),
                static_cast<long long>(sr.iterations));
  r.str("digest", digest);
  return r;
}

// ---- serve_warm / serve_churn ----------------------------------------------

/// Latency limit, nominal rate and rate ladder of a serving workload.
struct TrafficPlan {
  double limit_s;       ///< latency limit on the reported percentile
  double nominal_rps;   ///< offered rate of the measured phase
  double ladder_base;   ///< lowest rung of the rate ladder
  double ladder_step;   ///< ratio between rungs
  int ladder_rungs;     ///< rungs on the ladder
  double new_share;     ///< share of requests carrying a never-seen matrix
};

// The nominal rate is synthetic (no traffic trace stands behind it).  It
// keeps each of the two workers about a tenth busy, so queueing does not
// amplify run-to-run CPU noise, and gives p99 enough samples beyond it.
// The 100 ms limit is several times the slowest warm solve, so a short
// scheduling stall does not fail a ladder probe and the sustained rate
// marks where the queue starts to grow.  The ladder spans 100..1923
// requests/s.
constexpr TrafficPlan kWarmPlan{0.1, 100.0, 100.0, 1.1, 32, 0.0};
constexpr TrafficPlan kChurnPlan{0.1, 100.0, 100.0, 1.1, 32, 0.005};

/// The hot set's request families, in hot_set() order.  The serving
/// metrics are computed per family and the traced run reports each one's
/// median latency.
constexpr const char* kHotNames[] = {"a00512",  "laplace_2d_32", "adv_diff_order1",
                                     "pdd_256", "pdd_400",       "rdd_600",
                                     "rdd_800", "rdd_1000"};
/// The family of the never-seen matrices of serve_churn.
constexpr const char* kFreshName = "fresh";

struct HotSet {
  std::vector<std::string> names;
  std::vector<std::string> origins;
  std::vector<CsrMatrix> matrices;
  std::vector<index_t> baselines;  ///< unpreconditioned GMRES(50) steps
  std::vector<double> bounds;      ///< true-residual bound per matrix
};

/// The 8 tuned fingerprints: three fixed families and five seeded ones,
/// n 225..1000.  The traffic is synthetic: every request picks one of them
/// uniformly at random (no traffic trace stands behind the popularity or
/// the rate).
HotSet hot_set(u64 seed) {
  HotSet h;
  auto add = [&](CsrMatrix m, std::string origin) {
    h.names.emplace_back(kHotNames[h.matrices.size()]);
    h.matrices.push_back(std::move(m));
    h.origins.push_back(std::move(origin));
  };
  const auto s = [&](u64 k) { return mix64(seed * 0x9e3779b97f4a7c15ULL + k); };
  add(plasma_a00512(), "fixed");
  add(laplace_2d(32), "fixed");
  add(unsteady_adv_diff_order1(), "fixed");
  add(pdd_real_sparse(256, 0.1, s(1)),
      "pdd_real_sparse seed " + std::to_string(s(1)));
  add(pdd_real_sparse(400, 0.05, s(2)),
      "pdd_real_sparse seed " + std::to_string(s(2)));
  add(random_diag_dominant(600, 8, 1.5, s(3)),
      "random_diag_dominant seed " + std::to_string(s(3)));
  add(random_diag_dominant(800, 6, 1.3, s(4)),
      "random_diag_dominant seed " + std::to_string(s(4)));
  add(random_diag_dominant(1000, 6, 1.2, s(5)),
      "random_diag_dominant seed " + std::to_string(s(5)));
  return h;
}

/// A never-seen matrix for the churn workload (index k of the run).  The
/// size is fixed so the background builds cost about the same from seed to
/// seed; the entries come from the seed.
CsrMatrix fresh_matrix(u64 seed, u64 k) {
  const u64 key = mix64(seed ^ (0xc0ffeeULL + k * 0x9e3779b97f4a7c15ULL));
  return (k % 2 == 0) ? pdd_real_sparse(300, 0.08, key)
                      : random_diag_dominant(300, 6, 1.4, key);
}

/// One pre-generated request of the open loop.
struct Arrival {
  double due = 0.0;      ///< seconds after the phase starts
  int hot = -1;          ///< index into the hot set, -1 = fresh matrix
  std::shared_ptr<const CsrMatrix> fresh;
  std::vector<real_t> rhs;
};

serve::ServiceOptions service_options(bool churn, std::size_t hot_count) {
  serve::ServiceOptions o;
  o.workers = 2;
  o.builders = 1;
  o.queue_capacity = 64;
  o.tune = true;
  // Churn: the entry budget is the hot-set size, so every never-seen
  // matrix evicts a live entry.
  o.store.max_entries = churn ? hot_count : 64;
  return o;
}

serve::ServeRequest serve_request(double limit_s) {
  serve::ServeRequest q;
  q.tolerance = 1e-8;
  q.max_iterations = 5000;
  q.restart = 50;
  // Expire (a counted failure) long after the latency limit, so overload
  // probes end instead of queueing without bound.
  q.deadline_seconds = 10.0 * limit_s;
  return q;
}

/// Unpreconditioned GMRES(50) steps of one system (the eq. (4) denominator;
/// a non-converged run counts its iteration cap, as PerformanceMeasurer
/// does).
index_t baseline_steps(const CsrMatrix& a) {
  SolveOptions so;
  so.restart = 50;
  so.tolerance = 1e-8;
  so.max_iterations = 5000;
  PerformanceMeasurer m(a, so);
  return m.baseline_steps(KrylovMethod::kGMRES);
}

/// Drive one open-loop phase: pre-generate Poisson arrivals at `rps` for
/// `duration` seconds (the count fixed at rps * duration, the times uniform
/// order statistics: a Poisson process conditioned on its count), submit
/// each at its due time from this thread, then wait for every answer and
/// check it.  Returns one record per request.  The number of never-seen
/// matrices is fixed at new_share * count (their positions are drawn): each
/// one costs a background build and an eviction, and peak memory grows with
/// their number (about 3 MB each), so a binomial count would make
/// peak_rss_mb a function of the seed.
std::vector<Record> open_loop(serve::SolveService& service, const HotSet& hot,
                              const TrafficPlan& plan, double rps,
                              double duration, u64 seed, u64 phase_key,
                              u64& fresh_counter, const std::string& phase,
                              Tracer& tracer, bool alternate_trace) {
  Xoshiro256 rng = make_stream(seed, phase_key, 0x6f70656eULL);
  std::vector<double> due(static_cast<std::size_t>(std::lround(rps * duration)));
  for (double& t : due) t = uniform01(rng) * duration;
  std::sort(due.begin(), due.end());
  std::vector<std::size_t> order(due.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto fresh_count = std::min<std::size_t>(
      order.size(),
      static_cast<std::size_t>(std::lround(plan.new_share * due.size())));
  std::vector<char> is_fresh(due.size(), 0);
  for (std::size_t i = 0; i < fresh_count; ++i) {
    std::swap(order[i], order[i + uniform_index(rng, order.size() - i)]);
    is_fresh[order[i]] = 1;
  }
  std::vector<Arrival> arrivals;
  for (const double t : due) {
    Arrival a;
    a.due = t;
    if (is_fresh[arrivals.size()] != 0) {
      a.fresh = std::make_shared<const CsrMatrix>(
          fresh_matrix(seed, fresh_counter++));
    } else {
      a.hot = static_cast<int>(uniform_index(rng, hot.matrices.size()));
    }
    const CsrMatrix& m = a.hot >= 0 ? hot.matrices[a.hot] : *a.fresh;
    a.rhs = seeded_rhs(m.rows(), seed,
                       phase_key * 1000003ULL + arrivals.size());
    arrivals.push_back(std::move(a));
  }

  const serve::ServeRequest request = serve_request(plan.limit_s);
  std::vector<serve::ServeHandle> handles(arrivals.size());
  std::vector<double> submit_at(arrivals.size()), late(arrivals.size());
  const auto start = Tracer::clock::now();
  const double start_s = tracer.now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Tracer::clock::duration>(
                    std::chrono::duration<double>(arrivals[i].due)));
    const bool traced = !alternate_trace || i % 2 == 0;
    tracer.set_enabled(traced && alternate_trace);
    tracer.set_op(static_cast<long>(i));
    const CsrMatrix& m =
        arrivals[i].hot >= 0 ? hot.matrices[arrivals[i].hot] : *arrivals[i].fresh;
    submit_at[i] = tracer.now() - start_s;
    late[i] = submit_at[i] - arrivals[i].due;
    auto sp = tracer.span("serve.submit");
    handles[i] = service.submit(m, arrivals[i].rhs, request);
  }
  tracer.set_enabled(false);

  std::vector<Record> out;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const CsrMatrix& m = a.hot >= 0 ? hot.matrices[a.hot] : *a.fresh;
    Record r;
    r.str("phase", phase).str("system",
                              a.hot >= 0 ? hot.names[a.hot] : kFreshName);
    r.num("rate", rps).num("due_s", a.due).num("gen_late_s", late[i]);
    r.num("traced", alternate_trace && i % 2 == 0 ? 1 : 0);
    if (!handles[i]) {
      // A refusal misses every limit; its latency reads as the deadline.
      r.str("fail", "refused").num("ok", 0).num("ran", 0);
      r.num("latency_s", request.deadline_seconds)
          .num("wall_s", request.deadline_seconds);
      out.push_back(std::move(r));
      continue;
    }
    const serve::ServeResult& res = handles[i].wait_ref();
    const double latency = late[i] + res.total_seconds;
    r.num("latency_s", latency).num("wall_s", latency);
    r.num("ran", res.solve_ran ? 1 : 0);
    r.num("converged", res.report.converged() ? 1 : 0);
    r.num("queue_s", res.queue_seconds);
    r.num("tts_s", res.report.total_seconds).num("tts_1t_s",
                                                 res.report.total_seconds);
    r.num("warm", res.warm ? 1 : 0).num("fresh", a.hot < 0 ? 1 : 0);
    r.str("rung", stage_name(res.report.served_by));
    r.num("degraded", res.report.degraded ? 1 : 0);
    r.num("iters", static_cast<double>(res.report.iterations));
    if (a.hot >= 0) {
      r.num("y", static_cast<double>(res.report.iterations) /
                     static_cast<double>(hot.baselines[a.hot]));
    }
    double build_s = 0.0, solve_s = 0.0;
    for (const StageAttempt& at : res.report.attempts) {
      build_s += at.build_seconds;
      solve_s += at.solve_seconds;
    }
    r.num("attempts", static_cast<double>(res.report.attempts.size()));
    r.num("build_s", build_s).num("krylov_solve_s", solve_s);
    r.str("fingerprint", hex64(res.fingerprint));
    r.num("complete_s", submit_at[i] + res.total_seconds);
    std::string fail;
    if (!res.solve_ran) {
      fail = to_string(res.report.status);
    } else if (!res.report.converged()) {
      fail = "not_converged";
    } else {
      const double resid = true_residual(m, a.rhs, res.x);
      const double bound = a.hot >= 0
                               ? hot.bounds[a.hot]
                               : residual_bound(estimate_condition_number(m, 0));
      r.num("residual", resid).num("residual_bound", bound);
      if (!(resid <= bound)) fail = "residual";
    }
    r.num("ok", fail.empty() ? 1 : 0);
    if (!fail.empty()) r.str("fail", fail);
    out.push_back(std::move(r));
  }
  return out;
}

// ---- workload runners -------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = "e2ebench_raw.json";
  std::string digests;  ///< directory of per-(workload, seed, threads) digests
  std::string commit = "unknown";
  std::string code = "unknown";  ///< content hash of the built sources
};

/// Compare every answer's digest with the first answer of the same system in
/// this run and with the digest file of an earlier run of the same
/// (workload, seed, thread count) on the same sources; a mismatch fails the answer (and is
/// counted apart, since the answer may already have failed another check).
/// Writes the file when it does not exist yet.  Returns the mismatches.
int check_digests(std::vector<Record>& answers, const std::string& path) {
  std::map<std::string, std::string> known;
  if (!path.empty()) {
    std::ifstream in(path);
    std::string system, digest;
    while (in >> system >> digest) known.emplace(system, digest);
  }
  const bool had_file = !known.empty();
  int mismatches = 0;
  for (Record& r : answers) {
    const std::string d = r.text("digest");
    if (d.empty()) continue;
    const std::string key =
        r.text("system") + "@t" + std::to_string(static_cast<int>(
                                      r.get("threads", omp_get_max_threads())));
    auto [it, fresh] = known.emplace(key, d);
    if (!fresh && it->second != d) {
      ++mismatches;
      r.num("digest_mismatch", 1);
      if (r.get("ok") != 0) r.num("ok", 0).str("fail", "digest");
    }
  }
  if (!had_file && !path.empty()) {
    std::ofstream f(path);
    for (const auto& [k, v] : known) f << k << ' ' << v << '\n';
  }
  return mismatches;
}

/// An answer the library produced and reported converged (whether or not
/// it then passed the benchmark's residual and digest checks).
bool served(const Record& r) {
  return r.get("ran", 1) != 0 && r.get("converged", 1) != 0 &&
         r.text("fail") != "not_converged";
}

/// Mark an answer ok unless it failed to converge or its true residual is
/// over the bound.
void judge(Record& r) {
  std::string fail;
  if (r.get("converged") == 0) {
    fail = "not_converged";
  } else if (!(r.get("residual", HUGE_VAL) <= r.get("residual_bound"))) {
    fail = "residual";
  }
  r.num("ok", fail.empty() ? 1 : 0);
  if (!fail.empty()) r.str("fail", fail);
}

RunOutput run_tune_unseen(const Args& args, Tracer& tracer) {
  RunOutput out;
  tracer.set_enabled(args.trace);
  // Set-up (label + train, ~5 s) runs three times, each under an op id of
  // its own, and the median is reported; the last model is kept.
  TuneSetup setup;
  for (int rep = 0; rep < 3; ++rep) {
    tracer.set_op(-1 - rep);
    const double t0 = tracer.now();
    setup = tune_setup(tracer);
    out.setup_s.push_back(tracer.now() - t0);
  }
  const std::vector<HeldOut> systems = held_out_systems(args.seed, 2);

  // Held-out hygiene: no held-out matrix may be in the training corpus.
  bool leak = false;
  for (const HeldOut& h : systems) {
    out.systems.push_back(system_record(h.name, h.matrix, h.origin));
    for (std::size_t t = 0; t < setup.training_matrices.size(); ++t) {
      if (setup.training_fingerprints[t] == h.matrix.content_fingerprint() &&
          setup.training_matrices[t].same_content(h.matrix)) {
        leak = true;
      }
    }
  }
  out.meta.num("held_out_leak", leak ? 1 : 0);
  out.meta.num("working_set_bytes", csr_bytes(systems[0].matrix));

  // Timed loop: the paper's matrix, with a seed-independent rhs, until the
  // time is up.  The tuning outcome is very sensitive to the matrix (best_y
  // 0.2 .. 2.2 and 14 .. 300 final iterations across variants), so timing
  // seeded systems would make the run's medians a function of the seed.
  // Each seeded variant then runs once, untimed: its answer goes through
  // every check and counts in attempted/failed.  A repeat of the paper's
  // matrix re-checks its digest.  Traced runs solve each system twice in a
  // row, once traced and once not, alternating which goes first: the pair
  // gives the tracing overhead.
  long op = 0;
  const auto run_system = [&](std::size_t index, bool timed, std::size_t k) {
    for (int rep = 0; rep < (args.trace ? 2 : 1); ++rep) {
      const bool traced = args.trace && ((rep == 0) == (k % 2 == 0));
      tracer.set_enabled(traced);
      tracer.set_op(op);
      Record r = tune_then_solve(systems[index], *setup.model,
                                 index == 0 ? 0 : args.seed, index, tracer);
      r.num("op", static_cast<double>(op++)).num("traced", traced ? 1 : 0);
      r.num("timed", timed ? 1 : 0);
      judge(r);
      if (leak) r.num("ok", 0).str("fail", "held_out_leak");
      out.answers.push_back(std::move(r));
    }
  };
  const double m0 = tracer.now();
  for (std::size_t k = 0; tracer.now() - m0 < args.seconds; ++k) {
    run_system(0, true, k);
  }
  out.measured_s = tracer.now() - m0;
  for (std::size_t v = 1; v < systems.size(); ++v) run_system(v, false, v);
  tracer.set_enabled(false);
  if (args.trace) {
    for (const HeldOut& h : systems) {
      out.probes.push_back(spmv_probe(h.name, h.matrix, tracer));
    }
  }
  return out;
}

RunOutput run_solve_large(const Args& args, Tracer& tracer) {
  RunOutput out;
  const int nproc = omp_get_max_threads();
  // Set-up: generate the system, run the unpreconditioned baseline (the
  // eq. (4) denominator) and estimate kappa(A) for the residual bound.
  const double t0 = tracer.now();
  const CsrMatrix a = laplace_2d(256);
  // A uniform source plus 10% seeded noise: GMRES iteration counts on a
  // fully random rhs spread by +-6% from seed to seed, which would show in
  // every timing of the workload.
  std::vector<real_t> b = seeded_rhs(a.rows(), args.seed, 0);
  for (real_t& v : b) v = 1.0 + 0.1 * v;
  const index_t base = baseline_steps(a);
  const double bound = residual_bound(estimate_condition_number(a, 0));
  out.setup_s.push_back(tracer.now() - t0);
  out.meta.num("baseline_steps", static_cast<double>(base));
  out.systems.push_back(system_record("laplace_2d_256", a,
                                     "fixed; rhs 1 + 0.1 N(0,1) from the seed"));
  // GMRES basis (restart + 1 vectors) + A + P (<= 2 nnz(A)) + vectors.
  out.meta.num("working_set_bytes",
               3.0 * csr_bytes(a) + 51.0 * sizeof(real_t) * a.rows());

  const double m0 = tracer.now();
  long op = 0;
  // Two solves at nproc threads per solve at one thread, whole cycles until
  // the time is up.  Traced runs alternate traced and untraced solves.
  for (int k = 0;; ++k) {
    const int threads = (k % 3 == 2) ? 1 : nproc;
    const bool traced = args.trace && k % 2 == 0;
    tracer.set_enabled(traced);
    tracer.set_op(op);
    Record r = large_solve(a, b, threads, bound, tracer);
    r.num("op", static_cast<double>(op++)).num("traced", traced ? 1 : 0);
    r.num("y", r.get("iters") / static_cast<double>(base));
    judge(r);
    out.answers.push_back(std::move(r));
    if (k % 3 == 2 && tracer.now() - m0 >= args.seconds) break;
  }
  omp_set_num_threads(nproc);
  tracer.set_enabled(false);
  out.measured_s = tracer.now() - m0;
  if (args.trace) out.probes.push_back(spmv_probe("laplace_2d_256", a, tracer));
  return out;
}

/// Counter deltas of the service between two snapshots.
Record service_delta(const serve::ServiceStats& a, const serve::ServiceStats& b) {
  Record r;
  auto d = [](u64 x, u64 y) { return static_cast<double>(y - x); };
  r.num("store_hits", d(a.store.hits, b.store.hits));
  r.num("store_misses", d(a.store.misses, b.store.misses));
  r.num("evictions", d(a.store.evictions, b.store.evictions));
  r.num("swaps", d(a.store.swaps, b.store.swaps));
  r.num("builds_started", d(a.builds_started, b.builds_started));
  r.num("builds_completed", d(a.builds_completed, b.builds_completed));
  r.num("builds_failed", d(a.builds_failed, b.builds_failed));
  r.num("coalesced_builds", d(a.coalesced_builds, b.coalesced_builds));
  r.num("shed", d(a.shed, b.shed));
  r.num("expired", d(a.expired, b.expired));
  r.num("refused", d(a.rejected, b.rejected));
  r.num("warm_requests", d(a.warm_requests, b.warm_requests));
  r.num("cold_requests", d(a.cold_requests, b.cold_requests));
  return r;
}

/// Does one ladder probe meet the latency limit with no growing backlog?
/// Every request must be served (not refused, shed or expired) and converge,
/// the supported tail (up to p99) must be within the limit, and so must the
/// median of the last tenth of the arrivals (a queue that grows during the
/// probe shows there first).  Answers that fail only the residual check
/// count in `failed`, not here: the ladder measures capacity.
bool probe_passes(const std::vector<Record>& rs, double limit_s, Record& p) {
  std::vector<double> lat;
  long failures = 0;
  for (const Record& r : rs) {
    if (served(r)) {
      lat.push_back(r.get("latency_s"));
    } else {
      ++failures;
    }
  }
  const std::vector<double> all = e2e::Outcomes::with_misses(lat, failures);
  const e2e::Tail tail = e2e::supported_tail(all);
  std::vector<double> last;
  for (std::size_t i = rs.size() - rs.size() / 10; i < rs.size(); ++i) {
    last.push_back(served(rs[i]) ? rs[i].get("latency_s") : HUGE_VAL);
  }
  const bool pass = !rs.empty() && failures == 0 && tail.value <= limit_s &&
                    e2e::median(last) <= limit_s;
  p.num("requests", static_cast<double>(rs.size()));
  p.num("failures", static_cast<double>(failures));
  p.num("tail_q", tail.q).num("tail_ms", tail.value * 1e3);
  p.num("pass", pass ? 1 : 0);
  return pass;
}

RunOutput run_serve(const Args& args, bool churn, Tracer& tracer) {
  RunOutput out;
  const TrafficPlan plan = churn ? kChurnPlan : kWarmPlan;
  HotSet hot = hot_set(args.seed);
  double ws = 0.0;
  for (std::size_t i = 0; i < hot.matrices.size(); ++i) {
    out.systems.push_back(
        system_record(hot.names[i], hot.matrices[i], hot.origins[i]));
    hot.baselines.push_back(baseline_steps(hot.matrices[i]));
    hot.bounds.push_back(
        residual_bound(estimate_condition_number(hot.matrices[i], 0)));
    ws += 3.0 * csr_bytes(hot.matrices[i]);
  }
  out.meta.num("working_set_bytes", ws);
  const serve::ServiceOptions options = service_options(churn, hot.matrices.size());
  out.meta.num("workers", static_cast<double>(options.workers));
  out.meta.num("builders", static_cast<double>(options.builders));
  out.meta.num("store_max_entries", static_cast<double>(options.store.max_entries));
  out.meta.num("latency_limit_ms", plan.limit_s * 1e3);
  out.meta.num("nominal_rps", plan.nominal_rps);
  out.meta.num("new_share", plan.new_share);
  for (const std::string& name : hot.names) {
    out.mix.emplace_back(name, (1.0 - plan.new_share) /
                                   static_cast<double>(hot.names.size()));
  }
  if (plan.new_share > 0) out.mix.emplace_back(kFreshName, plan.new_share);
  for (const auto& [name, share] : out.mix) out.meta.num("mix." + name, share);

  // Set-up: start the service, send one request per hot fingerprint and
  // drain, so every fingerprint is tuned (TPE) and swapped in.  It takes
  // about a second, so it runs five times (the last service is kept) and
  // the median is reported.
  std::unique_ptr<serve::SolveService> owned;
  for (int rep = 0; rep < 5; ++rep) {
    owned.reset();
    const double t0 = tracer.now();
    owned = std::make_unique<serve::SolveService>(options);
    for (std::size_t i = 0; i < hot.matrices.size(); ++i) {
      (void)owned
          ->submit(hot.matrices[i],
                   seeded_rhs(hot.matrices[i].rows(), args.seed, 0xfeed + i))
          .wait();
    }
    owned->drain();
    out.setup_s.push_back(tracer.now() - t0);
  }
  serve::SolveService& service = *owned;

  // Measured phase at the nominal rate: the whole run, or 70% of it in a
  // traced run, which also climbs the rate ladder.
  u64 fresh_counter = 0;
  const serve::ServiceStats before = service.stats();
  std::vector<Record> nominal = open_loop(
      service, hot, plan, plan.nominal_rps,
      (args.trace ? 0.7 : 1.0) * args.seconds, args.seed, 1, fresh_counter,
      "nominal", tracer, args.trace);
  const serve::ServiceStats after = service.stats();
  out.counters = service_delta(before, after);
  for (Record& r : nominal) {
    out.measured_s = std::max(out.measured_s, r.get("complete_s"));
    out.answers.push_back(std::move(r));
  }
  service.drain();
  if (!args.trace) {
    service.shutdown();
    return out;
  }

  // Rate ladder: binary search for the highest rung that passes (six
  // probes for 32 rungs).  Each probe gets 5% of the run; the service
  // drains between probes.
  int lo = -1, hi = plan.ladder_rungs;
  u64 key = 100;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = plan.ladder_base * std::pow(plan.ladder_step, mid);
    const std::vector<Record> rs =
        open_loop(service, hot, plan, rate, 0.05 * args.seconds,
                  args.seed, key++, fresh_counter, "ladder", tracer, false);
    service.drain();
    Record p;
    p.str("kind", "ladder").num("rung", mid).num("rate", rate);
    if (probe_passes(rs, plan.limit_s, p)) {
      lo = mid;
    } else {
      hi = mid;
    }
    out.probes.push_back(std::move(p));
  }
  out.meta.num("sustained_rung", lo);
  out.meta.num("sustained_rps",
               lo >= 0 ? plan.ladder_base * std::pow(plan.ladder_step, lo)
                       : 0.0);
  if (args.trace) {
    for (std::size_t i = 0; i < hot.matrices.size(); ++i) {
      out.probes.push_back(spmv_probe(hot.names[i], hot.matrices[i], tracer));
    }
  }
  service.shutdown();
  return out;
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every value of `key` over the answers that have one (answers that failed
/// a check included: their timings and counts are still measurements).
std::vector<double> column(const std::vector<Record>& rs, const std::string& key) {
  std::vector<double> v;
  for (const Record& r : rs) {
    if (r.has(key)) v.push_back(r.get(key));
  }
  return v;
}

/// The counted answers: every closed-loop answer, and the serving
/// workloads' nominal-phase requests (ladder probes only decide
/// sustained_rps).
std::vector<Record> counted(const RunOutput& out) {
  std::vector<Record> rs;
  for (const Record& r : out.answers) {
    if (r.text("phase") != "ladder") rs.push_back(r);
  }
  return rs;
}

/// The counted answers the end-to-end timings cover (tune_unseen's seeded
/// variants are checked and counted but not timed).
std::vector<Record> timed(const RunOutput& out) {
  std::vector<Record> rs;
  for (const Record& r : counted(out)) {
    if (r.get("timed", 1) != 0) rs.push_back(r);
  }
  return rs;
}

e2e::Outcomes outcomes(const std::vector<Record>& rs) {
  e2e::Outcomes o;
  for (const Record& r : rs) {
    if (r.get("ok") != 0) {
      o.ok();
    } else {
      o.fail(r.text("fail"));
    }
  }
  return o;
}

/// The end-to-end metrics.  Timings cover every counted answer, including
/// those that then failed a check (those are counted in `failed`); an
/// answer that was refused, shed or expired carries the time it took to
/// reach that state, which is at or past its deadline.
/// Open loop: converged answers per second of the nominal phase (from its
/// start to the last completion).  Closed loop: the rate of one client, the
/// converged share of the answers at nproc threads over their median time
/// (a median, so one answer stalled by another tenant does not move it).
double goodput(const RunOutput& out, bool serving) {
  double answered = 0.0, attempted = 0.0;
  for (const Record& r : timed(out)) {
    if (!serving && !r.has("wall_s")) continue;
    answered += served(r) ? 1.0 : 0.0;
    attempted += 1.0;
  }
  if (serving) return answered / out.measured_s;
  return answered / attempted / e2e::median(column(timed(out), "wall_s"));
}

/// Serving statistic of `key`: the median of each request family (a hot
/// fingerprint, or the never-seen matrices), combined as the geometric mean
/// weighted by the family's share of the traffic.  A pooled median sits in
/// whichever family's cluster of service times holds the middle request,
/// jumps between clusters from run to run, and does not move when another
/// family gets slower; the weighted geometric mean moves by f^w when a
/// family with share w gets f times slower.  Families without a value of
/// `key` (never-seen matrices have no y) are left out.
double mix_median(const RunOutput& out, const std::vector<Record>& rs,
                  const std::string& key) {
  std::vector<double> values, weights;
  for (const auto& [family, share] : out.mix) {
    std::vector<double> v;
    for (const Record& r : rs) {
      if (r.has(key) && r.text("system") == family) v.push_back(r.get(key));
    }
    if (v.empty()) continue;
    values.push_back(e2e::median(v));
    weights.push_back(share);
  }
  return e2e::weighted_geomean(values, weights);
}

/// The end-to-end metrics (every one of them steady run to run on a shared
/// 4-core host; the latency tail and the sustained rate are not, and are
/// reported by the traced run).  Closed loop: medians over the answers;
/// serving: per-family medians combined by mix_median().
std::vector<Metric> end_to_end(const RunOutput& out, bool serving) {
  const std::vector<Record> rs = timed(out);
  const auto med = [&](const char* key) {
    return serving ? mix_median(out, rs, key) : e2e::median(column(rs, key));
  };
  // Replayed times to solution (tune_unseen: each answer's median of its
  // millisecond-long replays) are averaged over the answers.  On a shared
  // host a thread's speed switches between levels ~40% apart from second to
  // second, so a median over the run's ~10 answers jumps between the levels
  // from run to run; the mean moves with the share of time at each level.
  const auto tts = [&](const char* key) {
    return !rs.empty() && rs.front().has("tts_replays")
               ? e2e::mean(column(rs, key))
               : med(key);
  };
  std::vector<Metric> m;
  m.push_back({"setup_s", e2e::median(out.setup_s), "s"});
  m.push_back({"tune_s", med("wall_s"), "s"});
  m.push_back({"best_y", med("y"), "ratio"});
  m.push_back({"solve_iters", med("iters"), "count"});
  m.push_back({"time_to_solution_s", tts("tts_s"), "s"});
  m.push_back({"time_to_solution_1t_s", tts("tts_1t_s"), "s"});
  m.push_back({"latency_p50_ms", med("latency_s") * 1e3, "ms"});
  m.push_back({"goodput_rps", goodput(out, serving), "1/s"});
  m.push_back({"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB"});
  return m;
}

/// Per-op sum of the self time of every span called `name`, median over
/// the ops that have one (set-up spans carry negative op ids, one per
/// set-up).
double span_self_median(const Tracer& tracer, const std::vector<double>& self,
                        const char* name) {
  std::map<long, double> per_op;
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == name) per_op[spans[i].op] += self[i];
  }
  std::vector<double> v;
  for (const auto& [op, s] : per_op) v.push_back(s);
  return e2e::median(v);
}

std::vector<Metric> per_layer(const RunOutput& out, const Tracer& tracer,
                              bool serving) {
  const std::vector<Record> rs = counted(out);
  const e2e::Outcomes o = outcomes(rs);
  const std::vector<double> self = e2e::self_times(tracer.spans());
  const auto span = [&](const char* n) {
    return span_self_median(tracer, self, n);
  };
  std::vector<Record> traced, untraced, nproc_answers;
  for (const Record& r : timed(out)) {
    (r.get("traced") != 0 ? traced : untraced).push_back(r);
  }
  for (const Record& r : rs) {
    if (r.get("threads", 0) != 1) nproc_answers.push_back(r);
  }
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  std::vector<Metric> m;
  m.push_back({"fail_frac", o.fail_frac(), "ratio"});
  m.push_back({"latency_p99_ms",
               e2e::supported_tail(column(rs, "latency_s")).value * 1e3, "ms"});
  m.push_back({"sustained_rps",
               serving ? out.meta.get("sustained_rps") : goodput(out, serving),
               "1/s"});
  // Tracing overhead: traced vs untraced answers of the same run.
  const double wall_u = e2e::median(column(untraced, "wall_s"));
  const double wall_t = e2e::median(column(traced, "wall_s"));
  m.push_back({"trace.overhead_frac", frac(wall_t - wall_u, wall_u), "ratio"});
  // Layer self times along tune_unseen's blocking steps vs its untraced
  // tune_s (0 on the other workloads, which have no such chain).  The root
  // span tune.op is left out: its self time is the part no layer covers, so
  // the gap is the share of tune_s that no layer span accounts for (plus
  // the traced/untraced difference).
  const char* chain[] = {"features.extract", "surrogate.embed", "bo.recommend",
                         "pipeline.evaluate", "mcmc.build", "krylov.solve",
                         "tune.verify", "solve.fallback", "check.residual"};
  double chain_sum = 0.0;
  for (const char* n : chain) chain_sum += span(n);
  const bool tuning = out.meta.has("held_out_leak");
  m.push_back({"trace.self_sum_gap_frac",
               tuning ? frac(std::fabs(chain_sum - wall_u), wall_u) : 0.0,
               "ratio"});
  m.push_back({"features.extract_s", span("features.extract"), "s"});
  m.push_back({"surrogate.embed_s", span("surrogate.embed"), "s"});
  m.push_back({"bo.recommend_s", span("bo.recommend"), "s"});
  m.push_back({"pipeline.label_s", span("pipeline.label"), "s"});
  m.push_back({"surrogate.train_s", span("surrogate.train"), "s"});
  m.push_back({"pipeline.evaluate_s", span("pipeline.evaluate"), "s"});
  m.push_back({"pipeline.evaluations",
               e2e::median(column(rs, "evaluations")), "count"});
  m.push_back({"pipeline.capped_frac",
               frac(sum(column(rs, "capped")), sum(column(rs, "candidates"))),
               "ratio"});
  // Tuned MCMC answers that reported convergence but failed the caller's
  // true-residual test (or did not converge) and were solved again down the
  // classical rungs.
  m.push_back({"tune.fallback_frac",
               frac(sum(column(rs, "fell_back")),
                    static_cast<double>(column(rs, "fell_back").size())),
               "ratio"});
  m.push_back({"bo.ei_zero_frac",
               frac(sum(column(rs, "ei_zero")), sum(column(rs, "candidates"))),
               "ratio"});
  const std::vector<double> build_s = column(nproc_answers, "mcmc_build_s");
  const std::vector<double> trans = column(nproc_answers, "transitions");
  std::vector<double> tps;
  for (std::size_t i = 0; i < std::min(build_s.size(), trans.size()); ++i) {
    if (build_s[i] > 0) tps.push_back(trans[i] / build_s[i]);
  }
  m.push_back({"mcmc.build_s", e2e::median(build_s), "s"});
  m.push_back({"mcmc.transitions", e2e::median(trans), "count"});
  m.push_back({"mcmc.transitions_per_s", e2e::median(tps), "1/s"});
  m.push_back({"mcmc.divergence_retirements",
               sum(column(rs, "divergence_retirements")), "count"});
  const std::vector<double> ks = column(nproc_answers, "krylov_solve_s");
  const std::vector<double> it = column(nproc_answers, "iters");
  std::vector<double> spi;
  for (std::size_t i = 0; i < std::min(ks.size(), it.size()); ++i) {
    if (it[i] > 0) spi.push_back(ks[i] / it[i]);
  }
  m.push_back({"krylov.solve_s", e2e::median(ks), "s"});
  m.push_back({"krylov.iterations", e2e::median(it), "count"});
  m.push_back({"krylov.s_per_iter", e2e::median(spi), "s"});
  // SpMV kernel probe: bytes computed from array sizes.
  std::vector<double> spmv_s;
  double bytes = 0.0, flops = 0.0, secs = 0.0;
  for (const Record& p : out.probes) {
    if (p.text("kind") != "spmv") continue;
    spmv_s.push_back(p.get("spmv_s"));
    bytes += p.get("bytes");
    flops += p.get("flops");
    secs += p.get("spmv_s");
  }
  m.push_back({"sparse.spmv_s", e2e::median(spmv_s), "s"});
  m.push_back({"sparse.spmv_gbps_computed", frac(bytes, secs) / 1e9, "GB/s"});
  m.push_back({"sparse.spmv_flops_per_byte", frac(flops, bytes), "flop/B"});
  // Served requests: the rung that answered, split iterations by rung.
  double answered = 0, by_mcmc = 0, by_ilu0 = 0, degraded = 0, retries = 0;
  std::vector<double> iters_warm, iters_cold;
  for (const Record& r : rs) {
    if (!r.has("attempts") || !served(r)) continue;
    ++answered;
    by_mcmc += r.text("rung") == "mcmc";
    by_ilu0 += r.text("rung") == "ilu0";
    degraded += r.get("degraded");
    retries += r.get("attempts") - 1;
    (r.get("warm") != 0 ? iters_warm : iters_cold).push_back(r.get("iters"));
  }
  m.push_back({"solve.served_by_mcmc_frac", frac(by_mcmc, answered), "ratio"});
  m.push_back({"solve.served_by_ilu0_frac", frac(by_ilu0, answered), "ratio"});
  m.push_back({"solve.degraded_frac", frac(degraded, answered), "ratio"});
  m.push_back({"solve.retries", retries, "count"});
  m.push_back({"solve.iters_warm", e2e::median(iters_warm), "count"});
  m.push_back({"solve.iters_cold", e2e::median(iters_cold), "count"});
  m.push_back({"solve.build_s", e2e::median(column(rs, "build_s")), "s"});
  // Serving layer, nominal phase.
  const std::vector<double> qw = column(rs, "queue_s");
  m.push_back({"serve.queue_wait_p50_ms", e2e::median(qw) * 1e3, "ms"});
  m.push_back({"serve.queue_wait_p99_ms",
               e2e::supported_tail(qw).value * 1e3, "ms"});
  const Record& c = out.counters;
  m.push_back({"serve.hit_frac",
               frac(c.get("store_hits"),
                    c.get("store_hits") + c.get("store_misses")),
               "ratio"});
  // Time to warm: from a cold answer's submit to the first later warm
  // answer of the same fingerprint (an upper bound on miss -> swap_in).
  std::map<std::string, double> cold_since;
  std::vector<double> ttw;
  for (const Record& r : rs) {
    if (!r.has("warm") || r.get("fresh") != 0) continue;
    const std::string fp = r.text("fingerprint");
    const double submit = r.get("due_s") + r.get("gen_late_s");
    if (r.get("warm") == 0) {
      cold_since.emplace(fp, submit);
    } else if (auto itc = cold_since.find(fp); itc != cold_since.end()) {
      ttw.push_back(submit - itc->second);
      cold_since.erase(itc);
    }
  }
  m.push_back({"serve.time_to_warm_s", e2e::median(ttw), "s"});
  m.push_back({"serve.store_misses", c.get("store_misses"), "count"});
  m.push_back({"serve.evictions", c.get("evictions"), "count"});
  m.push_back({"serve.builds_completed", c.get("builds_completed"), "count"});
  m.push_back({"serve.coalesced_builds", c.get("coalesced_builds"), "count"});
  m.push_back({"serve.builds_failed", c.get("builds_failed"), "count"});
  m.push_back({"serve.shed", c.get("shed"), "count"});
  m.push_back({"serve.expired", c.get("expired"), "count"});
  m.push_back({"serve.refused", c.get("refused"), "count"});
  m.push_back({"serve.gen_late_ms",
               e2e::supported_tail(column(rs, "gen_late_s")).value * 1e3,
               "ms"});
  // Median latency of each hot family (0 on the closed-loop workloads).
  for (const char* family : kHotNames) {
    std::vector<double> v;
    for (const Record& r : rs) {
      if (r.text("system") == family) v.push_back(r.get("latency_s"));
    }
    m.push_back({std::string("serve.latency_p50_ms.") + family,
                 e2e::median(v) * 1e3, "ms"});
  }
  return m;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--digests") {
      a.digests = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--code") {
      a.code = v;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Tracer tracer;
    RunOutput out;
    const bool serving =
        args.workload == "serve_warm" || args.workload == "serve_churn";
    if (args.workload == "tune_unseen") {
      out = run_tune_unseen(args, tracer);
    } else if (args.workload == "solve_large") {
      out = run_solve_large(args, tracer);
    } else if (serving) {
      out = run_serve(args, args.workload == "serve_churn", tracer);
    } else {
      throw std::runtime_error("unknown workload '" + args.workload + "'");
    }
    if (!serving && !args.digests.empty()) {
      // Keyed by the sources too: changed code may change a digest on
      // purpose, and then starts a file of its own.
      const int mismatches = check_digests(
          out.answers, args.digests + "/" + args.workload + "_s" +
                           std::to_string(args.seed) + "_t" +
                           std::to_string(omp_get_max_threads()) + "_" +
                           args.code + ".txt");
      out.meta.num("digest_mismatches", mismatches);
    }

    Record& meta = out.meta;
    meta.str("workload", args.workload).num("seed", static_cast<double>(args.seed));
    meta.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    meta.num("omp_team", omp_get_max_threads());
    if (!meta.has("workers")) meta.num("workers", 0).num("builders", 0);
    meta.num("llc_bytes", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
    meta.str("compiler", __VERSION__).str("commit", args.commit);
    meta.str("code", args.code);
    meta.num("solve_tolerance", kSolveTolerance);
    meta.num("trace", args.trace ? 1 : 0);

    const std::vector<Record> rs = counted(out);
    const e2e::Outcomes o = outcomes(rs);
    const std::vector<Metric> metrics =
        args.trace ? per_layer(out, tracer, serving) : end_to_end(out, serving);
    for (const auto& [cause, n] : o.causes()) meta.num("fail." + cause, n);
    write_output(args.out, out, tracer);

    std::printf("meta %s\n", to_json(meta).c_str());
    std::string line = "{\"correct\": ";
    line += o.failed() == 0 && o.attempted() > 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(o.attempted());
    line += ", \"failed\": " + std::to_string(o.failed());
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
              json_number(metrics[i].value) + ", \"unit\": \"" +
              metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
