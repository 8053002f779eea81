#include <cmath>

#include "core/error.hpp"
#include "krylov/solver.hpp"
#include "sparse/vector_ops.hpp"

namespace mcmi {

SolveResult solve_cg(const CsrMatrix& a, const std::vector<real_t>& b,
                     const Preconditioner& p, std::vector<real_t>& x,
                     const SolveOptions& opt) {
  const index_t n = a.rows();
  MCMI_CHECK(a.cols() == n, "CG needs a square matrix");
  MCMI_CHECK(static_cast<index_t>(b.size()) == n, "rhs size mismatch");

  SolveResult result;
  x.assign(static_cast<std::size_t>(n), 0.0);

  // Preconditioned CG: r = b - A x, z = P r, with rho = <r, z> and ||z||
  // taken from the apply pass itself.
  std::vector<real_t> r = b;
  std::vector<real_t> z;
  real_t rho, norm_pb_sq;
  p.apply_dot_norm2(r, z, r, rho, norm_pb_sq);
  const real_t norm_pb = std::sqrt(norm_pb_sq);
  if (norm_pb == 0.0) {
    result.status = SolveStatus::kConverged;
    return result;
  }
  if (!std::isfinite(norm_pb)) {
    result.status = SolveStatus::kNonFinite;
    return result;
  }
  std::vector<real_t> q = z;  // search direction
  std::vector<real_t> aq(static_cast<std::size_t>(n));
  StagnationTracker stagnation(opt.stagnation_window);

  for (index_t it = 0; it < opt.max_iterations; ++it) {
    if (opt.cancel != nullptr && opt.cancel->should_stop()) {
      result.status = stop_reason(*opt.cancel);
      return result;
    }
    const real_t qaq = a.multiply_dot(q, aq);  // aq = A q and <q, aq> fused
    // alpha = rho / qaq: a non-finite denominator means overflow/NaN entered
    // the iteration, zero is an exact breakdown, and a negative value means
    // the operator is not positive definite — report each distinctly.
    if (!std::isfinite(qaq)) {
      result.status = SolveStatus::kNonFinite;
      return result;
    }
    if (qaq == 0.0) {
      result.status = SolveStatus::kBreakdown;
      return result;
    }
    if (qaq < 0.0) {
      result.status = SolveStatus::kDiverged;
      return result;
    }
    const real_t alpha = rho / qaq;
    axpy2(alpha, q, aq, x, r);  // x += alpha q, r -= alpha aq, one pass
    real_t rho_next, norm_z_sq;
    p.apply_dot_norm2(r, z, r, rho_next, norm_z_sq);  // z = P r, <r,z>, ||z||^2
    result.iterations = it + 1;
    const real_t rel = std::sqrt(norm_z_sq) / norm_pb;
    result.residual = rel;
    if (opt.record_history) result.history.push_back(rel);
    if (rel < opt.tolerance) {
      result.status = SolveStatus::kConverged;
      return result;
    }
    if (!std::isfinite(rel)) {
      result.status = SolveStatus::kNonFinite;
      return result;
    }
    if (stagnation.update(rel)) {
      result.status = SolveStatus::kStagnation;
      return result;
    }
    const real_t beta = rho_next / rho;
    rho = rho_next;
    xpby(z, beta, q);  // q = z + beta q
  }
  result.status = SolveStatus::kMaxIterations;
  return result;
}

}  // namespace mcmi
