#include <cmath>

#include "core/error.hpp"
#include "krylov/solver.hpp"
#include "sparse/vector_ops.hpp"

namespace mcmi {

SolveResult solve_bicgstab(const CsrMatrix& a, const std::vector<real_t>& b,
                           const Preconditioner& p, std::vector<real_t>& x,
                           const SolveOptions& opt) {
  const index_t n = a.rows();
  MCMI_CHECK(a.cols() == n, "BiCGStab needs a square matrix");
  MCMI_CHECK(static_cast<index_t>(b.size()) == n, "rhs size mismatch");

  SolveResult result;
  x.assign(static_cast<std::size_t>(n), 0.0);

  // BiCGStab applied to the left-preconditioned system P A x = P b.  The
  // preconditioner applies are fused with the reductions that follow them,
  // so each half-step pays one SpMV pass instead of SpMV + dot sweeps.
  std::vector<real_t> scratch(static_cast<std::size_t>(n));

  std::vector<real_t> r;  // r0 = P b (x0 = 0)
  real_t bdotr, norm_pb_sq;
  p.apply_dot_norm2(b, r, b, bdotr, norm_pb_sq);
  (void)bdotr;  // only the norm of r0 is needed here
  const real_t norm_pb = std::sqrt(norm_pb_sq);
  if (norm_pb == 0.0) {
    result.status = SolveStatus::kConverged;
    return result;
  }
  if (!std::isfinite(norm_pb)) {
    result.status = SolveStatus::kNonFinite;
    return result;
  }
  const std::vector<real_t> r_hat = r;  // shadow residual
  std::vector<real_t> v(static_cast<std::size_t>(n), 0.0);
  std::vector<real_t> pvec(static_cast<std::size_t>(n), 0.0);
  std::vector<real_t> s(static_cast<std::size_t>(n));
  std::vector<real_t> t(static_cast<std::size_t>(n));

  real_t rho = 1.0, alpha = 1.0, omega = 1.0;
  StagnationTracker stagnation(opt.stagnation_window);

  for (index_t it = 0; it < opt.max_iterations; ++it) {
    if (opt.cancel != nullptr && opt.cancel->should_stop()) {
      result.status = stop_reason(*opt.cancel);
      return result;
    }
    const real_t rho_next = dot(r_hat, r);
    if (!std::isfinite(rho_next)) {
      result.status = SolveStatus::kNonFinite;
      return result;
    }
    if (rho_next == 0.0) {  // serious breakdown: <r_hat, r> vanished
      result.status = SolveStatus::kBreakdown;
      return result;
    }
    if (it == 0) {
      pvec = r;
    } else {
      const real_t beta = (rho_next / rho) * (alpha / omega);
      bicgstab_p_update(r, beta, omega, v, pvec);
    }
    rho = rho_next;
    a.multiply(pvec, scratch);
    const real_t rhv = p.apply_dot(scratch, v, r_hat);  // v = P A p, <r_hat,v>
    if (!std::isfinite(rhv)) {
      result.status = SolveStatus::kNonFinite;
      return result;
    }
    if (rhv == 0.0) {  // alpha denominator vanished
      result.status = SolveStatus::kBreakdown;
      return result;
    }
    alpha = rho / rhv;
    result.iterations = it + 1;
    // s = r - alpha v with its norm in one pass.
    real_t rel = sub_scaled_norm(r, alpha, v, s) / norm_pb;
    if (rel < opt.tolerance) {
      axpy(alpha, pvec, x);
      result.residual = rel;
      if (opt.record_history) result.history.push_back(rel);
      result.status = SolveStatus::kConverged;
      return result;
    }
    a.multiply(s, scratch);
    real_t tt, ts;
    p.apply_dot_norm2(scratch, t, s, ts, tt);  // t = P A s, <t,s>, <t,t>
    if (tt == 0.0) {  // omega denominator vanished
      result.status = SolveStatus::kBreakdown;
      return result;
    }
    omega = ts / tt;
    if (!std::isfinite(omega)) {
      result.status = SolveStatus::kNonFinite;
      return result;
    }
    if (omega == 0.0) {  // stabilisation step degenerate
      result.status = SolveStatus::kBreakdown;
      return result;
    }
    axpy_pair(alpha, pvec, omega, s, x);  // x += alpha p + omega s
    // r = s - omega t with its norm in one pass.
    rel = sub_scaled_norm(s, omega, t, r) / norm_pb;
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
  }
  result.status = SolveStatus::kMaxIterations;
  return result;
}

}  // namespace mcmi
