#pragma once
// Preconditioner interface.
//
// A preconditioner is an operator P ~ A^-1 applied from the left:
// the Krylov solvers iterate on P A x = P b (§3 of the paper).

#include <string>
#include <vector>

#include "core/types.hpp"
#include "sparse/vector_ops.hpp"

namespace mcmi {

/// Abstract left preconditioner: y = P x with P ~ A^-1.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Apply the preconditioner: y = P x.  `y` is resized as needed.
  virtual void apply(const std::vector<real_t>& x,
                     std::vector<real_t>& y) const = 0;

  /// Fused apply + inner product: y = P x, returning <w, y>.  The default
  /// composes apply() with a dot pass; implementations whose apply is one
  /// SpMV override it so the dot rides the product pass.
  [[nodiscard]] virtual real_t apply_dot(const std::vector<real_t>& x,
                                         std::vector<real_t>& y,
                                         const std::vector<real_t>& w) const {
    apply(x, y);
    return dot(w, y);
  }

  /// Fused apply + the Krylov convergence pair: y = P x with <w, y> and
  /// <y, y> from one pass (CG calls it with w = r for rho and ||z||^2,
  /// BiCGStab with w = s for omega).
  virtual void apply_dot_norm2(const std::vector<real_t>& x,
                               std::vector<real_t>& y,
                               const std::vector<real_t>& w, real_t& dot_wy,
                               real_t& norm_sq_y) const {
    apply(x, y);
    dot_dot(y, w, y, dot_wy, norm_sq_y);
  }

  /// Descriptive name for logging/tables.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Convenience overload returning a fresh vector.
  [[nodiscard]] std::vector<real_t> apply(const std::vector<real_t>& x) const {
    std::vector<real_t> y;
    apply(x, y);
    return y;
  }
};

/// The identity "preconditioner" (P = I): the unpreconditioned baseline that
/// the performance metric y(A, x_M) divides by.
class IdentityPreconditioner final : public Preconditioner {
 public:
  using Preconditioner::apply;
  void apply(const std::vector<real_t>& x,
             std::vector<real_t>& y) const override {
    y = x;
  }
  [[nodiscard]] std::string name() const override { return "identity"; }
};

}  // namespace mcmi
