#include "dense/svd.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace mcmi {

namespace {

// x . y over m contiguous entries with four interleaved partial sums folded
// as (s0 + s1) + (s2 + s3).  The summation order is written out here, so the
// compiler may vectorise the loop without reassociating it and the result
// does not depend on the vector width.  A target with FMA instructions can
// still change the last bits where the compiler contracts a multiply-add.
real_t blocked_dot(const real_t* x, const real_t* y, index_t m) {
  real_t s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  index_t i = 0;
  for (; i + 4 <= m; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < m; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

}  // namespace

std::vector<real_t> singular_values(const DenseMatrix& a, index_t max_sweeps) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  MCMI_CHECK(m >= n, "one-sided Jacobi expects rows >= cols; transpose first");

  // Column-major working copy: column j is w[j*m, (j+1)*m), so every dot
  // product and rotation below runs over contiguous memory.
  const std::size_t mm = static_cast<std::size_t>(m);
  std::vector<real_t> w(mm * static_cast<std::size_t>(n));
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) w[j * mm + i] = a(i, j);
  }
  auto column = [&](index_t j) { return w.data() + j * mm; };

  // One-sided Jacobi: orthogonalise pairs of columns of A by plane rotations
  // until all pairs are numerically orthogonal; column norms are then the
  // singular values.  The squared column norms are recomputed at the start
  // of each sweep and tracked through the rotations within it (de Rijk), so
  // each pair costs one dot product.  A sweep without rotations checks the
  // stopping rule against freshly computed norms.
  const real_t eps = std::numeric_limits<real_t>::epsilon();
  std::vector<real_t> norm2(static_cast<std::size_t>(n));
  for (index_t sweep = 0; sweep < max_sweeps; ++sweep) {
    for (index_t j = 0; j < n; ++j) {
      norm2[j] = blocked_dot(column(j), column(j), m);
    }
    bool converged = true;
    for (index_t p = 0; p < n - 1; ++p) {
      real_t* cp = column(p);
      for (index_t q = p + 1; q < n; ++q) {
        real_t* cq = column(q);
        const real_t app = norm2[p];
        const real_t aqq = norm2[q];
        const real_t apq = blocked_dot(cp, cq, m);
        if (std::abs(apq) <= eps * std::sqrt(app * aqq)) continue;
        converged = false;
        // Jacobi rotation annihilating the (p,q) Gram entry.
        const real_t tau = (aqq - app) / (2.0 * apq);
        const real_t t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const real_t c = 1.0 / std::sqrt(1.0 + t * t);
        const real_t s = c * t;
        for (index_t i = 0; i < m; ++i) {
          const real_t u = cp[i];
          const real_t v = cq[i];
          cp[i] = c * u - s * v;
          cq[i] = s * u + c * v;
        }
        norm2[p] = app - t * apq;
        norm2[q] = aqq + t * apq;
      }
    }
    if (converged) break;
  }

  std::vector<real_t> sigma(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    sigma[j] = std::sqrt(blocked_dot(column(j), column(j), m));
  }
  std::sort(sigma.begin(), sigma.end(), std::greater<real_t>());
  return sigma;
}

real_t condition_number_exact(const DenseMatrix& a) {
  const std::vector<real_t> sigma = a.rows() >= a.cols()
                                        ? singular_values(a)
                                        : singular_values(a.transpose());
  MCMI_CHECK(!sigma.empty(), "empty matrix has no condition number");
  const real_t smin = sigma.back();
  if (smin <= 0.0) return std::numeric_limits<real_t>::infinity();
  return sigma.front() / smin;
}

}  // namespace mcmi
