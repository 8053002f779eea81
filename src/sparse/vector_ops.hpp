#pragma once
// Dense vector kernels used by the Krylov solvers.
//
// Elementwise updates are OpenMP-parallel above a size threshold (below it
// the compiler-vectorised serial loop wins).  Reductions use a fixed block
// decomposition — partial sums per 4096-element block combined in block
// order — so the result is bit-identical at any thread count, which the
// deterministic-output contract of the MCMC pipeline relies on.  Fused
// variants (dot+norm, update+norm, double-axpy) cover the per-iteration
// shapes of CG / BiCGStab / GMRES with one memory pass instead of two.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"

namespace mcmi {

namespace vec_detail {

/// Below this size every kernel runs its plain serial loop (also keeping the
/// summation order — and therefore every historical result — unchanged for
/// the paper-scale systems).
constexpr std::size_t kParallelThreshold = 16384;

/// Reduction block: fixed so the combination tree depends on the data length
/// only, never on the number of threads.
constexpr std::size_t kBlock = 4096;

}  // namespace vec_detail

/// Euclidean dot product.
inline real_t dot(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  MCMI_CHECK(a.size() == b.size(), "dot: size mismatch");
  const std::size_t n = a.size();
  if (n < vec_detail::kParallelThreshold) {
    real_t sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
    return sum;
  }
  const std::size_t blocks = (n + vec_detail::kBlock - 1) / vec_detail::kBlock;
  std::vector<real_t> partial(blocks);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t blk = 0; blk < static_cast<std::ptrdiff_t>(blocks);
       ++blk) {
    const std::size_t begin = static_cast<std::size_t>(blk) * vec_detail::kBlock;
    const std::size_t end = std::min(n, begin + vec_detail::kBlock);
    real_t sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += a[i] * b[i];
    partial[static_cast<std::size_t>(blk)] = sum;
  }
  real_t sum = 0.0;
  for (real_t v : partial) sum += v;  // fixed order: thread-count independent
  return sum;
}

/// 2-norm.
inline real_t norm2(const std::vector<real_t>& a) {
  return std::sqrt(dot(a, a));
}

/// Fused dot(a, b) and ||b||: the CG convergence check (rho = <r, z>,
/// rel = ||z||) in a single pass over both vectors.
inline void dot_norm2(const std::vector<real_t>& a,
                      const std::vector<real_t>& b, real_t& dot_ab,
                      real_t& norm_b) {
  MCMI_CHECK(a.size() == b.size(), "dot_norm2: size mismatch");
  const std::size_t n = a.size();
  real_t d = 0.0, q = 0.0;
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) {
      d += a[i] * b[i];
      q += b[i] * b[i];
    }
  } else {
    const std::size_t blocks =
        (n + vec_detail::kBlock - 1) / vec_detail::kBlock;
    std::vector<real_t> partial_d(blocks), partial_q(blocks);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t blk = 0; blk < static_cast<std::ptrdiff_t>(blocks);
         ++blk) {
      const std::size_t begin =
          static_cast<std::size_t>(blk) * vec_detail::kBlock;
      const std::size_t end = std::min(n, begin + vec_detail::kBlock);
      real_t bd = 0.0, bq = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        bd += a[i] * b[i];
        bq += b[i] * b[i];
      }
      partial_d[static_cast<std::size_t>(blk)] = bd;
      partial_q[static_cast<std::size_t>(blk)] = bq;
    }
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      d += partial_d[blk];
      q += partial_q[blk];
    }
  }
  dot_ab = d;
  norm_b = std::sqrt(q);
}

/// Fused dot(x, y) and dot(x, z): the BiCGStab omega numerator/denominator
/// (<t, t>, <t, s>) in one pass over x.
inline void dot_dot(const std::vector<real_t>& x, const std::vector<real_t>& y,
                    const std::vector<real_t>& z, real_t& dot_xy,
                    real_t& dot_xz) {
  MCMI_CHECK(x.size() == y.size() && x.size() == z.size(),
             "dot_dot: size mismatch");
  const std::size_t n = x.size();
  real_t dy = 0.0, dz = 0.0;
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) {
      dy += x[i] * y[i];
      dz += x[i] * z[i];
    }
  } else {
    const std::size_t blocks =
        (n + vec_detail::kBlock - 1) / vec_detail::kBlock;
    std::vector<real_t> partial_y(blocks), partial_z(blocks);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t blk = 0; blk < static_cast<std::ptrdiff_t>(blocks);
         ++blk) {
      const std::size_t begin =
          static_cast<std::size_t>(blk) * vec_detail::kBlock;
      const std::size_t end = std::min(n, begin + vec_detail::kBlock);
      real_t by = 0.0, bz = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        by += x[i] * y[i];
        bz += x[i] * z[i];
      }
      partial_y[static_cast<std::size_t>(blk)] = by;
      partial_z[static_cast<std::size_t>(blk)] = bz;
    }
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      dy += partial_y[blk];
      dz += partial_z[blk];
    }
  }
  dot_xy = dy;
  dot_xz = dz;
}

/// Infinity norm.
inline real_t norm_inf(const std::vector<real_t>& a) {
  real_t best = 0.0;
  for (real_t v : a) best = std::max(best, std::abs(v));
  return best;
}

/// y += alpha * x.
inline void axpy(real_t alpha, const std::vector<real_t>& x,
                 std::vector<real_t>& y) {
  MCMI_CHECK(x.size() == y.size(), "axpy: size mismatch");
  const std::size_t n = x.size();
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    y[i] += alpha * x[i];
  }
}

/// Fused CG update: x += alpha * q, r -= alpha * aq in one pass.
inline void axpy2(real_t alpha, const std::vector<real_t>& q,
                  const std::vector<real_t>& aq, std::vector<real_t>& x,
                  std::vector<real_t>& r) {
  MCMI_CHECK(q.size() == x.size() && aq.size() == r.size() &&
                 x.size() == r.size(),
             "axpy2: size mismatch");
  const std::size_t n = x.size();
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * q[i];
      r[i] -= alpha * aq[i];
    }
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    x[i] += alpha * q[i];
    r[i] -= alpha * aq[i];
  }
}

/// Fused modified-Gram-Schmidt step: y += alpha * x, returning <w, y> from
/// the same pass — the GMRES orthogonalisation against basis j fused with
/// the projection onto basis j+1.
inline real_t axpy_dot(real_t alpha, const std::vector<real_t>& x,
                       std::vector<real_t>& y, const std::vector<real_t>& w) {
  MCMI_CHECK(x.size() == y.size() && w.size() == y.size(),
             "axpy_dot: size mismatch");
  const std::size_t n = y.size();
  if (n < vec_detail::kParallelThreshold) {
    real_t d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const real_t v = y[i] + alpha * x[i];
      y[i] = v;
      d += w[i] * v;
    }
    return d;
  }
  const std::size_t blocks = (n + vec_detail::kBlock - 1) / vec_detail::kBlock;
  std::vector<real_t> partial(blocks);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t blk = 0; blk < static_cast<std::ptrdiff_t>(blocks);
       ++blk) {
    const std::size_t begin = static_cast<std::size_t>(blk) * vec_detail::kBlock;
    const std::size_t end = std::min(n, begin + vec_detail::kBlock);
    real_t sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const real_t v = y[i] + alpha * x[i];
      y[i] = v;
      sum += w[i] * v;
    }
    partial[static_cast<std::size_t>(blk)] = sum;
  }
  real_t d = 0.0;
  for (real_t v : partial) d += v;  // fixed order: thread-count independent
  return d;
}

/// Fused final modified-Gram-Schmidt step: y += alpha * x, returning
/// <y, y> — the last orthogonalisation fused with the new basis norm.
inline real_t axpy_norm2_sq(real_t alpha, const std::vector<real_t>& x,
                            std::vector<real_t>& y) {
  MCMI_CHECK(x.size() == y.size(), "axpy_norm2_sq: size mismatch");
  const std::size_t n = y.size();
  if (n < vec_detail::kParallelThreshold) {
    real_t q = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const real_t v = y[i] + alpha * x[i];
      y[i] = v;
      q += v * v;
    }
    return q;
  }
  const std::size_t blocks = (n + vec_detail::kBlock - 1) / vec_detail::kBlock;
  std::vector<real_t> partial(blocks);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t blk = 0; blk < static_cast<std::ptrdiff_t>(blocks);
       ++blk) {
    const std::size_t begin = static_cast<std::size_t>(blk) * vec_detail::kBlock;
    const std::size_t end = std::min(n, begin + vec_detail::kBlock);
    real_t sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const real_t v = y[i] + alpha * x[i];
      y[i] = v;
      sum += v * v;
    }
    partial[static_cast<std::size_t>(blk)] = sum;
  }
  real_t q = 0.0;
  for (real_t v : partial) q += v;
  return q;
}

/// Fused BiCGStab solution update: x += alpha * p + omega * s in one pass.
inline void axpy_pair(real_t alpha, const std::vector<real_t>& p, real_t omega,
                      const std::vector<real_t>& s, std::vector<real_t>& x) {
  MCMI_CHECK(p.size() == x.size() && s.size() == x.size(),
             "axpy_pair: size mismatch");
  const std::size_t n = x.size();
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) x[i] += alpha * p[i] + omega * s[i];
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    x[i] += alpha * p[i] + omega * s[i];
  }
}

/// Fused BiCGStab search-direction update: p = r + beta * (p - omega * v).
inline void bicgstab_p_update(const std::vector<real_t>& r, real_t beta,
                              real_t omega, const std::vector<real_t>& v,
                              std::vector<real_t>& p) {
  MCMI_CHECK(r.size() == p.size() && v.size() == p.size(),
             "bicgstab_p_update: size mismatch");
  const std::size_t n = p.size();
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    p[i] = r[i] + beta * (p[i] - omega * v[i]);
  }
}

/// Fused residual step: out = x - alpha * y, returning ||out||.  Covers the
/// BiCGStab s/r updates, each immediately followed by a norm check.
inline real_t sub_scaled_norm(const std::vector<real_t>& x, real_t alpha,
                              const std::vector<real_t>& y,
                              std::vector<real_t>& out) {
  MCMI_CHECK(x.size() == y.size(), "sub_scaled_norm: size mismatch");
  out.resize(x.size());
  const std::size_t n = x.size();
  real_t q = 0.0;
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) {
      const real_t v = x[i] - alpha * y[i];
      out[i] = v;
      q += v * v;
    }
    return std::sqrt(q);
  }
  const std::size_t blocks = (n + vec_detail::kBlock - 1) / vec_detail::kBlock;
  std::vector<real_t> partial(blocks);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t blk = 0; blk < static_cast<std::ptrdiff_t>(blocks);
       ++blk) {
    const std::size_t begin = static_cast<std::size_t>(blk) * vec_detail::kBlock;
    const std::size_t end = std::min(n, begin + vec_detail::kBlock);
    real_t sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const real_t v = x[i] - alpha * y[i];
      out[i] = v;
      sum += v * v;
    }
    partial[static_cast<std::size_t>(blk)] = sum;
  }
  for (std::size_t blk = 0; blk < blocks; ++blk) q += partial[blk];
  return std::sqrt(q);
}

/// y = x + beta * y (the BiCGStab / CG update shape).
inline void xpby(const std::vector<real_t>& x, real_t beta,
                 std::vector<real_t>& y) {
  MCMI_CHECK(x.size() == y.size(), "xpby: size mismatch");
  const std::size_t n = x.size();
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) y[i] = x[i] + beta * y[i];
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    y[i] = x[i] + beta * y[i];
  }
}

/// x *= alpha.
inline void scale(real_t alpha, std::vector<real_t>& x) {
  const std::size_t n = x.size();
  if (n < vec_detail::kParallelThreshold) {
    for (real_t& v : x) v *= alpha;
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    x[i] *= alpha;
  }
}

/// out = alpha * x (the GMRES basis normalisation v = r / beta).
inline void scale_into(real_t alpha, const std::vector<real_t>& x,
                       std::vector<real_t>& out) {
  out.resize(x.size());
  const std::size_t n = x.size();
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) out[i] = alpha * x[i];
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    out[i] = alpha * x[i];
  }
}

/// Elementwise difference a - b.
inline std::vector<real_t> subtract(const std::vector<real_t>& a,
                                    const std::vector<real_t>& b) {
  MCMI_CHECK(a.size() == b.size(), "subtract: size mismatch");
  std::vector<real_t> out(a.size());
  const std::size_t n = a.size();
  if (n < vec_detail::kParallelThreshold) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
    return out;
  }
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

}  // namespace mcmi
