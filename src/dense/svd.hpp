#pragma once
// Singular values via one-sided Jacobi rotations.
//
// Table 1 reports kappa(A) = ||A||_2 ||A^-1||_2 = sigma_max / sigma_min; for
// the small matrices in the study we compute it exactly with this routine,
// and for large ones src/features falls back to iterative estimates.
//
// Layout and cost: the routine copies A once into a column-major buffer it
// owns, so the column-pair dot products and plane rotations run over
// contiguous memory.  Squared column norms are recomputed at the start of
// every sweep and tracked through each rotation (a_pp -= t a_pq,
// a_qq += t a_pq; de Rijk), so a (p, q) pair costs one dot product.  Dot
// products use four partial sums in a fixed order.
//
// Contract: serial and deterministic (within one build, the same input gives
// the same bits on every call and at every OpenMP thread count; a build for
// an FMA-capable ISA may differ in the last bits), accurate to rounding, but
// not bit-identical to the row-major three-dot-product loop it replaced:
// this is a feature and reference routine, outside the bit-identity
// invariant of the optimized MCMC and Krylov paths.

#include <vector>

#include "dense/matrix.hpp"

namespace mcmi {

/// All singular values of `a` (rows >= cols), sorted descending.  Cyclic
/// one-sided Jacobi applied to the columns, stopping when every pair
/// satisfies |a_pq| <= eps sqrt(a_pp a_qq); converges to machine precision
/// for the sizes used here.
std::vector<real_t> singular_values(const DenseMatrix& a,
                                    index_t max_sweeps = 60);

/// Exact 2-norm condition number sigma_max / sigma_min (wide inputs are
/// transposed first).  Returns +inf when the smallest singular value
/// underflows to zero.
real_t condition_number_exact(const DenseMatrix& a);

}  // namespace mcmi
