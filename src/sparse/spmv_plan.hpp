#pragma once
/// @file spmv_plan.hpp
/// @brief Precomputed SpMV execution plan: nnz-balanced row chunks + fused
/// kernels.
///
/// The naive row-parallel SpMV loop re-derives its schedule on every call
/// and pays for a zero-fill pass, 64-bit column indices and separate
/// reduction passes for the dot products every Krylov iteration needs right
/// after the product.  A SpmvPlan is built once per matrix shape and
/// amortised across the whole solve:
///
///   * rows are partitioned into contiguous chunks of roughly equal nonzero
///     count (prefix-sum over row_ptr), so skewed matrices keep every
///     thread busy without `schedule(dynamic)` bookkeeping;
///   * chunks whose rows all share one short width dispatch to fully
///     unrolled fixed-width kernels (diagonal / tridiagonal shapes);
///   * column indices are re-encoded to 32 bits when the column count
///     allows, halving the index traffic of the bandwidth-bound kernel;
///   * fused variants compute <w, Ax> (and optionally ||Ax||^2) inside the
///     product pass, cutting one full vector sweep per Krylov iteration.
///
/// Determinism: the chunk decomposition depends only on the matrix shape,
/// one chunk's partial reductions are accumulated in row order and chunk
/// partials are combined in chunk order, so every result is bit-identical
/// at any OpenMP thread count — the same convention as the fixed-block
/// reductions in vector_ops.hpp.
///
/// The plan reads the CSR arrays it was built for on every call (values may
/// change in place; the shape must not).  CsrMatrix owns one plan per
/// matrix, the transpose gather plan reuses the same chunking machinery,
/// and the sharded execution layer (sharded_plan.hpp) runs per-shard plans
/// chunk by chunk and folds its reductions over this plan's chunk grid.

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace mcmi {

/// One matrix's SpMV schedule: the chunk table, the unrolled-width dispatch
/// tags, and the optional 32-bit column re-encoding, with plain-pointer
/// kernel entry points so CsrMatrix (and the cached transpose view) can run
/// any value array through the same plan.
class SpmvPlan {
 public:
  SpmvPlan() = default;

  /// Build a plan for the CSR shape (row_ptr, col_idx) of a rows x cols
  /// matrix.  Only the shape is consulted; values are supplied per call.
  static SpmvPlan build(index_t rows, index_t cols,
                        const std::vector<index_t>& row_ptr,
                        const std::vector<index_t>& col_idx);

  /// Number of row chunks (0 for an empty/default plan).
  [[nodiscard]] index_t num_chunks() const {
    return chunk_rows_.empty() ? 0
                               : static_cast<index_t>(chunk_rows_.size()) - 1;
  }

  /// First row of chunk c (c in [0, num_chunks()]).
  [[nodiscard]] index_t chunk_begin(index_t c) const {
    return chunk_rows_[static_cast<std::size_t>(c)];
  }

  /// The nnz-balanced chunk boundaries build() would compute for this
  /// shape: boundary c is the first row whose prefix nonzero count reaches
  /// c/chunks of the total.  A pure function of the shape — the sharded
  /// execution layer uses the same grid for its fixed-order reductions, so
  /// the two paths share one combination tree.
  static std::vector<index_t> chunk_boundaries(
      index_t rows, const std::vector<index_t>& row_ptr);

  /// Run one chunk of the plan serially (no OpenMP): y over the chunk's
  /// rows only.  A ShardedPlan flattens (shard, chunk) pairs into
  /// its own parallel schedule and drives each chunk through this entry.
  void multiply_chunk(index_t c, const index_t* row_ptr,
                      const index_t* col_idx, const real_t* values,
                      const real_t* x, real_t* y) const;

  /// y = A x.  Writes every y[i]; no zero-fill pass.
  void multiply(const index_t* row_ptr, const index_t* col_idx,
                const real_t* values, const real_t* x, real_t* y) const;

  /// y = A x, returning <w, y> accumulated inside the product pass.
  [[nodiscard]] real_t multiply_dot(const index_t* row_ptr,
                                    const index_t* col_idx,
                                    const real_t* values, const real_t* x,
                                    const real_t* w, real_t* y) const;

  /// y = A x with <w, y> and <y, y> in the same pass (the preconditioner
  /// apply + <r, z> + ||z||^2 shape of CG/BiCGStab).
  void multiply_dot_norm2(const index_t* row_ptr, const index_t* col_idx,
                          const real_t* values, const real_t* x,
                          const real_t* w, real_t* y, real_t& dot_wy,
                          real_t& norm_sq_y) const;

  /// Gather kernel for a transposed view: y[j] = sum_k values[src_pos[k]] *
  /// x[src_row[k]] over k in [col_ptr[j], col_ptr[j+1]).  The plan must have
  /// been built over (col_ptr, src_row).
  void multiply_gather(const index_t* col_ptr, const index_t* src_row,
                       const index_t* src_pos, const real_t* values,
                       const real_t* x, real_t* y) const;

 private:
  /// Chunk c covers rows [chunk_rows_[c], chunk_rows_[c+1]).
  std::vector<index_t> chunk_rows_;
  /// Uniform row width of chunk c for the unrolled dispatch; 0 = generic.
  std::vector<std::int8_t> chunk_width_;
  /// 32-bit copy of col_idx when cols < 2^31 (empty otherwise): the SpMV
  /// kernels are bandwidth-bound and index traffic is half the story.
  std::vector<u32> col32_;
};

}  // namespace mcmi
