#pragma once
/// @file sharded_plan.hpp
/// @brief Sharded SpMV execution beside the single SpmvPlan: nnz-balanced
/// row shards and a fixed-order ShardReducer for dots and norms.
///
/// A ShardedPlan partitions the rows of one matrix into contiguous,
/// nnz-balanced shards; each shard owns a per-shard SpmvPlan built over its
/// row slice (rebased row pointers, the shard's own 32-bit column
/// re-encoding).  Every shard runs on the host thread pool, and the
/// execution layer never assumes shard count == thread count: the plain
/// product flattens (shard, chunk) work items into one schedule, keeping
/// every core busy even when shards are few.
///
/// Determinism contract:
///
///  * SpMV: every row's sum is accumulated in column order, so y is
///    bit-identical to the single-plan path for ANY shard layout.
///  * Dots/norms: per-shard partials cannot simply be added — FP addition
///    is not associative, so a sum split at a shard boundary changes bits.
///    Instead the ShardReducer owns a *fixed block grid* (a pure function
///    of the matrix shape, independent of the layout): each shard computes
///    partials only for blocks it fully contains, the reducer recomputes
///    the few blocks straddling shard boundaries whole, and all blocks are
///    combined in fixed block order.  Every block's value is therefore the
///    same arithmetic regardless of which shard (or thread) produced it,
///    so the reduction is bit-identical for any shard count — including
///    shard counts coprime to the thread count — and, because the block
///    grid and per-block accumulation reproduce the single plan's fused
///    chunk reduction exactly, bit-identical to the unsharded path too.
///
/// Dispatch: a CsrMatrix either holds a ShardedPlan (bound with
/// CsrMatrix::set_shard_layout) or runs its cached single SpmvPlan; the
/// shard layout alone decides which.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sparse/spmv_plan.hpp"

namespace mcmi {

/// Contiguous row partition of an n-row matrix: shard s owns rows
/// [boundaries[s], boundaries[s+1]).  Degenerate shards (empty, one row,
/// everything) are legal; an empty `boundaries` means "no explicit layout"
/// (the single-plan path).
struct ShardLayout {
  std::vector<index_t> boundaries;

  /// Number of shards (0 for the empty layout).
  [[nodiscard]] index_t shards() const {
    return boundaries.empty() ? 0
                              : static_cast<index_t>(boundaries.size()) - 1;
  }
  [[nodiscard]] bool empty() const { return boundaries.empty(); }

  /// Nnz-balanced layout: shard s ends at the first row whose prefix
  /// nonzero count reaches s/shards of the total (same rule as the
  /// SpmvPlan chunk decomposition, so skewed matrices balance by work,
  /// not by row count).  A pure function of (shards, shape).
  static ShardLayout nnz_balanced(index_t shards,
                                  const std::vector<index_t>& row_ptr);

  /// Row-uniform layout (tests / degenerate-layout construction).
  static ShardLayout uniform(index_t shards, index_t rows);

  /// 64-bit fingerprint over the boundary list; the (matrix fingerprint,
  /// layout fingerprint) pair keys cached sharded plans in the serving
  /// layer.  The empty layout hashes to a distinct constant.
  [[nodiscard]] u64 fingerprint() const;

  /// Abort unless the layout is a valid partition of `rows` rows
  /// (monotone boundaries, first 0, last == rows).
  void validate(index_t rows) const;

  [[nodiscard]] bool operator==(const ShardLayout& other) const {
    return boundaries == other.boundaries;
  }
};

/// Fixed-block deterministic reducer for <w, y> and ||y||^2 over a block
/// grid that is a pure function of the matrix shape (never of the shard
/// layout or thread count).  Shards accumulate the blocks they fully
/// contain; reduce() recomputes boundary-straddling blocks whole and folds
/// every block in fixed block order, so the result is bit-identical for
/// any layout — and, with the grid and per-block accumulation below,
/// bit-identical to SpmvPlan's fused chunk reduction.
class ShardReducer {
 public:
  ShardReducer() = default;

  /// @param block_rows block boundaries (block t covers
  ///   [block_rows[t], block_rows[t+1])); fixed for the reducer's life.
  explicit ShardReducer(std::vector<index_t> block_rows);

  [[nodiscard]] index_t num_blocks() const {
    return block_rows_.empty()
               ? 0
               : static_cast<index_t>(block_rows_.size()) - 1;
  }
  [[nodiscard]] const std::vector<index_t>& block_rows() const {
    return block_rows_;
  }

  /// One block's <w, y> partial: four striped accumulators relative to the
  /// block start, combined (d0+d1)+(d2+d3) — the exact arithmetic of the
  /// fused SpmvPlan chunk, reproduced here so a recomputed block is
  /// bit-equal to a fused one.
  static real_t block_dot(const real_t* w, const real_t* y, index_t begin,
                          index_t end);
  /// As block_dot, also producing the block's ||y||^2 partial.
  static void block_dot_norm2(const real_t* w, const real_t* y, index_t begin,
                              index_t end, real_t& part_wy, real_t& part_yy);

  /// Reduce <w, y> (and, with `with_norm`, ||y||^2) under `layout`:
  /// per-shard partials for fully-contained blocks (parallel over shards),
  /// straddled blocks recomputed whole, all blocks folded in fixed block
  /// order.  An empty layout reduces as one shard.  Bit-identical for any
  /// layout and thread count.
  void reduce(const ShardLayout& layout, const real_t* w, const real_t* y,
              bool with_norm, real_t& dot_wy, real_t& norm_sq_y) const;

  /// Layout-free reference reduction: every block computed serially in
  /// block order.  This is the specification reduce() must match byte for
  /// byte (the fuzz suite diffs the two over randomized layouts).
  void reference(const real_t* w, const real_t* y, bool with_norm,
                 real_t& dot_wy, real_t& norm_sq_y) const;

 private:
  std::vector<index_t> block_rows_;
};

/// Sharded host execution: per-shard SpmvPlans over nnz-balanced row
/// slices, (shard, chunk) work items flattened into one parallel schedule,
/// and a ShardReducer over the full matrix's chunk grid for the fused
/// reductions.  The products read the CSR arrays passed per call (values
/// may change in place; the shape must match the build) and mirror the
/// SpmvPlan entries, minus the row pointers the shards keep rebased.
class ShardedPlan {
 public:
  /// Build for the CSR shape (row_ptr, col_idx) under `layout` (validated
  /// against `rows`; an empty layout becomes one shard).
  static ShardedPlan build(index_t rows, index_t cols,
                           const std::vector<index_t>& row_ptr,
                           const std::vector<index_t>& col_idx,
                           ShardLayout layout);

  /// The row partition the plan was built for.
  [[nodiscard]] const ShardLayout& layout() const { return layout_; }
  [[nodiscard]] index_t num_shards() const {
    return static_cast<index_t>(shards_.size());
  }
  /// The reducer (tests pin its grid against the single plan's chunks).
  [[nodiscard]] const ShardReducer& reducer() const { return reducer_; }

  /// y = A x.  Writes every y[i].
  void multiply(const index_t* col_idx, const real_t* values, const real_t* x,
                real_t* y) const;
  /// y = A x returning <w, y>.
  [[nodiscard]] real_t multiply_dot(const index_t* col_idx,
                                    const real_t* values, const real_t* x,
                                    const real_t* w, real_t* y) const;
  /// y = A x with <w, y> and <y, y>.
  void multiply_dot_norm2(const index_t* col_idx, const real_t* values,
                          const real_t* x, const real_t* w, real_t* y,
                          real_t& dot_wy, real_t& norm_sq_y) const;

 private:
  /// One shard's slice: global row/nnz base plus a rebased row-pointer copy
  /// so the per-shard plan indexes the slice from zero.
  struct Shard {
    index_t row_begin = 0;
    index_t row_end = 0;
    index_t nnz_begin = 0;
    std::vector<index_t> local_row_ptr;
    SpmvPlan plan;
  };

  ShardLayout layout_;
  std::vector<Shard> shards_;
  /// Flattened (shard, chunk) schedule: shard count never caps parallelism.
  std::vector<std::pair<index_t, index_t>> items_;
  ShardReducer reducer_;
};

/// Shard-grouped row schedule: the intersections of `layout`'s shards with
/// [row_begin, row_end), each split into spans of at most `grain` rows.
/// The MCMC builders iterate these spans so one grid build runs
/// shard-major (rows of different shards never interleave inside a span)
/// while the span granularity keeps the thread pool load-balanced.
std::vector<std::pair<index_t, index_t>> shard_row_spans(
    const ShardLayout& layout, index_t row_begin, index_t row_end,
    index_t grain);

}  // namespace mcmi
