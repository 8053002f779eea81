#include "sparse/sharded_plan.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/hash.hpp"

namespace mcmi {

// ---------------------------------------------------------------------------
// ShardLayout

ShardLayout ShardLayout::nnz_balanced(index_t shards,
                                      const std::vector<index_t>& row_ptr) {
  const index_t rows =
      row_ptr.empty() ? 0 : static_cast<index_t>(row_ptr.size()) - 1;
  const index_t nnz = row_ptr.empty() ? 0 : row_ptr.back();
  if (shards < 1) shards = 1;
  ShardLayout layout;
  layout.boundaries.resize(static_cast<std::size_t>(shards) + 1);
  layout.boundaries.front() = 0;
  layout.boundaries.back() = rows;
  for (index_t s = 1; s < shards; ++s) {
    const index_t target = nnz * s / shards;
    index_t r = static_cast<index_t>(
        std::lower_bound(row_ptr.begin(),
                         row_ptr.begin() + static_cast<std::ptrdiff_t>(rows),
                         target) -
        row_ptr.begin());
    r = std::max(r, layout.boundaries[static_cast<std::size_t>(s) - 1]);
    layout.boundaries[static_cast<std::size_t>(s)] = std::min(r, rows);
  }
  return layout;
}

ShardLayout ShardLayout::uniform(index_t shards, index_t rows) {
  if (shards < 1) shards = 1;
  ShardLayout layout;
  layout.boundaries.resize(static_cast<std::size_t>(shards) + 1);
  for (index_t s = 0; s <= shards; ++s) {
    layout.boundaries[static_cast<std::size_t>(s)] = rows * s / shards;
  }
  return layout;
}

u64 ShardLayout::fingerprint() const {
  Hash64 hash(0x7368726cULL);  // "shrl"
  hash.update_array(boundaries.data(), boundaries.size());
  return hash.digest();
}

void ShardLayout::validate(index_t rows) const {
  MCMI_CHECK(!boundaries.empty() && boundaries.size() >= 2,
             "shard layout needs at least one shard");
  MCMI_CHECK(boundaries.front() == 0,
             "shard layout must start at row 0, got " << boundaries.front());
  MCMI_CHECK(boundaries.back() == rows, "shard layout ends at row "
                                            << boundaries.back()
                                            << ", matrix has " << rows);
  for (std::size_t s = 1; s < boundaries.size(); ++s) {
    MCMI_CHECK(boundaries[s - 1] <= boundaries[s],
               "shard boundaries not monotone at shard " << s - 1);
  }
}

// ---------------------------------------------------------------------------
// ShardReducer

ShardReducer::ShardReducer(std::vector<index_t> block_rows)
    : block_rows_(std::move(block_rows)) {}

real_t ShardReducer::block_dot(const real_t* w, const real_t* y,
                               index_t begin, index_t end) {
  real_t d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  index_t i = begin;
  for (; i + 4 <= end; i += 4) {
    d0 += w[i] * y[i];
    d1 += w[i + 1] * y[i + 1];
    d2 += w[i + 2] * y[i + 2];
    d3 += w[i + 3] * y[i + 3];
  }
  for (; i < end; ++i) d0 += w[i] * y[i];
  return (d0 + d1) + (d2 + d3);
}

void ShardReducer::block_dot_norm2(const real_t* w, const real_t* y,
                                   index_t begin, index_t end,
                                   real_t& part_wy, real_t& part_yy) {
  real_t d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  real_t q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
  index_t i = begin;
  for (; i + 4 <= end; i += 4) {
    d0 += w[i] * y[i];
    d1 += w[i + 1] * y[i + 1];
    d2 += w[i + 2] * y[i + 2];
    d3 += w[i + 3] * y[i + 3];
    q0 += y[i] * y[i];
    q1 += y[i + 1] * y[i + 1];
    q2 += y[i + 2] * y[i + 2];
    q3 += y[i + 3] * y[i + 3];
  }
  for (; i < end; ++i) {
    d0 += w[i] * y[i];
    q0 += y[i] * y[i];
  }
  part_wy = (d0 + d1) + (d2 + d3);
  part_yy = (q0 + q1) + (q2 + q3);
}

void ShardReducer::reduce(const ShardLayout& layout, const real_t* w,
                          const real_t* y, bool with_norm, real_t& dot_wy,
                          real_t& norm_sq_y) const {
  dot_wy = 0.0;
  norm_sq_y = 0.0;
  const index_t nb = num_blocks();
  if (nb == 0) return;
  const index_t rows = block_rows_.back();

  std::vector<real_t> part_wy(static_cast<std::size_t>(nb), 0.0);
  std::vector<real_t> part_yy(static_cast<std::size_t>(nb), 0.0);
  // A block is finalised by the one shard fully containing it; blocks
  // straddling a shard boundary stay pending and are recomputed whole
  // below, so every block's partial is the same arithmetic no matter how
  // the layout cuts the rows.
  std::vector<unsigned char> done(static_cast<std::size_t>(nb), 0);

  const index_t ns = layout.empty() ? 1 : layout.shards();
#pragma omp parallel for schedule(dynamic, 1) if (ns > 1)
  for (index_t s = 0; s < ns; ++s) {
    const index_t rb = layout.empty() ? 0 : layout.boundaries[s];
    const index_t re = layout.empty() ? rows : layout.boundaries[s + 1];
    // First block starting at or after rb.
    index_t t = static_cast<index_t>(
        std::lower_bound(block_rows_.begin(), block_rows_.end(), rb) -
        block_rows_.begin());
    for (; t < nb && block_rows_[static_cast<std::size_t>(t) + 1] <= re;
         ++t) {
      const auto ti = static_cast<std::size_t>(t);
      if (with_norm) {
        block_dot_norm2(w, y, block_rows_[ti], block_rows_[ti + 1],
                        part_wy[ti], part_yy[ti]);
      } else {
        part_wy[ti] = block_dot(w, y, block_rows_[ti], block_rows_[ti + 1]);
      }
      done[ti] = 1;
    }
  }

  // Fixed block order: boundary blocks (at most shards-1 of them) are
  // recomputed whole here, and the combination tree never sees the layout
  // or the thread count.
  for (index_t t = 0; t < nb; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (!done[ti]) {
      if (with_norm) {
        block_dot_norm2(w, y, block_rows_[ti], block_rows_[ti + 1],
                        part_wy[ti], part_yy[ti]);
      } else {
        part_wy[ti] = block_dot(w, y, block_rows_[ti], block_rows_[ti + 1]);
      }
    }
    dot_wy += part_wy[ti];
    norm_sq_y += part_yy[ti];
  }
}

void ShardReducer::reference(const real_t* w, const real_t* y, bool with_norm,
                             real_t& dot_wy, real_t& norm_sq_y) const {
  dot_wy = 0.0;
  norm_sq_y = 0.0;
  for (index_t t = 0; t < num_blocks(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    real_t wy = 0.0;
    real_t yy = 0.0;
    if (with_norm) {
      block_dot_norm2(w, y, block_rows_[ti], block_rows_[ti + 1], wy, yy);
    } else {
      wy = block_dot(w, y, block_rows_[ti], block_rows_[ti + 1]);
    }
    dot_wy += wy;
    norm_sq_y += yy;
  }
}

// ---------------------------------------------------------------------------
// ShardedPlan

ShardedPlan ShardedPlan::build(index_t rows, index_t cols,
                               const std::vector<index_t>& row_ptr,
                               const std::vector<index_t>& col_idx,
                               ShardLayout layout) {
  if (rows < 0) rows = 0;
  if (layout.empty()) layout.boundaries = {0, rows};
  layout.validate(rows);

  ShardedPlan plan;
  plan.layout_ = std::move(layout);
  const index_t ns = plan.layout_.shards();
  plan.shards_.resize(static_cast<std::size_t>(ns));
  for (index_t s = 0; s < ns; ++s) {
    Shard& shard = plan.shards_[static_cast<std::size_t>(s)];
    shard.row_begin = plan.layout_.boundaries[static_cast<std::size_t>(s)];
    shard.row_end = plan.layout_.boundaries[static_cast<std::size_t>(s) + 1];
    shard.nnz_begin = row_ptr[static_cast<std::size_t>(shard.row_begin)];
    const index_t shard_rows = shard.row_end - shard.row_begin;
    shard.local_row_ptr.resize(static_cast<std::size_t>(shard_rows) + 1);
    for (index_t i = 0; i <= shard_rows; ++i) {
      shard.local_row_ptr[static_cast<std::size_t>(i)] =
          row_ptr[static_cast<std::size_t>(shard.row_begin + i)] -
          shard.nnz_begin;
    }
    // The slice's column indices, so the per-shard plan gets its own
    // 32-bit re-encoding and width dispatch (columns stay global: x is
    // never partitioned).
    const std::vector<index_t> shard_cols(
        col_idx.begin() + shard.nnz_begin,
        col_idx.begin() + row_ptr[static_cast<std::size_t>(shard.row_end)]);
    shard.plan = SpmvPlan::build(shard_rows, cols, shard.local_row_ptr,
                                 shard_cols);
    for (index_t c = 0; c < shard.plan.num_chunks(); ++c) {
      plan.items_.emplace_back(s, c);
    }
  }
  // The reduction grid is the *full* matrix's chunk decomposition — shared
  // with the single plan so both paths fold the same blocks in the same
  // order (bit-identical fused results with or without shards).
  plan.reducer_ = ShardReducer(SpmvPlan::chunk_boundaries(rows, row_ptr));
  return plan;
}

void ShardedPlan::multiply(const index_t* col_idx, const real_t* values,
                           const real_t* x, real_t* y) const {
  const index_t ni = static_cast<index_t>(items_.size());
#pragma omp parallel for schedule(static) if (ni > 1)
  for (index_t i = 0; i < ni; ++i) {
    const auto [s, c] = items_[static_cast<std::size_t>(i)];
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    shard.plan.multiply_chunk(c, shard.local_row_ptr.data(),
                              col_idx + shard.nnz_begin,
                              values + shard.nnz_begin, x,
                              y + shard.row_begin);
  }
}

real_t ShardedPlan::multiply_dot(const index_t* col_idx, const real_t* values,
                                 const real_t* x, const real_t* w,
                                 real_t* y) const {
  multiply(col_idx, values, x, y);
  real_t dot_wy = 0.0;
  real_t unused = 0.0;
  reducer_.reduce(layout_, w, y, false, dot_wy, unused);
  return dot_wy;
}

void ShardedPlan::multiply_dot_norm2(const index_t* col_idx,
                                     const real_t* values, const real_t* x,
                                     const real_t* w, real_t* y,
                                     real_t& dot_wy,
                                     real_t& norm_sq_y) const {
  multiply(col_idx, values, x, y);
  reducer_.reduce(layout_, w, y, true, dot_wy, norm_sq_y);
}

// ---------------------------------------------------------------------------
// shard_row_spans

std::vector<std::pair<index_t, index_t>> shard_row_spans(
    const ShardLayout& layout, index_t row_begin, index_t row_end,
    index_t grain) {
  if (grain < 1) grain = 1;
  std::vector<std::pair<index_t, index_t>> spans;
  const index_t ns = layout.empty() ? 1 : layout.shards();
  for (index_t s = 0; s < ns; ++s) {
    const index_t b =
        layout.empty() ? row_begin
                       : std::max(layout.boundaries[static_cast<std::size_t>(
                                      s)],
                                  row_begin);
    const index_t e =
        layout.empty()
            ? row_end
            : std::min(layout.boundaries[static_cast<std::size_t>(s) + 1],
                       row_end);
    for (index_t i = b; i < e; i += grain) {
      spans.emplace_back(i, std::min(i + grain, e));
    }
  }
  return spans;
}

}  // namespace mcmi
