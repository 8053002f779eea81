#include "sparse/spmv_plan.hpp"

#include <algorithm>
#include <limits>

namespace mcmi {

namespace {

/// Target nonzeros per chunk.  Matches the order of the vector_ops reduction
/// block so per-chunk partials stay cheap relative to the chunk body; small
/// matrices collapse to a single serial chunk.
constexpr index_t kChunkNnz = 16384;

/// Row sum for a compile-time row width: the loop fully unrolls into W
/// sequential fused multiply-adds (sequential so the summation order — and
/// therefore bit-equality with the generic path — is preserved).
template <int W, typename ColT>
inline real_t row_sum_fixed(const ColT* col, const real_t* val,
                            const real_t* x) {
  real_t s = 0.0;
  for (int k = 0; k < W; ++k) s += val[k] * x[col[k]];
  return s;
}

template <int W, typename ColT>
inline void rows_fixed(index_t b, index_t e, const index_t* rp,
                       const ColT* ci, const real_t* v, const real_t* x,
                       real_t* y) {
  for (index_t i = b; i < e; ++i) {
    y[i] = row_sum_fixed<W, ColT>(ci + rp[i], v + rp[i], x);
  }
}

/// One row's product sum, accumulated in column order (bit-equal to the
/// naive row loop).
template <typename ColT>
inline real_t row_sum(index_t i, const index_t* rp, const ColT* ci,
                      const real_t* v, const real_t* x) {
  real_t s = 0.0;
  const index_t kb = rp[i];
  const index_t ke = rp[i + 1];
  for (index_t k = kb; k < ke; ++k) s += v[k] * x[ci[k]];
  return s;
}

template <typename ColT>
inline void rows_generic(index_t b, index_t e, const index_t* rp,
                         const ColT* ci, const real_t* v, const real_t* x,
                         real_t* y) {
  // Four independent row sums per step: each row keeps its in-order
  // (naive-bit-equal) accumulation while the rows' FMA chains overlap.
  index_t i = b;
  for (; i + 4 <= e; i += 4) {
    y[i] = row_sum(i, rp, ci, v, x);
    y[i + 1] = row_sum(i + 1, rp, ci, v, x);
    y[i + 2] = row_sum(i + 2, rp, ci, v, x);
    y[i + 3] = row_sum(i + 3, rp, ci, v, x);
  }
  for (; i < e; ++i) y[i] = row_sum(i, rp, ci, v, x);
}

template <typename ColT>
inline void chunk_multiply(index_t b, index_t e, int width, const index_t* rp,
                           const ColT* ci, const real_t* v, const real_t* x,
                           real_t* y) {
  switch (width) {
    case 1: rows_fixed<1>(b, e, rp, ci, v, x, y); break;
    case 2: rows_fixed<2>(b, e, rp, ci, v, x, y); break;
    case 3: rows_fixed<3>(b, e, rp, ci, v, x, y); break;
    case 4: rows_fixed<4>(b, e, rp, ci, v, x, y); break;
    case 5: rows_fixed<5>(b, e, rp, ci, v, x, y); break;
    case 6: rows_fixed<6>(b, e, rp, ci, v, x, y); break;
    case 7: rows_fixed<7>(b, e, rp, ci, v, x, y); break;
    case 8: rows_fixed<8>(b, e, rp, ci, v, x, y); break;
    default: rows_generic(b, e, rp, ci, v, x, y); break;
  }
}

template <typename ColT>
void run_multiply(const std::vector<index_t>& chunk_rows,
                  const std::vector<std::int8_t>& chunk_width,
                  const index_t* rp, const ColT* ci, const real_t* v,
                  const real_t* x, real_t* y) {
  const index_t nc = static_cast<index_t>(chunk_rows.size()) - 1;
#pragma omp parallel for schedule(static) if (nc > 1)
  for (index_t c = 0; c < nc; ++c) {
    chunk_multiply(chunk_rows[c], chunk_rows[c + 1], chunk_width[c], rp, ci,
                   v, x, y);
  }
}

/// Fused chunk body: y over [b, e) plus the chunk's partial <w, y> (and
/// optionally <y, y>), with `row` computing one row's product sum.  Four
/// rows per step feed four independent dot accumulators — a single
/// accumulator would serialise the whole chunk on the FMA latency chain —
/// combined in a fixed order at the end, so the result depends only on the
/// chunk bounds, never on the thread count.
template <bool WithNorm, typename RowFn>
inline void fused_rows(index_t b, index_t e, const real_t* w, real_t* y,
                       const RowFn& row, real_t& part_wy, real_t& part_yy) {
  real_t d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  real_t q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
  index_t i = b;
  for (; i + 4 <= e; i += 4) {
    const real_t s0 = row(i);
    const real_t s1 = row(i + 1);
    const real_t s2 = row(i + 2);
    const real_t s3 = row(i + 3);
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
    d0 += w[i] * s0;
    d1 += w[i + 1] * s1;
    d2 += w[i + 2] * s2;
    d3 += w[i + 3] * s3;
    if constexpr (WithNorm) {
      q0 += s0 * s0;
      q1 += s1 * s1;
      q2 += s2 * s2;
      q3 += s3 * s3;
    }
  }
  for (; i < e; ++i) {
    const real_t s = row(i);
    y[i] = s;
    d0 += w[i] * s;
    if constexpr (WithNorm) q0 += s * s;
  }
  part_wy = (d0 + d1) + (d2 + d3);
  part_yy = (q0 + q1) + (q2 + q3);
}

/// The generic fused chunk lives in its own function so the hot loop's
/// codegen is independent of the fixed-width dispatch below (folding the
/// two into one switch measurably pessimised this path).
template <bool WithNorm, typename ColT>
void chunk_multiply_fused_generic(index_t b, index_t e, const index_t* rp,
                                  const ColT* ci, const real_t* v,
                                  const real_t* x, const real_t* w,
                                  real_t* y, real_t& part_wy,
                                  real_t& part_yy) {
  fused_rows<WithNorm>(
      b, e, w, y, [&](index_t i) { return row_sum(i, rp, ci, v, x); },
      part_wy, part_yy);
}

/// Fused chunk for a uniform short row width.
template <bool WithNorm, typename ColT>
void chunk_multiply_fused_fixed(index_t b, index_t e, int width,
                                const index_t* rp, const ColT* ci,
                                const real_t* v, const real_t* x,
                                const real_t* w, real_t* y, real_t& part_wy,
                                real_t& part_yy) {
  switch (width) {
#define MCMI_FUSED_CASE(W)                                                  \
  case W:                                                                   \
    fused_rows<WithNorm>(                                                   \
        b, e, w, y,                                                         \
        [&](index_t i) {                                                    \
          return row_sum_fixed<W, ColT>(ci + rp[i], v + rp[i], x);          \
        },                                                                  \
        part_wy, part_yy);                                                  \
    break;
    MCMI_FUSED_CASE(1)
    MCMI_FUSED_CASE(2)
    MCMI_FUSED_CASE(3)
    MCMI_FUSED_CASE(4)
    MCMI_FUSED_CASE(5)
    MCMI_FUSED_CASE(6)
    MCMI_FUSED_CASE(7)
    MCMI_FUSED_CASE(8)
#undef MCMI_FUSED_CASE
    default:
      chunk_multiply_fused_generic<WithNorm>(b, e, rp, ci, v, x, w, y,
                                             part_wy, part_yy);
      break;
  }
}

template <bool WithNorm, typename ColT>
inline void chunk_multiply_fused(index_t b, index_t e, int width,
                                 const index_t* rp, const ColT* ci,
                                 const real_t* v, const real_t* x,
                                 const real_t* w, real_t* y, real_t& part_wy,
                                 real_t& part_yy) {
  if (width == 0) {
    chunk_multiply_fused_generic<WithNorm>(b, e, rp, ci, v, x, w, y, part_wy,
                                           part_yy);
  } else {
    chunk_multiply_fused_fixed<WithNorm>(b, e, width, rp, ci, v, x, w, y,
                                         part_wy, part_yy);
  }
}

template <bool WithNorm, typename ColT>
void run_multiply_fused(const std::vector<index_t>& chunk_rows,
                        const std::vector<std::int8_t>& chunk_width,
                        const index_t* rp, const ColT* ci, const real_t* v,
                        const real_t* x, const real_t* w, real_t* y,
                        real_t& dot_wy, real_t& norm_sq_y) {
  const index_t nc = static_cast<index_t>(chunk_rows.size()) - 1;
  std::vector<real_t> part_wy(static_cast<std::size_t>(nc), 0.0);
  std::vector<real_t> part_yy(static_cast<std::size_t>(nc), 0.0);
#pragma omp parallel for schedule(static) if (nc > 1)
  for (index_t c = 0; c < nc; ++c) {
    chunk_multiply_fused<WithNorm>(chunk_rows[c], chunk_rows[c + 1],
                                   chunk_width[c], rp, ci, v, x, w, y,
                                   part_wy[static_cast<std::size_t>(c)],
                                   part_yy[static_cast<std::size_t>(c)]);
  }
  real_t wy = 0.0;
  real_t yy = 0.0;
  // Fixed chunk order: the combination tree never sees the thread count.
  for (index_t c = 0; c < nc; ++c) {
    wy += part_wy[static_cast<std::size_t>(c)];
    yy += part_yy[static_cast<std::size_t>(c)];
  }
  dot_wy = wy;
  norm_sq_y = yy;
}

template <typename ColT>
void run_gather(const std::vector<index_t>& chunk_rows, const index_t* cp,
                const ColT* src_row, const index_t* src_pos, const real_t* v,
                const real_t* x, real_t* y) {
  const index_t nc = static_cast<index_t>(chunk_rows.size()) - 1;
#pragma omp parallel for schedule(static) if (nc > 1)
  for (index_t c = 0; c < nc; ++c) {
    for (index_t j = chunk_rows[c]; j < chunk_rows[c + 1]; ++j) {
      real_t s = 0.0;
      const index_t kb = cp[j];
      const index_t ke = cp[j + 1];
      for (index_t k = kb; k < ke; ++k) s += v[src_pos[k]] * x[src_row[k]];
      y[j] = s;
    }
  }
}

}  // namespace

std::vector<index_t> SpmvPlan::chunk_boundaries(
    index_t rows, const std::vector<index_t>& row_ptr) {
  if (rows < 0) rows = 0;
  const index_t nnz =
      row_ptr.empty() ? 0 : row_ptr[static_cast<std::size_t>(rows)];

  // Nnz-balanced chunk boundaries: chunk c ends at the first row whose
  // prefix nonzero count reaches c/chunks of the total.  Boundaries are a
  // pure function of the shape, so the decomposition — and with it every
  // fused reduction — is independent of the thread count.
  index_t chunks = std::min<index_t>(
      std::max<index_t>(rows, 1), (nnz + kChunkNnz - 1) / kChunkNnz);
  if (chunks < 1) chunks = 1;
  std::vector<index_t> chunk_rows(static_cast<std::size_t>(chunks) + 1);
  chunk_rows.front() = 0;
  chunk_rows.back() = rows;
  for (index_t c = 1; c < chunks; ++c) {
    const index_t target = nnz * c / chunks;
    index_t r = static_cast<index_t>(
        std::lower_bound(row_ptr.begin(),
                         row_ptr.begin() + static_cast<std::ptrdiff_t>(rows),
                         target) -
        row_ptr.begin());
    r = std::max(r, chunk_rows[static_cast<std::size_t>(c) - 1]);
    chunk_rows[static_cast<std::size_t>(c)] = std::min(r, rows);
  }
  return chunk_rows;
}

SpmvPlan SpmvPlan::build(index_t rows, index_t cols,
                         const std::vector<index_t>& row_ptr,
                         const std::vector<index_t>& col_idx) {
  SpmvPlan plan;
  if (rows < 0) rows = 0;
  plan.chunk_rows_ = chunk_boundaries(rows, row_ptr);
  const index_t chunks = static_cast<index_t>(plan.chunk_rows_.size()) - 1;

  // Uniform short-width detection per chunk for the unrolled kernels.
  plan.chunk_width_.assign(static_cast<std::size_t>(chunks), 0);
  for (index_t c = 0; c < chunks; ++c) {
    const index_t b = plan.chunk_rows_[static_cast<std::size_t>(c)];
    const index_t e = plan.chunk_rows_[static_cast<std::size_t>(c) + 1];
    if (b >= e) continue;
    const index_t w = row_ptr[b + 1] - row_ptr[b];
    if (w < 1 || w > 8) continue;
    bool uniform = true;
    for (index_t i = b + 1; i < e && uniform; ++i) {
      uniform = (row_ptr[i + 1] - row_ptr[i]) == w;
    }
    if (uniform) plan.chunk_width_[static_cast<std::size_t>(c)] =
        static_cast<std::int8_t>(w);
  }

  if (cols >= 0 &&
      cols <= static_cast<index_t>(std::numeric_limits<std::int32_t>::max())) {
    plan.col32_.assign(col_idx.begin(), col_idx.end());
  }
  return plan;
}

void SpmvPlan::multiply_chunk(index_t c, const index_t* row_ptr,
                              const index_t* col_idx, const real_t* values,
                              const real_t* x, real_t* y) const {
  const index_t b = chunk_rows_[static_cast<std::size_t>(c)];
  const index_t e = chunk_rows_[static_cast<std::size_t>(c) + 1];
  const int width = chunk_width_[static_cast<std::size_t>(c)];
  if (!col32_.empty()) {
    chunk_multiply(b, e, width, row_ptr, col32_.data(), values, x, y);
  } else {
    chunk_multiply(b, e, width, row_ptr, col_idx, values, x, y);
  }
}

void SpmvPlan::multiply(const index_t* row_ptr, const index_t* col_idx,
                        const real_t* values, const real_t* x,
                        real_t* y) const {
  if (num_chunks() == 0) return;
  if (!col32_.empty()) {
    run_multiply(chunk_rows_, chunk_width_, row_ptr, col32_.data(), values, x,
                 y);
  } else {
    run_multiply(chunk_rows_, chunk_width_, row_ptr, col_idx, values, x, y);
  }
}

real_t SpmvPlan::multiply_dot(const index_t* row_ptr, const index_t* col_idx,
                              const real_t* values, const real_t* x,
                              const real_t* w, real_t* y) const {
  if (num_chunks() == 0) return 0.0;
  real_t dot_wy = 0.0;
  real_t unused = 0.0;
  if (!col32_.empty()) {
    run_multiply_fused<false>(chunk_rows_, chunk_width_, row_ptr,
                              col32_.data(), values, x, w, y, dot_wy, unused);
  } else {
    run_multiply_fused<false>(chunk_rows_, chunk_width_, row_ptr, col_idx,
                              values, x, w, y, dot_wy, unused);
  }
  return dot_wy;
}

void SpmvPlan::multiply_dot_norm2(const index_t* row_ptr,
                                  const index_t* col_idx, const real_t* values,
                                  const real_t* x, const real_t* w, real_t* y,
                                  real_t& dot_wy, real_t& norm_sq_y) const {
  dot_wy = 0.0;
  norm_sq_y = 0.0;
  if (num_chunks() == 0) return;
  if (!col32_.empty()) {
    run_multiply_fused<true>(chunk_rows_, chunk_width_, row_ptr,
                             col32_.data(), values, x, w, y, dot_wy,
                             norm_sq_y);
  } else {
    run_multiply_fused<true>(chunk_rows_, chunk_width_, row_ptr, col_idx,
                             values, x, w, y, dot_wy, norm_sq_y);
  }
}

void SpmvPlan::multiply_gather(const index_t* col_ptr, const index_t* src_row,
                               const index_t* src_pos, const real_t* values,
                               const real_t* x, real_t* y) const {
  if (num_chunks() == 0) return;
  if (!col32_.empty()) {
    run_gather(chunk_rows_, col_ptr, col32_.data(), src_pos, values, x, y);
  } else {
    run_gather(chunk_rows_, col_ptr, src_row, src_pos, values, x, y);
  }
}

}  // namespace mcmi
