#pragma once
// Statistics helpers of the end-to-end benchmark: the percentile rule,
// span self time and failure accounting.  Header-only so the self-test
// (tests/test_metrics.cpp) checks exactly the code the benchmark runs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace e2e {

/// Nearest-rank quantile: the smallest sample with at least q*n samples at
/// or below it.  q in [0, 1]; an empty sample gives 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Arithmetic mean; an empty sample gives 0.
inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Weighted geometric mean exp(sum w_i log v_i / sum w_i) over the entries
/// with a positive weight; 0 when one of them is 0 (the limit) or when no
/// weight is positive.
inline double weighted_geomean(const std::vector<double>& v,
                               const std::vector<double>& w) {
  double acc = 0.0, wsum = 0.0;
  for (std::size_t i = 0; i < std::min(v.size(), w.size()); ++i) {
    if (!(w[i] > 0)) continue;
    if (!(v[i] > 0)) return 0.0;
    acc += w[i] * std::log(v[i]);
    wsum += w[i];
  }
  return wsum > 0 ? std::exp(acc / wsum) : 0.0;
}

/// A tail percentile reported under the "at least `beyond` samples beyond
/// it" rule.
struct Tail {
  double q = 0.5;       ///< the quantile actually reported
  double value = 0.0;   ///< its value
  std::size_t n = 0;    ///< sample count
};

/// The highest quantile up to `q_max` that has at least `beyond` samples
/// above its nearest rank; the median when the sample is too small for any
/// tail (fewer than 2 * beyond samples).
inline Tail supported_tail(const std::vector<double>& v, double q_max = 0.99,
                           std::size_t beyond = 10) {
  Tail t;
  t.n = v.size();
  if (v.size() >= beyond) {
    const double n = static_cast<double>(v.size());
    const double q_fit = (n - static_cast<double>(beyond)) / n;
    t.q = std::max(0.5, std::min(q_max, q_fit));
  }
  t.value = quantile(v, t.q);
  return t;
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent, overlaps
/// counted once).  Index-aligned with `spans`.
inline std::vector<double> self_times(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

/// Failure accounting: every attempted answer ends ok or with one cause
/// (not converged, residual over bound, digest mismatch, refused, shed,
/// expired, ...).  A failure counts as missing every latency limit.
class Outcomes {
 public:
  void ok() { ++attempted_; }
  void fail(const std::string& cause) {
    ++attempted_;
    ++failed_;
    ++causes_[cause];
  }
  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  [[nodiscard]] double fail_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  [[nodiscard]] const std::map<std::string, long>& causes() const {
    return causes_;
  }

  /// Latency samples for a limit check: failed answers are replaced by
  /// +infinity so they miss every limit.
  [[nodiscard]] static std::vector<double> with_misses(
      const std::vector<double>& ok_latencies, long failures) {
    std::vector<double> v = ok_latencies;
    v.insert(v.end(), static_cast<std::size_t>(std::max(0L, failures)),
             HUGE_VAL);
    return v;
  }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::map<std::string, long> causes_;
};

}  // namespace e2e
