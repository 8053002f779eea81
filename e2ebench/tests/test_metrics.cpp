// Self-test of the benchmark's statistics helpers: the percentile rule,
// the weighted geometric mean of the serving metrics, span self-time
// arithmetic and failure accounting.  Exits non-zero on the
// first failed check (checks stay on in every build type).

#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_quantiles() {
  check(near(e2e::quantile(one_to(10), 0.5), 5.0), "median of 1..10 is 5");
  check(near(e2e::quantile(one_to(11), 0.5), 6.0), "median of 1..11 is 6");
  check(near(e2e::quantile(one_to(100), 0.99), 99.0), "p99 of 1..100 is 99");
  check(near(e2e::quantile({}, 0.5), 0.0), "empty sample gives 0");
  check(near(e2e::quantile(one_to(3), 1.0), 3.0), "q = 1 is the maximum");
  check(near(e2e::mean(one_to(10)), 5.5), "mean of 1..10 is 5.5");
  check(near(e2e::mean({}), 0.0), "mean of an empty sample is 0");
}

void test_weighted_geomean() {
  check(near(e2e::weighted_geomean({2.0, 8.0}, {1.0, 1.0}), 4.0),
        "equal weights: geometric mean");
  check(near(e2e::weighted_geomean({2.0, 8.0}, {3.0, 1.0}),
             std::exp((3.0 * std::log(2.0) + std::log(8.0)) / 4.0)),
        "weights need not sum to 1");
  // A family with share w that gets f times slower moves the mean by f^w.
  const double base = e2e::weighted_geomean({1.0, 5.0, 9.0}, {0.5, 0.3, 0.2});
  const double slow = e2e::weighted_geomean({1.0, 5.0, 18.0}, {0.5, 0.3, 0.2});
  check(std::fabs(slow / base - std::pow(2.0, 0.2)) < 1e-12,
        "a family's slowdown shows by its share");
  check(near(e2e::weighted_geomean({3.0, 0.0}, {1.0, 0.0}), 3.0),
        "zero-weight entries are left out");
  check(near(e2e::weighted_geomean({3.0, 0.0}, {1.0, 1.0}), 0.0),
        "a weighted zero gives 0");
  check(near(e2e::weighted_geomean({}, {}), 0.0), "empty input gives 0");
}

void test_percentile_rule() {
  // 1000 samples: p99 has exactly 10 samples beyond it.
  e2e::Tail t = e2e::supported_tail(one_to(1000));
  check(near(t.q, 0.99) && near(t.value, 990.0), "p99 supported at n=1000");
  // 500 samples: p99 would have 5 beyond; the rule falls back to p98.
  t = e2e::supported_tail(one_to(500));
  check(near(t.q, 0.98) && near(t.value, 490.0), "p98 reported at n=500");
  int beyond = 0;
  for (double x : one_to(500)) beyond += x > t.value;
  check(beyond == 10, "exactly ten samples beyond the reported tail");
  // Too few samples for any tail: the median.
  t = e2e::supported_tail(one_to(15));
  check(near(t.q, 0.5) && near(t.value, 8.0), "median when n < 20");
  check(e2e::supported_tail(one_to(4)).n == 4, "sample count recorded");
}

void test_self_times() {
  using S = e2e::Tracer::Span;
  // root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [6, 7];
  // grandchild [1.5, 2.5] inside the first child.
  const std::vector<S> spans = {
      {"root", 0, -1, 0.0, 10.0}, {"a", 0, 0, 1.0, 3.0},
      {"b", 0, 0, 2.0, 5.0},      {"c", 0, 0, 6.0, 7.0},
      {"a1", 0, 1, 1.5, 2.5},     {"late", 0, 0, 9.5, 12.0}};
  const std::vector<double> self = e2e::self_times(spans);
  // Root covered: [1, 5] + [6, 7] + [9.5, 10] (clipped) = 5.5.
  check(near(self[0], 4.5), "root self time subtracts the union of children");
  check(near(self[1], 1.0), "child self time subtracts its own child");
  check(near(self[2], 3.0), "leaf self time is its duration");
  check(near(self[4], 1.0), "grandchild is a leaf");
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name[0] != 'l') total += self[i];
  }
  // Overlap of a and b ([2, 3]) is counted in both children but once in
  // the root, so the self times sum to root duration + that overlap -
  // the clipped-away part of "late".
  check(near(total, 10.0 + 1.0 - 0.5), "self times add up along the tree");
}

void test_outcomes() {
  e2e::Outcomes o;
  check(near(o.fail_frac(), 0.0), "no attempts: fail_frac 0");
  o.ok();
  o.ok();
  o.fail("residual");
  o.fail("expired");
  o.fail("residual");
  check(o.attempted() == 5 && o.failed() == 3, "attempted and failed counts");
  check(near(o.fail_frac(), 0.6), "fail_frac = failed / attempted");
  check(o.causes().at("residual") == 2, "failures grouped by cause");
  // A failure misses every latency limit.
  const std::vector<double> v = e2e::Outcomes::with_misses({1.0, 2.0}, 2);
  check(v.size() == 4 && std::isinf(e2e::quantile(v, 0.75)),
        "failed answers sort beyond every latency");
  check(near(e2e::median(v), 2.0), "median counts the misses");
}

}  // namespace

int main() {
  test_quantiles();
  test_weighted_geomean();
  test_percentile_rule();
  test_self_times();
  test_outcomes();
  if (failures == 0) std::printf("e2ebench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
