// Property suite for the fused vector kernels of sparse/vector_ops.hpp:
// every fused kernel must be *bit-identical* to the composition of the
// primitives it replaced, at any OpenMP thread count and on sizes that are
// not multiples of the reduction block (kBlock = 4096) on both sides of the
// parallel threshold (kParallelThreshold = 16384).  The Krylov solvers
// rely on this — swapping a composed sequence for its fused kernel must
// never change a solve by a single bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "sparse/vector_ops.hpp"

namespace mcmi {
namespace {

// Straddles kBlock (4096) and kParallelThreshold (16384) with remainders:
// serial path, one-partial-block parallel edge, and a ragged multi-block
// parallel case.
const std::size_t kSizes[] = {7, 4095, 4097, 16383, 16385, 20001};

std::vector<real_t> test_vec(std::size_t n, u64 salt) {
  std::vector<real_t> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<real_t>(i + 1) * 0.37 +
                    static_cast<real_t>(salt) * 1.61);
  }
  return x;
}

u64 bits_of(real_t v) {
  u64 b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void expect_same_bits(const std::vector<real_t>& a,
                      const std::vector<real_t>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits_of(a[i]), bits_of(b[i])) << what << " at " << i;
  }
}

/// Run `fn` under 1, 2, and 4 OpenMP threads (once when OpenMP is off).
template <typename Fn>
void for_thread_counts(const Fn& fn) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (int t : {1, 2, 4}) {
    omp_set_num_threads(t);
    fn();
  }
  omp_set_num_threads(saved);
#else
  fn();
#endif
}

TEST(VectorOps, Axpy2MatchesComposedAxpys) {
  for (std::size_t n : kSizes) {
    const auto q = test_vec(n, 1);
    const auto aq = test_vec(n, 2);
    for_thread_counts([&] {
      auto x = test_vec(n, 3);
      auto r = test_vec(n, 4);
      auto x_ref = x;
      auto r_ref = r;
      axpy2(0.375, q, aq, x, r);
      axpy(0.375, q, x_ref);
      axpy(-0.375, aq, r_ref);
      expect_same_bits(x, x_ref, "axpy2 x");
      expect_same_bits(r, r_ref, "axpy2 r");
    });
  }
}

TEST(VectorOps, AxpyDotMatchesAxpyThenDot) {
  for (std::size_t n : kSizes) {
    const auto d = test_vec(n, 5);
    const auto w = test_vec(n, 6);
    for_thread_counts([&] {
      auto y = test_vec(n, 7);
      auto y_ref = y;
      const real_t fused = axpy_dot(-0.625, d, y, w);
      axpy(-0.625, d, y_ref);
      const real_t composed = dot(w, y_ref);
      expect_same_bits(y, y_ref, "axpy_dot y");
      EXPECT_EQ(bits_of(fused), bits_of(composed));
    });
  }
}

TEST(VectorOps, AxpyNorm2SqMatchesAxpyThenDot) {
  for (std::size_t n : kSizes) {
    const auto d = test_vec(n, 8);
    for_thread_counts([&] {
      auto y = test_vec(n, 9);
      auto y_ref = y;
      const real_t fused = axpy_norm2_sq(1.25, d, y);
      axpy(1.25, d, y_ref);
      const real_t composed = dot(y_ref, y_ref);
      expect_same_bits(y, y_ref, "axpy_norm2_sq y");
      EXPECT_EQ(bits_of(fused), bits_of(composed));
    });
  }
}

TEST(VectorOps, AxpyPairMatchesElementwiseReference) {
  for (std::size_t n : kSizes) {
    const auto p = test_vec(n, 10);
    const auto s = test_vec(n, 11);
    for_thread_counts([&] {
      auto x = test_vec(n, 12);
      auto x_ref = x;
      axpy_pair(0.5, p, -0.75, s, x);
      for (std::size_t i = 0; i < n; ++i) {
        x_ref[i] += 0.5 * p[i] + -0.75 * s[i];
      }
      expect_same_bits(x, x_ref, "axpy_pair x");
    });
  }
}

TEST(VectorOps, BicgstabPUpdateMatchesElementwiseReference) {
  for (std::size_t n : kSizes) {
    const auto r = test_vec(n, 13);
    const auto v = test_vec(n, 14);
    for_thread_counts([&] {
      auto p = test_vec(n, 15);
      auto p_ref = p;
      bicgstab_p_update(r, 0.875, 0.3125, v, p);
      for (std::size_t i = 0; i < n; ++i) {
        p_ref[i] = r[i] + 0.875 * (p_ref[i] - 0.3125 * v[i]);
      }
      expect_same_bits(p, p_ref, "bicgstab_p_update p");
    });
  }
}

TEST(VectorOps, SubScaledNormMatchesReferenceAndDot) {
  for (std::size_t n : kSizes) {
    const auto x = test_vec(n, 16);
    const auto y = test_vec(n, 17);
    for_thread_counts([&] {
      std::vector<real_t> out;
      const real_t fused = sub_scaled_norm(x, 0.4375, y, out);
      std::vector<real_t> out_ref(n);
      for (std::size_t i = 0; i < n; ++i) out_ref[i] = x[i] - 0.4375 * y[i];
      expect_same_bits(out, out_ref, "sub_scaled_norm out");
      // The fused sum-of-squares shares dot()'s fixed-block reduction.
      EXPECT_EQ(bits_of(fused), bits_of(std::sqrt(dot(out_ref, out_ref))));
    });
  }
}

TEST(VectorOps, FusedKernelsThreadCountInvariant) {
  // Every fused reduction at 2 and 4 threads must reproduce its 1-thread
  // bits exactly (the fixed-block contract the Krylov determinism tests
  // assume).  Large ragged size so the parallel path actually splits.
  const std::size_t n = 20001;
  const auto p = test_vec(n, 22);
  const auto s = test_vec(n, 23);
  const auto t = test_vec(n, 24);
  std::vector<u64> reference;
  for_thread_counts([&] {
    auto x = test_vec(n, 25);
    std::vector<real_t> r;
    axpy_pair(0.5, p, 0.25, s, x);
    const real_t nrm = sub_scaled_norm(s, 0.25, t, r);
    auto y = test_vec(n, 26);
    const real_t d = axpy_dot(0.75, p, y, s);
    const real_t q = axpy_norm2_sq(-0.5, t, y);
    std::vector<u64> got = {bits_of(nrm), bits_of(d), bits_of(q),
                            bits_of(x[17]), bits_of(r[n - 1]),
                            bits_of(y[4096])};
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference);
    }
  });
}

}  // namespace
}  // namespace mcmi
