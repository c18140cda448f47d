// Tests for the dense linear algebra substrate: blocked GEMM against the
// reference kernel, level-1 kernels, eigensolvers and linear solvers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "linalg/gemm_kernels.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

namespace xl = xfci::linalg;

namespace {

xl::Matrix random_matrix(std::size_t r, std::size_t c, xfci::Rng& rng) {
  xl::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1, 1);
  return m;
}

xl::Matrix random_symmetric(std::size_t n, xfci::Rng& rng) {
  xl::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1, 1);
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

}  // namespace

// ---------------------------------------------------------------- GEMM ----

struct GemmShape {
  std::size_t m, n, k;
  bool ta, tb;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesReference) {
  const auto p = GetParam();
  xfci::Rng rng(7 + p.m * 131 + p.n * 17 + p.k);
  // Stored shapes depend on transposition flags.
  const std::size_t ar = p.ta ? p.k : p.m, ac = p.ta ? p.m : p.k;
  const std::size_t br = p.tb ? p.n : p.k, bc = p.tb ? p.k : p.n;
  const xl::Matrix a = random_matrix(ar, ac, rng);
  const xl::Matrix b = random_matrix(br, bc, rng);
  xl::Matrix c1 = random_matrix(p.m, p.n, rng);
  xl::Matrix c2 = c1;

  const double alpha = 1.37, beta = -0.25;
  xl::gemm(p.ta, p.tb, p.m, p.n, p.k, alpha, a.data(), a.cols(), b.data(),
           b.cols(), beta, c1.data(), c1.cols());
  xl::gemm_reference(p.ta, p.tb, p.m, p.n, p.k, alpha, a.data(), a.cols(),
                     b.data(), b.cols(), beta, c2.data(), c2.cols());
  EXPECT_LT(c1.max_abs_diff(c2), 1e-11 * (1.0 + static_cast<double>(p.k)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(
        GemmShape{1, 1, 1, false, false}, GemmShape{3, 5, 7, false, false},
        GemmShape{4, 8, 16, false, false}, GemmShape{5, 9, 3, true, false},
        GemmShape{6, 2, 11, false, true}, GemmShape{7, 7, 7, true, true},
        GemmShape{64, 64, 64, false, false},
        GemmShape{129, 65, 257, false, false},
        GemmShape{130, 140, 150, true, false},
        GemmShape{33, 200, 12, false, true},
        GemmShape{200, 1, 300, false, false},
        GemmShape{1, 300, 200, false, false},
        GemmShape{255, 255, 5, true, true}));

TEST(Gemm, BetaZeroOverwritesNaNFree) {
  // beta = 0 must overwrite C even if C holds garbage.
  xl::Matrix a(2, 2), b(2, 2), c(2, 2, std::nan(""));
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  b(0, 0) = 3.0;
  b(1, 1) = 4.0;
  xl::gemm(false, false, 2, 2, 2, 1.0, a.data(), 2, b.data(), 2, 0.0,
           c.data(), 2);
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.0);
}

TEST(Gemm, KZeroScalesOnly) {
  xl::Matrix c(2, 3, 2.0);
  xl::gemm(false, false, 2, 3, 0, 1.0, nullptr, 1, nullptr, 3, 0.5, c.data(),
           3);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_DOUBLE_EQ(c.data()[i], 1.0);
}

TEST(Gemm, StridedOutputLeavesGapsUntouched) {
  // C has ldc > n; the gap column must not be written.
  std::vector<double> c(2 * 4, 9.0);
  xl::Matrix a(2, 2, 1.0), b(2, 3, 1.0);
  xl::gemm(false, false, 2, 3, 2, 1.0, a.data(), 2, b.data(), 3, 0.0,
           c.data(), 4);
  EXPECT_DOUBLE_EQ(c[0 * 4 + 0], 2.0);
  EXPECT_DOUBLE_EQ(c[0 * 4 + 3], 9.0);
  EXPECT_DOUBLE_EQ(c[1 * 4 + 3], 9.0);
}

// ------------------------------------------------- dispatched kernels -----

namespace {

/// Restores the cpuid-dispatched default kernel when a test scope ends.
struct KernelGuard {
  ~KernelGuard() { xl::set_gemm_kernel(""); }
};

std::vector<double> random_buffer(std::size_t n, xfci::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

}  // namespace

TEST(GemmKernels, RegistryListsPortableFirst) {
  const auto names = xl::gemm_kernel_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "portable");
  EXPECT_FALSE(xl::set_gemm_kernel("no-such-kernel"));
  KernelGuard guard;
  for (const auto& name : names) {
    EXPECT_TRUE(xl::set_gemm_kernel(name)) << name;
    EXPECT_STREQ(xl::gemm_kernel_name(), name.c_str());
    const auto blk = xl::gemm_blocking();
    EXPECT_GE(blk.mc, blk.mr);
    EXPECT_GE(blk.nc, blk.nr);
  }
}

// Every compiled-and-supported kernel must agree with gemm_reference over
// shapes that straddle the register tile and cache-block boundaries, all
// four transpose combinations, and leading dimensions larger than minimal.
TEST(GemmKernels, ConformanceSweep) {
  KernelGuard guard;
  for (const auto& name : xl::gemm_kernel_names()) {
    ASSERT_TRUE(xl::set_gemm_kernel(name));
    const auto blk = xl::gemm_blocking();
    const std::size_t shapes[][3] = {
        {blk.mr - 1, blk.nr - 1, 3},      {blk.mr, blk.nr, 8},
        {blk.mr + 1, blk.nr + 1, 9},      {2 * blk.mr + 3, 3 * blk.nr - 1, 17},
        {blk.mc - 1, blk.nr + 2, 31},     {blk.mc + 1, 2 * blk.nr + 5, 33},
        {blk.mr + 2, blk.nr, blk.kc + 1},
    };
    xfci::Rng rng(101);
    for (const auto& s : shapes) {
      const std::size_t m = s[0], n = s[1], k = s[2];
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          const std::size_t ar = ta ? k : m, ac = ta ? m : k;
          const std::size_t br = tb ? n : k, bc = tb ? k : n;
          const std::size_t lda = ac + 3, ldb = bc + 2, ldc = n + 5;
          const auto a = random_buffer(ar * lda, rng);
          const auto b = random_buffer(br * ldb, rng);
          auto c1 = random_buffer(m * ldc, rng);
          auto c2 = c1;
          xl::gemm(ta, tb, m, n, k, 1.2, a.data(), lda, b.data(), ldb, -0.3,
                   c1.data(), ldc);
          xl::gemm_reference(ta, tb, m, n, k, 1.2, a.data(), lda, b.data(),
                             ldb, -0.3, c2.data(), ldc);
          double max_diff = 0.0;
          for (std::size_t i = 0; i < c1.size(); ++i)
            max_diff = std::max(max_diff, std::abs(c1[i] - c2[i]));
          EXPECT_LT(max_diff, 1e-11 * (1.0 + static_cast<double>(k)))
              << name << " m=" << m << " n=" << n << " k=" << k
              << " ta=" << ta << " tb=" << tb;
        }
      }
    }
  }
}

// ------------------------------------------------- degenerate contract ----

TEST(GemmContract, LdcTooSmallThrowsInBoth) {
  std::vector<double> a(4, 1.0), b(4, 1.0), c(4, 0.0);
  EXPECT_THROW(xl::gemm(false, false, 2, 2, 2, 1.0, a.data(), 2, b.data(), 2,
                        0.0, c.data(), 1),
               xfci::Error);
  EXPECT_THROW(xl::gemm_reference(false, false, 2, 2, 2, 1.0, a.data(), 2,
                                  b.data(), 2, 0.0, c.data(), 1),
               xfci::Error);
}

TEST(GemmContract, LdaTooSmallThrowsOnlyWhenRead) {
  std::vector<double> a(4, 1.0), b(4, 1.0), c(4, 2.0);
  // lda = 1 < k = 2 is malformed when the product term reads A...
  EXPECT_THROW(xl::gemm(false, false, 2, 2, 2, 1.0, a.data(), 1, b.data(), 2,
                        0.0, c.data(), 2),
               xfci::Error);
  EXPECT_THROW(xl::gemm_reference(false, false, 2, 2, 2, 1.0, a.data(), 1,
                                  b.data(), 2, 0.0, c.data(), 2),
               xfci::Error);
  // ...but alpha = 0 never reads A or B, so the same call scales C only.
  xl::gemm(false, false, 2, 2, 2, 0.0, a.data(), 1, b.data(), 2, 0.5,
           c.data(), 2);
  for (const double v : c) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(GemmContract, AlphaZeroNeverReadsAB) {
  // nullptr A/B with alpha = 0 must be legal in both implementations.
  std::vector<double> c1(6, 4.0), c2(6, 4.0);
  xl::gemm(false, false, 2, 3, 5, 0.0, nullptr, 5, nullptr, 3, 0.25,
           c1.data(), 3);
  xl::gemm_reference(false, false, 2, 3, 5, 0.0, nullptr, 5, nullptr, 3,
                     0.25, c2.data(), 3);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_DOUBLE_EQ(c1[i], 1.0);
    EXPECT_DOUBLE_EQ(c1[i], c2[i]);
  }
}

TEST(GemmContract, EmptyOutputIsNoop) {
  // m == 0 / n == 0: no C element exists, nothing may be touched and the
  // (irrelevant) ldc must not be validated against n.
  std::vector<double> b(4, 1.0);
  xl::gemm(false, false, 0, 2, 2, 1.0, nullptr, 2, b.data(), 2, 0.0, nullptr,
           0);
  xl::gemm_reference(false, false, 0, 2, 2, 1.0, nullptr, 2, b.data(), 2,
                     0.0, nullptr, 0);
  std::vector<double> a(4, 1.0), c(2, 7.0);
  xl::gemm(false, false, 2, 0, 2, 1.0, a.data(), 2, nullptr, 0, 0.0,
           c.data(), 1);
  EXPECT_DOUBLE_EQ(c[0], 7.0);  // no row has any column to scale
  EXPECT_DOUBLE_EQ(c[1], 7.0);
}

TEST(GemmContract, KZeroAgreesWithReference) {
  std::vector<double> c1(6, 2.0), c2(6, 2.0);
  xl::gemm(false, false, 2, 3, 0, 1.0, nullptr, 1, nullptr, 3, 0.5,
           c1.data(), 3);
  xl::gemm_reference(false, false, 2, 3, 0, 1.0, nullptr, 1, nullptr, 3, 0.5,
                     c2.data(), 3);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_DOUBLE_EQ(c1[i], 1.0);
    EXPECT_DOUBLE_EQ(c1[i], c2[i]);
  }
}

// ------------------------------------------------------------- Matrix -----

TEST(Matrix, TransposeRoundTrip) {
  xfci::Rng rng(3);
  const xl::Matrix a = random_matrix(37, 53, rng);
  EXPECT_EQ(a.transposed().transposed().max_abs_diff(a), 0.0);
}

TEST(Matrix, IdentityMultiplication) {
  xfci::Rng rng(4);
  const xl::Matrix a = random_matrix(20, 20, rng);
  const xl::Matrix i = xl::Matrix::identity(20);
  EXPECT_LT((a * i).max_abs_diff(a), 1e-14);
  EXPECT_LT((i * a).max_abs_diff(a), 1e-14);
}

TEST(Matrix, OutOfRangeThrows) {
  xl::Matrix a(2, 3);
  EXPECT_THROW(a(2, 0), xfci::Error);
  EXPECT_THROW(a(0, 3), xfci::Error);
  EXPECT_THROW(a * a, xfci::Error);  // 2x3 * 2x3 shape mismatch
}

// ------------------------------------------------------------- kernels ----

TEST(Kernels, DaxpyDotNrm2) {
  std::vector<double> x = {1, 2, 3}, y = {4, 5, 6};
  xl::daxpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(xl::dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(xl::nrm2(x), std::sqrt(14.0));
}

TEST(Kernels, Axpby) {
  std::vector<double> x = {1, 2}, y = {10, 20};
  xl::axpby(3.0, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 8.0);
  EXPECT_DOUBLE_EQ(y[1], 16.0);
}

TEST(Kernels, GatherScatter) {
  std::vector<double> in = {10, 20, 30, 40};
  std::vector<std::uint32_t> idx = {3, 1};
  std::vector<double> out(2);
  xl::gather(in, idx, out);
  EXPECT_DOUBLE_EQ(out[0], 40.0);
  EXPECT_DOUBLE_EQ(out[1], 20.0);

  std::vector<double> acc(4, 0.0);
  std::vector<double> alpha = {2.0, -1.0};
  xl::scatter_axpy(out, idx, alpha, acc);
  EXPECT_DOUBLE_EQ(acc[3], 80.0);
  EXPECT_DOUBLE_EQ(acc[1], -20.0);
  EXPECT_DOUBLE_EQ(acc[0], 0.0);
}

// --------------------------------------------------------------- eigh -----

class EighTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EighTest, ReconstructsMatrix) {
  const std::size_t n = GetParam();
  xfci::Rng rng(n);
  const xl::Matrix a = random_symmetric(n, rng);
  const auto eig = xl::eigh(a);

  // Eigenvalues ascending.
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(eig.values[i - 1], eig.values[i] + 1e-14);

  // A V = V diag(w).
  const xl::Matrix av = a * eig.vectors;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av(i, j), eig.values[j] * eig.vectors(i, j), 1e-10);

  // V orthonormal.
  const xl::Matrix vtv = eig.vectors.transposed() * eig.vectors;
  EXPECT_LT(vtv.max_abs_diff(xl::Matrix::identity(n)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

TEST(Eigh, DiagonalMatrix) {
  xl::Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 2.0;
  const auto eig = xl::eigh(a);
  EXPECT_NEAR(eig.values[0], -1.0, 1e-14);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-14);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-14);
}

// ------------------------------------------------------ 2x2 generalized ---

TEST(Gen2x2, ReducesToStandardWithIdentityMetric) {
  const auto r = xl::lowest_gen_eig_2x2(2.0, 1.0, 4.0, 1.0, 0.0, 1.0);
  // Eigenvalues of [[2,1],[1,4]] are 3 -+ sqrt(2).
  EXPECT_NEAR(r.eigenvalue, 3.0 - std::sqrt(2.0), 1e-12);
  // Residual check (H - E) x = 0.
  EXPECT_NEAR((2.0 - r.eigenvalue) * r.x0 + 1.0 * r.x1, 0.0, 1e-10);
}

TEST(Gen2x2, GeneralMetricSatisfiesResidual) {
  xfci::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const double h00 = rng.uniform(-2, 2);
    const double h01 = rng.uniform(-2, 2);
    const double h11 = rng.uniform(-2, 2);
    const double s01 = rng.uniform(-0.5, 0.5);
    const double s00 = 1.0 + rng.uniform(0, 1);
    const double s11 = 1.0 + rng.uniform(0, 1);
    const auto r = xl::lowest_gen_eig_2x2(h00, h01, h11, s00, s01, s11);
    const double r0 =
        (h00 - r.eigenvalue * s00) * r.x0 + (h01 - r.eigenvalue * s01) * r.x1;
    const double r1 =
        (h01 - r.eigenvalue * s01) * r.x0 + (h11 - r.eigenvalue * s11) * r.x1;
    EXPECT_NEAR(r0, 0.0, 1e-8);
    EXPECT_NEAR(r1, 0.0, 1e-8);
    // Rayleigh quotient of the eigenvector equals the eigenvalue.
    const double num = h00 * r.x0 * r.x0 + 2 * h01 * r.x0 * r.x1 +
                       h11 * r.x1 * r.x1;
    const double den = s00 * r.x0 * r.x0 + 2 * s01 * r.x0 * r.x1 +
                       s11 * r.x1 * r.x1;
    EXPECT_NEAR(num / den, r.eigenvalue, 1e-8);
  }
}

// -------------------------------------------------------------- solvers ---

TEST(Cholesky, FactorReconstructs) {
  xfci::Rng rng(5);
  const std::size_t n = 12;
  xl::Matrix g = random_matrix(n, n, rng);
  // A = G G^T + n I is positive definite.
  xl::Matrix a = g * g.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  const xl::Matrix l = xl::cholesky(a);
  EXPECT_LT((l * l.transposed()).max_abs_diff(a), 1e-10);
  // Strictly upper part must be zero.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  xl::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_THROW(xl::cholesky(a), xfci::Error);
}

TEST(LuSolve, SolvesRandomSystems) {
  xfci::Rng rng(6);
  for (std::size_t n : {1u, 2u, 5u, 17u}) {
    xl::Matrix a = random_matrix(n, n, rng);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;  // well-conditioned
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-1, 1);
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];
    const auto x = xl::lu_solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
  }
}

TEST(LuSolve, ThrowsOnSingular) {
  xl::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(xl::lu_solve(a, {1.0, 1.0}), xfci::Error);
}

TEST(SymSolvePinv, DropsNullspace) {
  // Singular symmetric system: solve in the range, ignore the nullspace.
  xl::Matrix a(2, 2);
  a(0, 0) = 2.0;  // rank-1
  const std::vector<double> b = {4.0, 0.0};
  const auto x = xl::sym_solve_pinv(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}
