// The load-bearing correctness tests of the library: the DGEMM-based sigma
// (the paper's algorithm), the MOC baseline, and the explicit
// Slater-Condon Hamiltonian must agree to machine precision on random
// symmetry-blocked Hamiltonians across electron counts, point groups and
// target irreps; the distributed driver must reproduce make_sigma bit for
// bit.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "chem/pointgroup.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci/parallel_sigma.hpp"
#include "fci/sigma.hpp"
#include "fci/slater_condon.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace fcp = xfci::fcp;

namespace {

// Random integral tables respecting the orbital irrep structure: h is
// irrep-blocked, (pq|rs) vanishes unless the four irreps multiply to the
// totally symmetric irrep.
xi::IntegralTables random_tables(std::size_t norb, const std::string& group,
                                 std::vector<std::size_t> irreps,
                                 std::uint64_t seed) {
  xfci::Rng rng(seed);
  xi::IntegralTables t = xi::IntegralTables::empty(norb);
  t.group = xc::PointGroup::make(group);
  t.orbital_irreps = std::move(irreps);
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q) {
      const double v = (t.orbital_irreps[p] == t.orbital_irreps[q])
                           ? rng.uniform(-1, 1)
                           : 0.0;
      t.h(p, q) = v;
      t.h(q, p) = v;
    }
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          const std::size_t h4 = t.group.product(
              t.group.product(t.orbital_irreps[p], t.orbital_irreps[q]),
              t.group.product(t.orbital_irreps[r], t.orbital_irreps[s]));
          t.eri.set(p, q, r, s, h4 == 0 ? rng.uniform(-1, 1) : 0.0);
        }
  return t;
}

struct SigmaCase {
  std::size_t norb, na, nb;
  const char* group;
  std::vector<std::size_t> irreps;
  std::size_t target;
};

void expect_algorithms_agree(const SigmaCase& cs, std::uint64_t seed) {
  const auto tables = random_tables(cs.norb, cs.group, cs.irreps, seed);
  const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                          tables.orbital_irreps, cs.target);
  ASSERT_GT(space.dimension(), 0u);
  const xf::SigmaContext ctx(space, tables);

  xf::SigmaDense dense(space, tables);
  xfci::Rng rng(seed + 1);
  const std::vector<double> c = rng.signed_vector(space.dimension());
  std::vector<double> s_dense(c.size());
  dense.apply(c, s_dense);
  double norm = 0.0;
  for (const double v : s_dense) norm = std::max(norm, std::abs(v));

  for (const auto alg : {xf::Algorithm::kDgemm, xf::Algorithm::kMoc}) {
    const auto op = xf::make_sigma(alg, ctx);
    std::vector<double> s(c.size());
    op->apply(c, s);
    double d = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      d = std::max(d, std::abs(s[i] - s_dense[i]));
    EXPECT_LT(d, 1e-11 * std::max(1.0, norm))
        << xf::algorithm_name(alg) << " vs dense, dim=" << space.dimension();

    // The distributed driver on the simulated backend, with rank counts
    // that leave uneven (and, in tiny spaces, empty) column slices.
    for (const std::size_t nranks : {3u, 7u}) {
      fcp::ParallelOptions opt;
      opt.num_ranks = nranks;
      opt.algorithm = alg;
      fcp::ParallelSigma par(ctx, opt);
      std::vector<double> sp(c.size());
      par.apply(c, sp);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < c.size(); ++i)
        if (sp[i] != s[i]) ++mismatches;
      EXPECT_EQ(mismatches, 0u)
          << xf::algorithm_name(alg) << " P=" << nranks
          << " vs make_sigma, dim=" << space.dimension();
    }
  }
}

}  // namespace

class SigmaAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SigmaAgreement, RandomHamiltonians) {
  const int i = GetParam();
  static const std::vector<SigmaCase> cases = {
      // C1 cases across electron counts, including edge cases.
      {4, 1, 1, "C1", {0, 0, 0, 0}, 0},
      {4, 2, 2, "C1", {0, 0, 0, 0}, 0},
      {5, 2, 1, "C1", {0, 0, 0, 0, 0}, 0},
      {5, 3, 2, "C1", {0, 0, 0, 0, 0}, 0},
      {6, 2, 2, "C1", {0, 0, 0, 0, 0, 0}, 0},
      {4, 2, 0, "C1", {0, 0, 0, 0}, 0},     // no beta electrons
      {4, 0, 2, "C1", {0, 0, 0, 0}, 0},     // no alpha electrons
      {4, 1, 0, "C1", {0, 0, 0, 0}, 0},     // single electron
      {4, 4, 3, "C1", {0, 0, 0, 0}, 0},     // nearly full shell
      {3, 3, 3, "C1", {0, 0, 0}, 0},        // completely full
      // C2v with scrambled irreps, all four targets.
      {6, 2, 2, "C2v", {0, 1, 0, 2, 3, 1}, 0},
      {6, 2, 2, "C2v", {0, 1, 0, 2, 3, 1}, 1},
      {6, 2, 2, "C2v", {0, 1, 0, 2, 3, 1}, 2},
      {6, 2, 2, "C2v", {0, 1, 0, 2, 3, 1}, 3},
      {6, 3, 2, "C2v", {0, 0, 1, 2, 3, 3}, 2},
      // Open shell in Cs.
      {5, 3, 1, "Cs", {0, 1, 0, 1, 0}, 1},
      // D2h, the group of the paper's C2 benchmark.
      {8, 2, 2, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 0},
      {8, 3, 2, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 5},
      {8, 2, 2, "D2h", {0, 0, 5, 5, 6, 6, 7, 7}, 4},
  };
  ASSERT_LT(static_cast<std::size_t>(i), cases.size());
  expect_algorithms_agree(cases[static_cast<std::size_t>(i)],
                          1234 + static_cast<std::uint64_t>(i));
}

INSTANTIATE_TEST_SUITE_P(Cases, SigmaAgreement, ::testing::Range(0, 19));

TEST(Sigma, HermiticityOfDgemm) {
  // <x|H y> == <H x|y> for random vectors.
  const auto tables = random_tables(6, "C2v", {0, 1, 0, 2, 3, 1}, 99);
  const xf::CiSpace space(6, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);

  xfci::Rng rng(5);
  const auto x = rng.signed_vector(space.dimension());
  const auto y = rng.signed_vector(space.dimension());
  std::vector<double> hx(x.size()), hy(y.size());
  op->apply(x, hx);
  op->apply(y, hy);
  double xhy = 0.0, hxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    xhy += x[i] * hy[i];
    hxy += hx[i] * y[i];
  }
  EXPECT_NEAR(xhy, hxy, 1e-10 * std::max(1.0, std::abs(xhy)));
}

TEST(Sigma, LinearityOfDgemm) {
  const auto tables = random_tables(5, "C1", {0, 0, 0, 0, 0}, 7);
  const xf::CiSpace space(5, 2, 2, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);

  xfci::Rng rng(8);
  const auto x = rng.signed_vector(space.dimension());
  const auto y = rng.signed_vector(space.dimension());
  std::vector<double> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = 2.0 * x[i] - 3.0 * y[i];
  std::vector<double> hx(x.size()), hy(x.size()), hz(x.size());
  op->apply(x, hx);
  op->apply(y, hy);
  op->apply(z, hz);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(hz[i], 2.0 * hx[i] - 3.0 * hy[i], 1e-11);
}

TEST(Sigma, DiagonalMatchesSlaterCondon) {
  // hamiltonian_diagonal must equal <D|H|D> from hamiltonian_element.
  const auto tables = random_tables(6, "C2v", {0, 1, 2, 3, 0, 1}, 55);
  const xf::CiSpace space(6, 3, 2, tables.group, tables.orbital_irreps, 1);
  const auto diag = xf::hamiltonian_diagonal(space, tables);
  for (std::size_t i = 0; i < space.dimension(); i += 3) {
    const auto d = xf::determinant_at(space, i);
    EXPECT_NEAR(diag[i], xf::hamiltonian_element(tables, d, d), 1e-12);
  }
}

TEST(Sigma, DenseHamiltonianIsSymmetric) {
  const auto tables = random_tables(5, "C1", {0, 0, 0, 0, 0}, 3);
  const xf::CiSpace space(5, 2, 2, tables.group, tables.orbital_irreps, 0);
  const auto h = xf::build_dense_hamiltonian(space, tables);
  EXPECT_TRUE(h.is_symmetric(1e-12));
}

TEST(Sigma, StatsAccumulate) {
  const auto tables = random_tables(6, "C1", std::vector<std::size_t>(6, 0),
                                    11);
  const xf::CiSpace space(6, 3, 3, tables.group, tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  std::vector<double> c(space.dimension(), 1.0), s(space.dimension());

  // The counts of one sigma, pinned to the values the former serial
  // SigmaDgemm / SigmaMoc drivers reported for this space.
  const auto moc = xf::make_sigma(xf::Algorithm::kMoc, ctx);
  moc->apply(c, s);
  EXPECT_EQ(moc->stats().dgemm_flops, 0.0);
  EXPECT_EQ(moc->stats().indexed_ops, 91200.0);
  EXPECT_EQ(moc->stats().gather_words, 1200.0);
  EXPECT_EQ(moc->stats().scatter_words, 0.0);
  EXPECT_EQ(moc->stats().dgemm_shapes.size(), 0u);

  const auto op = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  op->apply(c, s);
  EXPECT_EQ(op->stats().dgemm_flops, 691200.0);
  EXPECT_EQ(op->stats().indexed_ops, 9600.0);
  EXPECT_EQ(op->stats().gather_words, 3600.0);
  EXPECT_EQ(op->stats().scatter_words, 3600.0);
  EXPECT_EQ(op->stats().dgemm_shapes.size(), 27u);

  const double f1 = op->stats().dgemm_flops;
  op->apply(c, s);
  EXPECT_NEAR(op->stats().dgemm_flops, 2.0 * f1, 1e-6);
  op->reset_stats();
  EXPECT_EQ(op->stats().dgemm_flops, 0.0);
}

TEST(Sigma, StatsIndependentOfThreadCount) {
  // Per-rank counters fold in rank order and per-task counters at the
  // ordered commit, so the threads backend reports identical stats --
  // shape order included -- for any thread count.
  const auto tables =
      random_tables(8, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 13);
  const xf::CiSpace space(8, 3, 2, tables.group, tables.orbital_irreps, 5);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(14);
  const auto c = rng.signed_vector(space.dimension());
  std::vector<double> s(c.size());
  for (const auto alg : {xf::Algorithm::kDgemm, xf::Algorithm::kMoc}) {
    xf::SigmaStats reference;
    for (const std::size_t nthreads : {1u, 2u, 4u}) {
      fcp::ParallelOptions opt;
      opt.num_ranks = 4;
      opt.algorithm = alg;
      opt.execution = fcp::ExecutionMode::kThreads;
      opt.num_threads = nthreads;
      fcp::ParallelSigma op(ctx, opt);
      op.apply(c, s);
      const xf::SigmaStats& st = op.stats();
      if (nthreads == 1) {
        EXPECT_GT(st.indexed_ops, 0.0);
        reference = st;
        continue;
      }
      EXPECT_EQ(st.dgemm_flops, reference.dgemm_flops) << nthreads;
      EXPECT_EQ(st.indexed_ops, reference.indexed_ops) << nthreads;
      EXPECT_EQ(st.gather_words, reference.gather_words) << nthreads;
      EXPECT_EQ(st.scatter_words, reference.scatter_words) << nthreads;
      EXPECT_EQ(st.element_count, reference.element_count) << nthreads;
      EXPECT_EQ(st.dgemm_shapes, reference.dgemm_shapes) << nthreads;
    }
  }
}

TEST(TransposeVector, RoundTripIsIdentity) {
  const auto group = xc::PointGroup::make("C2v");
  const std::vector<std::size_t> irreps = {0, 1, 0, 2, 3};
  const xf::CiSpace space(5, 2, 3, group, irreps, 2);
  xfci::Rng rng(21);
  const auto v = rng.signed_vector(space.dimension());
  std::vector<double> t, back;
  space.transpose_vector(v, t);
  space.transposed().transpose_vector(t, back);
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_DOUBLE_EQ(back[i], v[i]);
}
