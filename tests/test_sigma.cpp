// The load-bearing correctness tests of the library: the DGEMM-based sigma
// (the paper's algorithm), the MOC baseline, and the explicit
// Slater-Condon Hamiltonian must agree to machine precision on random
// symmetry-blocked Hamiltonians across electron counts, point groups and
// target irreps; the distributed driver must reproduce make_sigma bit for
// bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "chem/pointgroup.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci/parallel_sigma.hpp"
#include "fci/sigma.hpp"
#include "fci/slater_condon.hpp"
#include "linalg/gemm_kernels.hpp"

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
  // hamiltonian_diagonal (per-beta-string Coulomb partial sums) must equal
  // <D|H|D> from hamiltonian_element on every determinant: a C2v open
  // shell, a D2h closed shell, the 8/4/2 D2h open shell, C1, and a space
  // with a single alpha electron.
  const std::vector<SigmaCase> cases = {
      {6, 3, 2, "C2v", {0, 1, 2, 3, 0, 1}, 1},
      {8, 3, 3, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 0},
      {8, 4, 2, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 3},
      {7, 3, 3, "C1", {0, 0, 0, 0, 0, 0, 0}, 0},
      {7, 1, 3, "C2v", {0, 1, 0, 2, 3, 1, 0}, 1},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const SigmaCase& cs = cases[c];
    const auto tables = random_tables(cs.norb, cs.group, cs.irreps, 55 + c);
    const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                            tables.orbital_irreps, cs.target);
    ASSERT_GT(space.dimension(), 0u) << "case " << c;
    const auto diag = xf::hamiltonian_diagonal(space, tables);
    ASSERT_EQ(diag.size(), space.dimension());
    for (std::size_t i = 0; i < space.dimension(); ++i) {
      const auto d = xf::determinant_at(space, i);
      EXPECT_NEAR(diag[i], xf::hamiltonian_element(tables, d, d), 1e-12)
          << "case " << c << ", determinant " << i;
    }
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

// The pinned bits were recorded with the release flags; sanitizer presets
// compile at -O1 (CMakeLists.txt), which contracts and orders
// floating-point operations differently, so there only the cross-path
// equality is checked.
#ifndef XFCI_FP_CALIBRATED
#define XFCI_FP_CALIBRATED 1
#endif

namespace {

// FNV-1a (64-bit) over the bytes of a vector of doubles.
std::uint64_t fnv1a_bits(const std::vector<double>& v) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

TEST(Sigma, PinnedBits) {
  // The DGEMM sigma's exact output bits on seeded vectors over seeded
  // random Hamiltonians: make_sigma and the simulated 7-rank driver must
  // both reproduce the recorded FNV-1a hashes, so any change to the
  // kernels' arithmetic or summation order shows here.  The portable GEMM
  // kernel is pinned because the SIMD kernels round differently
  // (gemm_kernels.hpp); the values hold for hosts with FMA, which
  // -march=native contracts into the portable kernel and the DAXPYs.
  struct Pinned {
    SigmaCase cs;
    std::uint64_t hash;
  };
  static const std::vector<Pinned> cases = {
      // D2h with every orbital irrep present.
      {{8, 3, 3, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 0}, 0x876c49b8cca5a3d7ull},
      // D2h with orbital irreps 2, 3 and 4 empty.
      {{9, 3, 3, "D2h", {0, 0, 5, 5, 6, 6, 7, 7, 1}, 4}, 0xd34c13affa2d7738ull},
      {{7, 3, 3, "C2v", {0, 1, 0, 2, 3, 1, 0}, 2}, 0x8876ac6de3ee740dull},
      {{7, 3, 3, "C1", {0, 0, 0, 0, 0, 0, 0}, 0}, 0x2997eb06482b48c3ull},
      // Open shell.
      {{8, 4, 2, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 3}, 0x034c87765bdad38eull},
      // A single alpha electron.
      {{7, 1, 3, "C2v", {0, 1, 0, 2, 3, 1, 0}, 1}, 0x59d3baa6c0c8ea25ull},
  };
  const std::string previous = xfci::linalg::gemm_kernel_name();
  ASSERT_TRUE(xfci::linalg::set_gemm_kernel("portable"));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SigmaCase& cs = cases[i].cs;
    const auto tables = random_tables(cs.norb, cs.group, cs.irreps, 500 + i);
    const xf::CiSpace space(cs.norb, cs.na, cs.nb, tables.group,
                            tables.orbital_irreps, cs.target);
    const xf::SigmaContext ctx(space, tables);
    xfci::Rng rng(600 + i);
    const std::vector<double> c = rng.signed_vector(space.dimension());

    std::vector<double> s(c.size());
    xf::make_sigma(xf::Algorithm::kDgemm, ctx)->apply(c, s);
    fcp::ParallelOptions opt;
    opt.num_ranks = 7;
    opt.algorithm = xf::Algorithm::kDgemm;
    fcp::ParallelSigma par(ctx, opt);
    std::vector<double> sp(c.size());
    par.apply(c, sp);

    EXPECT_EQ(fnv1a_bits(sp), fnv1a_bits(s))
        << "ParallelSigma P=7 vs make_sigma, case " << i;
    if (XFCI_FP_CALIBRATED) {
      EXPECT_EQ(fnv1a_bits(s), cases[i].hash)
          << "case " << i << ", dim=" << space.dimension() << std::hex
          << ", hash 0x" << fnv1a_bits(s);
    }
  }
  xfci::linalg::set_gemm_kernel(previous);
}

namespace {

// Spaces for the table checks: D2h with orbital irreps 2, 3 and 4 empty,
// full D2h, a C2v open shell, and C1.
struct TableCase {
  std::size_t norb, na, nb;
  const char* group;
  std::vector<std::size_t> irreps;
  std::size_t target;
};
const std::vector<TableCase>& table_cases() {
  static const std::vector<TableCase> cases = {
      {9, 3, 3, "D2h", {0, 0, 5, 5, 6, 6, 7, 7, 1}, 4},
      {8, 3, 2, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 5},
      {7, 4, 2, "C2v", {0, 1, 0, 2, 3, 1, 0}, 1},
      {6, 3, 3, "C1", {0, 0, 0, 0, 0, 0}, 0},
  };
  return cases;
}

// For every intermediate string, the entries of its stream rows, taken
// over all created irreps, are its table list: each item exactly once,
// each irrep's subsequence in table order, with the column that
// `classify` gives.  Each whole stream is the concatenation of its rows.
template <class Table, class Classify>
void expect_streams_match(const Table& table, const xf::StringSpace& from,
                          const xf::IndexStreams& streams,
                          Classify classify) {
  const std::size_t nh = from.num_irreps();
  std::size_t total = 0;
  for (std::size_t hk = 0; hk < nh; ++hk) {
    for (std::size_t h = 0; h < nh; ++h) {
      const auto whole = streams.stream(hk, h);
      std::size_t next = 0;
      for (std::size_t ik = 0; ik < from.count(hk); ++ik) {
        const auto row = streams.row(hk, ik, h);
        ASSERT_EQ(row.data(), whole.data() + next);
        std::size_t k = 0;
        for (const auto& item : table.list(hk, ik)) {
          const auto [part, column] = classify(item);
          if (part != h) continue;
          ASSERT_LT(k, row.size()) << "missing entry, hk=" << hk;
          EXPECT_EQ(row[k].row, ik);
          EXPECT_EQ(row[k].address, item.address);
          EXPECT_EQ(row[k].column, column);
          EXPECT_EQ(row[k].sign, item.sign);
          ++k;
        }
        EXPECT_EQ(k, row.size()) << "extra entries, hk=" << hk;
        next += row.size();
      }
      EXPECT_EQ(next, whole.size());
      total += whole.size();
    }
  }
  std::size_t listed = 0;
  for (std::size_t hk = 0; hk < nh; ++hk)
    for (std::size_t ik = 0; ik < from.count(hk); ++ik)
      listed += table.list(hk, ik).size();
  EXPECT_EQ(total, listed);
  EXPECT_EQ(streams.size(), listed);
}

void expect_context_streams(const xf::SigmaContext& ctx) {
  const auto& group = ctx.space().group();
  const std::size_t nh = group.num_irreps();
  const auto by_orbital = [&](const xf::Creation& c) {
    const auto& orbs = ctx.orbitals_of(ctx.orbital_irrep(c.orbital));
    const auto at = std::find(orbs.begin(), orbs.end(), c.orbital);
    return std::pair<std::size_t, std::size_t>{
        ctx.orbital_irrep(c.orbital),
        static_cast<std::size_t>(at - orbs.begin())};
  };
  const auto by_pair = [&](const xf::PairCreation& c) {
    return std::pair<std::size_t, std::size_t>{
        group.product(ctx.orbital_irrep(c.hi), ctx.orbital_irrep(c.lo)),
        ctx.ss_pair_position(c.hi, c.lo)};
  };
  for (const xf::SpinTables* t : {&ctx.alpha(), &ctx.beta()}) {
    if (t->create)
      expect_streams_match(*t->create, *t->m1, t->create_streams, by_orbital);
    if (!t->pair) continue;
    expect_streams_match(*t->pair, *t->m2, t->pair_streams, by_pair);
    // Same-spin D rows lie inside the pair block.
    for (std::size_t hk = 0; hk < nh; ++hk)
      for (std::size_t hp = 0; hp < nh; ++hp)
        for (const auto& e : t->pair_streams.stream(hk, hp))
          EXPECT_LT(e.column, ctx.ss_num_pairs(hp));
  }
  if (!ctx.beta().create) return;
  // Mixed-spin D columns: for every cross irrep hX and alpha orbital q the
  // beta stream of irrep hX x irrep(q) lands inside INT_hX's columns.
  for (std::size_t hkb = 0; hkb < nh; ++hkb)
    for (std::size_t hx = 0; hx < nh; ++hx)
      for (std::size_t q = 0; q < ctx.space().norb(); ++q) {
        const std::size_t hs = group.product(hx, ctx.orbital_irrep(q));
        for (const auto& e : ctx.beta().create_streams.stream(hkb, hs))
          EXPECT_LT(ctx.ab_col_base(hx, q) + e.column, ctx.ab_num_cols(hx));
      }
}

}  // namespace

TEST(IndexStreams, PartitionTheTablesInOrder) {
  for (std::size_t i = 0; i < table_cases().size(); ++i) {
    const TableCase& tc = table_cases()[i];
    SCOPED_TRACE(i);
    const auto tables = random_tables(tc.norb, tc.group, tc.irreps, 40 + i);
    const xf::CiSpace space(tc.norb, tc.na, tc.nb, tables.group,
                            tables.orbital_irreps, tc.target);
    const xf::SigmaContext ctx(space, tables);
    expect_context_streams(ctx);
    expect_context_streams(ctx.transposed());
  }
  // An empty orbital irrep has empty streams.
  const TableCase& tc = table_cases()[0];
  const auto tables = random_tables(tc.norb, tc.group, tc.irreps, 40);
  const xf::CiSpace space(tc.norb, tc.na, tc.nb, tables.group,
                          tables.orbital_irreps, tc.target);
  const xf::SigmaContext ctx(space, tables);
  ASSERT_TRUE(ctx.orbitals_of(2).empty());
  for (std::size_t hk = 0; hk < 8; ++hk)
    EXPECT_TRUE(ctx.beta().create_streams.stream(hk, 2).empty());
}

TEST(SigmaContext, SharesOneTableSetPerElectronCount) {
  // A space and its transpose share their string spaces, and a context and
  // its transpose share their operands and spin tables with alpha and beta
  // swapped; with nalpha == nbeta the alpha and beta sets are one object.
  for (std::size_t i = 0; i < table_cases().size(); ++i) {
    const TableCase& tc = table_cases()[i];
    SCOPED_TRACE(i);
    const auto tables = random_tables(tc.norb, tc.group, tc.irreps, 80 + i);
    const xf::CiSpace space(tc.norb, tc.na, tc.nb, tables.group,
                            tables.orbital_irreps, tc.target);
    const xf::SigmaContext ctx(space, tables);
    const xf::CiSpace& tspace = space.transposed();
    const xf::SigmaContext& tctx = ctx.transposed();
    EXPECT_EQ(&tspace.transposed(), &space);
    EXPECT_EQ(&tspace.alpha(), &space.beta());
    EXPECT_EQ(&tspace.beta(), &space.alpha());
    EXPECT_EQ(&tctx.transposed(), &ctx);
    EXPECT_EQ(&tctx.space(), &tspace);
    EXPECT_EQ(&tctx.alpha(), &ctx.beta());
    EXPECT_EQ(&tctx.beta(), &ctx.alpha());
    for (std::size_t h = 0; h < space.group().num_irreps(); ++h) {
      EXPECT_EQ(&tctx.ab_integrals(h), &ctx.ab_integrals(h));
      EXPECT_EQ(&tctx.ss_integrals(h), &ctx.ss_integrals(h));
    }
    if (tc.na == tc.nb) {
      EXPECT_EQ(&space.alpha(), &space.beta());
      EXPECT_EQ(&ctx.alpha(), &ctx.beta());
    } else {
      EXPECT_NE(&space.alpha(), &space.beta());
      EXPECT_NE(&ctx.alpha(), &ctx.beta());
      EXPECT_EQ(ctx.alpha().m1->nelec(), tc.na - 1);
      EXPECT_EQ(ctx.beta().m1->nelec(), tc.nb - 1);
    }
  }
}

TEST(SolveSetup, MemoryBytesCoversEveryTable) {
  // memory_bytes() is the integrals, CiSpace::bytes() and
  // SigmaContext::bytes() and one word per determinant, where those two
  // count the distinct string spaces and spin tables once, plus both
  // orientations' block tables and the shared operands.  It is at least
  // the sum of the parts counted from the tables' own extents.
  for (const std::size_t i : {0u, 1u, 3u}) {  // D2h, D2h open shell, C1
    const TableCase& tc = table_cases()[i];
    SCOPED_TRACE(i);
    auto tables = random_tables(tc.norb, tc.group, tc.irreps, 70 + i);
    const std::size_t int_bytes =
        (tables.h.size() + tables.eri.packed_size()) * sizeof(double);
    const auto setup =
        xf::SolveSetup::create(std::move(tables), tc.na, tc.nb, tc.target);
    const xf::CiSpace& space = setup->space();
    const xf::SigmaContext& ctx = setup->context();
    const std::size_t n = space.norb();
    const std::size_t nh = space.group().num_irreps();
    const std::size_t w = sizeof(std::size_t);
    const bool shared = tc.na == tc.nb;
    EXPECT_EQ(setup->memory_bytes(), int_bytes + space.bytes() + ctx.bytes() +
                                         space.dimension() * sizeof(double));

    // Each distinct string space once, each orientation's block tables.
    std::size_t space_bytes = space.alpha().bytes();
    if (!shared) space_bytes += space.beta().bytes();
    for (const xf::CiSpace* s : {&space, &space.transposed()})
      space_bytes += s->orbital_irreps().size() * w +
                     s->blocks().size() * sizeof(xf::CiBlock) + nh * w;
    EXPECT_EQ(space.bytes(), space_bytes);
    EXPECT_EQ(space.transposed().bytes(), space_bytes);

    // The operands once: orbital lists and positions, mixed-spin column
    // tables, pair lists and positions, and the integral matrices.
    std::size_t matrices = 0;
    for (std::size_t h = 0; h < nh; ++h)
      matrices += (ctx.ab_integrals(h).size() + ctx.ss_integrals(h).size()) *
                  sizeof(double);
    std::size_t ctx_bytes = n * sizeof(std::uint16_t) + n * w + nh * w +
                            nh * n * w + n * (n - 1) * sizeof(std::uint16_t) +
                            n * n * w + matrices + ctx.alpha().bytes();
    if (!shared) ctx_bytes += ctx.beta().bytes();
    EXPECT_EQ(ctx.bytes(), ctx_bytes);
    EXPECT_EQ(ctx.transposed().bytes(), ctx_bytes);

    // Lower bound from the extents, each distinct table once.
    const auto masks = [](const xf::StringSpace* s) {
      return s == nullptr ? 0 : s->total() * sizeof(xf::StringMask);
    };
    const auto entries = [](const auto* t, const xf::StringSpace* from,
                            std::size_t item_bytes) {
      std::size_t count = 0;
      if (t == nullptr) return count;
      for (std::size_t h = 0; h < from->num_irreps(); ++h)
        for (std::size_t k = 0; k < from->count(h); ++k)
          count += t->list(h, k).size();
      return count * item_bytes;
    };
    std::size_t lower = int_bytes + space.dimension() * sizeof(double) +
                        matrices + masks(&space.alpha());
    if (!shared) lower += masks(&space.beta());
    for (const xf::SpinTables* t : {&ctx.alpha(), &ctx.beta()}) {
      if (shared && t == &ctx.beta()) continue;
      lower += masks(t->m1.get()) + masks(t->m2.get());
      lower += entries(t->create.get(), t->m1.get(), sizeof(xf::Creation)) +
               entries(t->pair.get(), t->m2.get(), sizeof(xf::PairCreation));
      lower += (t->create_streams.size() + t->pair_streams.size()) *
               sizeof(xf::StreamEntry);
    }
    EXPECT_GT(ctx.beta().create_streams.size(), 0u);
    EXPECT_GE(setup->memory_bytes(), lower);
  }

  // A dense setup builds no SigmaContext: it holds the integrals, the
  // space and one word per determinant, and its sigma is the explicit
  // Hamiltonian.
  for (const std::size_t i : {0u, 3u}) {
    const TableCase& tc = table_cases()[i];
    SCOPED_TRACE(i);
    auto tables = random_tables(tc.norb, tc.group, tc.irreps, 70 + i);
    const std::size_t int_bytes =
        (tables.h.size() + tables.eri.packed_size()) * sizeof(double);
    const auto setup = xf::SolveSetup::create(
        std::move(tables), tc.na, tc.nb, tc.target,
        xf::SetupOptions{xf::Algorithm::kDense, false});
    const xf::CiSpace& space = setup->space();
    EXPECT_EQ(setup->memory_bytes(), int_bytes + space.bytes() +
                                         space.dimension() * sizeof(double));
    EXPECT_THROW(setup->context(), xfci::Error);
    EXPECT_NE(dynamic_cast<xf::SigmaDense*>(setup->make_sigma().get()),
              nullptr);
  }
}

TEST(ThreadedSigmaContext, TwoThreadsShareABareContext) {
  // A bare SigmaContext -- no SolveSetup, no earlier transposed() call --
  // shared by two threads that each build and apply their own DGEMM
  // operator at the same time: both results are bitwise the serial apply,
  // which runs last so that nothing touches the context before the
  // threads do.  Under the tsan preset this is the race check of the
  // context's read-only sharing.
  for (const auto& [na, nb] : {std::pair<std::size_t, std::size_t>{3, 3},
                               std::pair<std::size_t, std::size_t>{4, 2}}) {
    SCOPED_TRACE(na);
    const auto tables =
        random_tables(8, "D2h", {0, 5, 6, 7, 1, 2, 3, 4}, 90 + na);
    const xf::CiSpace space(8, na, nb, tables.group, tables.orbital_irreps,
                            0);
    const xf::SigmaContext ctx(space, tables);
    xfci::Rng rng(95 + na);
    const std::vector<double> c = rng.signed_vector(space.dimension());

    std::vector<double> out[2];
    std::vector<std::thread> threads;
    for (auto& o : out) {
      o.assign(c.size(), 0.0);
      threads.emplace_back([&ctx, &c, &o] {
        xf::make_sigma(xf::Algorithm::kDgemm, ctx)->apply(c, o);
      });
    }
    for (auto& t : threads) t.join();

    std::vector<double> serial(c.size());
    xf::make_sigma(xf::Algorithm::kDgemm, ctx)->apply(c, serial);
    for (const auto& o : out) EXPECT_EQ(o, serial);
  }
}
