// Tests for the distributed FCI driver: the parallel sigma must be
// bitwise identical to make_sigma (the same driver on one rank) for every
// rank count and both algorithms; simulated time must show the paper's
// scaling shapes (DGEMM scales, replicated MOC same-spin does not); the
// full parallel solve must reproduce the serial energy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "chem/molecule.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "integrals/basis.hpp"
#include "scf/scf.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace fcp = xfci::fcp;

namespace {

// Shared medium test system: Be atom in a split basis -> D2h symmetry,
// a few thousand determinants.
const xi::IntegralTables& be_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = xc::Molecule::from_xyz_bohr("Be 0 0 0\n");
    const auto basis = xi::BasisSet::build("x-dz", mol);
    return xfci::scf::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

// Open-shell variant (B-like occupation on Be tables is fine for sigma
// identity tests; 3 alpha / 1 beta).
struct ParCase {
  std::size_t nranks;
  xf::Algorithm alg;
  // gtest names each case after the bytes of its parameter; an explicit
  // zero word where the compiler would leave uninitialized padding keeps
  // those names the same from build to build.
  std::uint32_t zero = 0;
};

// Number of elements where two vectors differ (0 means bitwise equal up
// to the sign of zero).
std::size_t mismatches(const std::vector<double>& a,
                       const std::vector<double>& b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) ++n;
  return n;
}

}  // namespace

class ParallelInvariance : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelInvariance, SigmaMatchesSerial) {
  const std::size_t nranks = GetParam().nranks;
  const xf::Algorithm alg = GetParam().alg;
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);

  auto serial = xf::make_sigma(alg, ctx);
  fcp::ParallelOptions opt;
  opt.num_ranks = nranks;
  opt.algorithm = alg;
  fcp::ParallelSigma parallel(ctx, opt);

  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());
  std::vector<double> s1(c.size()), s2(c.size());
  serial->apply(c, s1);
  parallel.apply(c, s2);
  EXPECT_EQ(mismatches(s1, s2), 0u)
      << "P=" << nranks << " alg=" << xf::algorithm_name(alg);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParallelInvariance,
    ::testing::Values(ParCase{1, xf::Algorithm::kDgemm},
                      ParCase{2, xf::Algorithm::kDgemm},
                      ParCase{3, xf::Algorithm::kDgemm},
                      ParCase{5, xf::Algorithm::kDgemm},
                      ParCase{8, xf::Algorithm::kDgemm},
                      ParCase{16, xf::Algorithm::kDgemm},
                      ParCase{1, xf::Algorithm::kMoc},
                      ParCase{2, xf::Algorithm::kMoc},
                      ParCase{4, xf::Algorithm::kMoc},
                      ParCase{7, xf::Algorithm::kMoc}));

TEST(ParallelFci, OpenShellSigmaMatchesSerial) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 1, tables.group,
                          tables.orbital_irreps, 2);
  const xf::SigmaContext ctx(space, tables);
  auto serial = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  fcp::ParallelOptions opt;
  opt.num_ranks = 6;
  fcp::ParallelSigma parallel(ctx, opt);

  xfci::Rng rng(23);
  const auto c = rng.signed_vector(space.dimension());
  std::vector<double> s1(c.size()), s2(c.size());
  serial->apply(c, s1);
  parallel.apply(c, s2);
  EXPECT_EQ(mismatches(s1, s2), 0u);
}

TEST(ParallelFci, AllAlphaEdgeCaseMatchesSerial) {
  // nbeta = 0: the mixed-spin phase vanishes and the beta-side kernels
  // no-op; the alpha-side path must still reproduce the serial sigma.
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 0, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  auto serial = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  fcp::ParallelOptions opt;
  opt.num_ranks = 5;
  fcp::ParallelSigma parallel(ctx, opt);

  xfci::Rng rng(31);
  const auto c = rng.signed_vector(space.dimension());
  std::vector<double> s1(c.size()), s2(c.size());
  serial->apply(c, s1);
  parallel.apply(c, s2);
  EXPECT_EQ(mismatches(s1, s2), 0u);
}

TEST(ParallelFci, MakeSigmaBitwiseAcrossRanksAndBackends) {
  // make_sigma is the same driver on one rank and one thread; every rank
  // count on the simulated and threads backends reproduces it bit for bit,
  // with and without the Ms = 0 shortcut, for both algorithms.
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(41);
  const auto c_any = rng.signed_vector(space.dimension());
  std::vector<double> c_sym, pc;
  space.transpose_vector(c_any, pc);
  for (std::size_t i = 0; i < pc.size(); ++i)
    c_sym.push_back(0.5 * (c_any[i] + pc[i]));

  for (const auto alg : {xf::Algorithm::kDgemm, xf::Algorithm::kMoc}) {
    for (const bool ms0 : {false, true}) {
      const auto& c = ms0 ? c_sym : c_any;
      std::vector<double> ref(c.size()), s(c.size());
      xf::make_sigma(alg, ctx, ms0)->apply(c, ref);
      for (const std::size_t nranks : {2u, 3u, 4u, 7u, 16u}) {
        for (const auto mode :
             {fcp::ExecutionMode::kSimulate, fcp::ExecutionMode::kThreads}) {
          fcp::ParallelOptions opt;
          opt.num_ranks = nranks;
          opt.algorithm = alg;
          opt.ms0_transpose = ms0;
          opt.execution = mode;
          opt.num_threads = 2;
          fcp::ParallelSigma op(ctx, opt);
          op.apply(c, s);
          EXPECT_EQ(op.ms0_hits(),
                    (ms0 && alg == xf::Algorithm::kDgemm) ? 1u : 0u);
          EXPECT_EQ(mismatches(ref, s), 0u)
              << xf::algorithm_name(alg) << " ms0=" << ms0 << " P=" << nranks
              << " mode=" << static_cast<int>(mode);
        }
      }
    }
  }
}

TEST(ParallelFci, SimulatedTimeIsDeterministic) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  fcp::ParallelOptions opt;
  opt.num_ranks = 8;

  double elapsed[2];
  for (int trial = 0; trial < 2; ++trial) {
    fcp::ParallelSigma op(ctx, opt);
    xfci::Rng rng(5);
    const auto c = rng.signed_vector(space.dimension());
    std::vector<double> s(c.size());
    op.apply(c, s);
    elapsed[trial] = op.ddi().elapsed();
  }
  EXPECT_DOUBLE_EQ(elapsed[0], elapsed[1]);
  EXPECT_GT(elapsed[0], 0.0);
}

TEST(ParallelFci, DgemmSigmaScalesMocSameSpinDoesNot) {
  // The Fig. 4 shape: doubling ranks roughly halves the DGEMM sigma time,
  // while the replicated MOC same-spin phase stays flat.
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 3, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(9);
  const auto c = rng.signed_vector(space.dimension());

  auto run = [&](std::size_t p, xf::Algorithm alg) {
    fcp::ParallelOptions opt;
    opt.num_ranks = p;
    opt.algorithm = alg;
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> s(c.size());
    op.apply(c, s);
    return op.breakdown();
  };

  const auto d4 = run(4, xf::Algorithm::kDgemm);
  const auto d16 = run(16, xf::Algorithm::kDgemm);
  // Mixed-spin (dominant phase) speeds up substantially.
  EXPECT_LT(d16.mixed, 0.5 * d4.mixed);

  const auto m4 = run(4, xf::Algorithm::kMoc);
  const auto m16 = run(16, xf::Algorithm::kMoc);
  // Replicated element generation: the same-spin phases barely improve.
  const double ss4 = m4.beta_side + m4.alpha_side;
  const double ss16 = m16.beta_side + m16.alpha_side;
  EXPECT_GT(ss16, 0.6 * ss4);
  // And MOC is slower than DGEMM at the same rank count.
  EXPECT_GT(m16.total, d16.total);
}

TEST(ParallelFci, CommunicationCountsMatchTable1Model) {
  // DGEMM mixed-spin moves ~3 Nci Nalpha words (1x gather + 2x accumulate);
  // MOC moves ~Nci Nalpha (n - Nalpha) gather words.  Check the measured
  // counter ratios against the model within a factor allowing for symmetry
  // blocking and boundary effects.
  const auto& tables = be_tables();
  const std::size_t na = 2, nb = 2;
  const xf::CiSpace space(tables.norb, na, nb, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(3);
  const auto c = rng.signed_vector(space.dimension());

  auto comm_of = [&](xf::Algorithm alg) {
    fcp::ParallelOptions opt;
    opt.num_ranks = 4;
    opt.algorithm = alg;
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> s(c.size());
    op.apply(c, s);
    // Only the mixed phase moves per-column traffic; subtract nothing and
    // compare orders of magnitude.
    double words = 0.0;
    for (std::size_t r = 0; r < 4; ++r) {
      const auto& cc = op.ddi().counters(r);
      words += cc.get_words + 2.0 * cc.acc_words;
    }
    return words;
  };

  const double dgemm_words = comm_of(xf::Algorithm::kDgemm);
  const double moc_words = comm_of(xf::Algorithm::kMoc);
  // n = 16-ish orbitals: MOC should move several times more data.
  EXPECT_GT(moc_words, 2.0 * dgemm_words);
}

TEST(ParallelFci, FullSolveMatchesSerialEnergy) {
  const auto& tables = be_tables();
  const auto serial = xf::run_fci(tables, 2, 2, 0);
  ASSERT_TRUE(serial.solve.converged);

  fcp::ParallelOptions opt;
  opt.num_ranks = 8;
  const auto par = fcp::run_parallel_fci(tables, 2, 2, 0, opt);
  EXPECT_TRUE(par.solve.converged);
  EXPECT_NEAR(par.solve.energy, serial.solve.energy, 1e-9);
  EXPECT_EQ(par.dimension, serial.dimension);
  EXPECT_GT(par.total_seconds, 0.0);
  EXPECT_GT(par.gflops_per_rank, 0.0);
  // Breakdown rows were populated.
  EXPECT_GT(par.per_sigma.mixed, 0.0);
  EXPECT_GT(par.per_sigma.beta_side, 0.0);
  EXPECT_GT(par.per_sigma.transpose, 0.0);
}

TEST(ParallelFci, SpeedupImprovesWithRanks) {
  // Fig. 5 shape: near-linear speedup of the full DGEMM iteration.
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 3, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(1);
  const auto c = rng.signed_vector(space.dimension());

  auto time_of = [&](std::size_t p) {
    fcp::ParallelOptions opt;
    opt.num_ranks = p;
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> s(c.size());
    op.apply(c, s);
    return op.ddi().elapsed();
  };
  const double t2 = time_of(2);
  const double t8 = time_of(8);
  const double speedup = t2 / t8;
  // Ideal would be 4; demand at least 2.2 on this small problem.
  EXPECT_GT(speedup, 2.2);
}

TEST(ParallelFci, AggregationReducesDlbTraffic) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 3, 3, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(2);
  const auto c = rng.signed_vector(space.dimension());

  auto dlb_calls = [&](bool aggregate) {
    fcp::ParallelOptions opt;
    opt.num_ranks = 8;
    opt.lb.aggregate = aggregate;
    fcp::ParallelSigma op(ctx, opt);
    std::vector<double> s(c.size());
    op.apply(c, s);
    std::size_t calls = 0;
    for (std::size_t r = 0; r < 8; ++r)
      calls += op.ddi().counters(r).dlb_calls;
    return calls;
  };
  EXPECT_LT(dlb_calls(true), dlb_calls(false));
}
