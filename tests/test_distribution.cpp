// ColumnDistribution edge cases: survivor rebuilds down to a single rank,
// more ranks than columns (some ranks own nothing), and repeated rebuilds
// after successive deaths -- first as unit tests on the distribution
// itself, then end-to-end through ParallelSigma under both backends.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

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

const xi::IntegralTables& be_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = xc::Molecule::from_xyz_bohr("Be 0 0 0\n");
    const auto basis = xi::BasisSet::build("x-dz", mol);
    return xfci::scf::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

const xf::CiSpace& be_space() {
  static const xf::CiSpace s(be_tables().norb, 2, 2, be_tables().group,
                             be_tables().orbital_irreps, 0);
  return s;
}

// Every column of every block must have exactly one owner, the owner must
// be alive, and the per-rank word counts must tile the CI dimension.
void expect_consistent(const fcp::ColumnDistribution& dist,
                       const xf::CiSpace& space,
                       const std::vector<std::uint8_t>& alive) {
  std::size_t words = 0;
  for (std::size_t r = 0; r < dist.num_ranks(); ++r) {
    if (!alive[r]) {
      EXPECT_EQ(dist.local_words(r), 0u);
    }
    words += dist.local_words(r);
  }
  EXPECT_EQ(words, space.dimension());
  for (std::size_t b = 0; b < space.blocks().size(); ++b) {
    std::size_t covered = 0;
    for (std::size_t r = 0; r < dist.num_ranks(); ++r) {
      const auto [begin, end] = dist.columns(b, r);
      EXPECT_LE(begin, end);
      if (!alive[r]) {
        EXPECT_EQ(begin, end);
      }
      for (std::size_t col = begin; col < end; ++col) {
        EXPECT_EQ(dist.owner(b, col), r);
        ++covered;
      }
    }
    EXPECT_EQ(covered, space.blocks()[b].na);
  }
}

std::vector<double> parallel_sigma(const fcp::ParallelOptions& opt,
                                   const std::vector<double>& c) {
  const xf::SigmaContext ctx(be_space(), be_tables());
  fcp::ParallelSigma op(ctx, opt);
  std::vector<double> s(c.size());
  op.apply(c, s);
  return s;
}

}  // namespace

TEST(ColumnDistribution, SingleSurvivorOwnsEverything) {
  const auto& space = be_space();
  const std::size_t nranks = 8;
  fcp::ColumnDistribution dist(space, nranks);
  std::vector<std::uint8_t> alive(nranks, 0);
  alive[5] = 1;
  dist.redistribute(alive);
  expect_consistent(dist, space, alive);
  EXPECT_EQ(dist.local_words(5), space.dimension());
}

TEST(ColumnDistribution, MoreRanksThanColumns) {
  const auto& space = be_space();
  // Far more ranks than any block has alpha columns: the trailing ranks
  // own empty ranges and owner() must still resolve every column.
  const std::size_t nranks = 1024;
  fcp::ColumnDistribution dist(space, nranks);
  const std::vector<std::uint8_t> alive(nranks, 1);
  expect_consistent(dist, space, alive);
}

TEST(ColumnDistribution, RebuildAfterRebuildTwoDeaths) {
  const auto& space = be_space();
  const std::size_t nranks = 6;
  fcp::ColumnDistribution dist(space, nranks);
  std::vector<std::uint8_t> alive(nranks, 1);

  alive[2] = 0;  // first death
  dist.redistribute(alive);
  expect_consistent(dist, space, alive);

  alive[4] = 0;  // second death: rebuild on top of the rebuilt split
  dist.redistribute(alive);
  expect_consistent(dist, space, alive);

  // The survivors' shares stay balanced: even split over 4 ranks.
  for (std::size_t b = 0; b < space.blocks().size(); ++b) {
    const std::size_t na = space.blocks()[b].na;
    for (std::size_t r = 0; r < nranks; ++r) {
      const auto [begin, end] = dist.columns(b, r);
      if (alive[r]) {
        EXPECT_LE(end - begin, na / 4 + 1);
      }
    }
  }
}

TEST(ColumnDistribution, MoreRanksThanColumnsFullSigmaBothBackends) {
  // End-to-end: a rank count far above the per-block column count leaves
  // many ranks without columns; the sigma must still equal make_sigma's
  // bit for bit under both execution backends.
  xfci::Rng rng(23);
  const auto c = rng.signed_vector(be_space().dimension());

  const xf::SigmaContext ctx(be_space(), be_tables());
  auto serial = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  std::vector<double> ref(c.size());
  serial->apply(c, ref);

  fcp::ParallelOptions opt;
  opt.num_ranks = 96;  // > columns of every symmetry block
  for (const auto mode :
       {fcp::ExecutionMode::kSimulate, fcp::ExecutionMode::kThreads}) {
    opt.execution = mode;
    opt.num_threads = 2;
    const auto s = parallel_sigma(opt, c);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(s[i], ref[i])
          << "mode " << static_cast<int>(mode) << " element " << i;
  }
}

TEST(ColumnDistribution, TwoDeathsSigmaMatchesCleanRun) {
  // Two ranks die at different points of the same sigma; the recovered
  // result must be bitwise identical to the fault-free run (recovery only
  // re-sends and re-executes, it never changes the arithmetic).
  xfci::Rng rng(29);
  const auto c = rng.signed_vector(be_space().dimension());

  fcp::ParallelOptions clean;
  clean.num_ranks = 8;
  const auto ref = parallel_sigma(clean, c);

  fcp::ParallelOptions faulty = clean;
  faulty.faults.kill_rank_at_op(1, 5).kill_rank_at_op(3, 50);
  const auto s = parallel_sigma(faulty, c);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(s[i], ref[i]) << "element " << i;
}
