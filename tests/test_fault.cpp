// Fault-injection and recovery tests: FaultPlan determinism, one-sided
// retransmission, task reassignment after a rank death in both backends,
// the full solve surviving a seeded failure scenario with the recovery
// overhead visible in the phase breakdown, and a small simulated run
// (clean and faulty) pinned counter by counter.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "chem/molecule.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "integrals/basis.hpp"
#include "scf/scf.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace fcp = xfci::fcp;
namespace pv = xfci::pv;

namespace {

const xi::IntegralTables& be_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = xc::Molecule::from_xyz_bohr("Be 0 0 0\n");
    const auto basis = xi::BasisSet::build("x-dz", mol);
    return xfci::scf::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

}  // namespace

TEST(FaultPlan, SameSeedSameEventSequence) {
  pv::FaultPlan a, b;
  a.randomize(1234, 0.25, 0.10, 1e-6);
  b.randomize(1234, 0.25, 0.10, 1e-6);
  std::size_t drops = 0, delays = 0;
  for (std::size_t rank = 0; rank < 6; ++rank)
    for (std::size_t op = 1; op <= 300; ++op) {
      const auto da = a.on_one_sided(rank, op);
      const auto db = b.on_one_sided(rank, op);
      EXPECT_EQ(da.drop, db.drop);
      EXPECT_DOUBLE_EQ(da.delay, db.delay);
      drops += da.drop ? 1 : 0;
      delays += da.delay > 0.0 ? 1 : 0;
    }
  // 1800 draws at p = 0.25 / 0.10: the counts must sit near expectation.
  EXPECT_GT(drops, 300u);
  EXPECT_LT(drops, 600u);
  EXPECT_GT(delays, 90u);
  EXPECT_LT(delays, 280u);
}

TEST(FaultPlan, DecisionsAreOrderIndependent) {
  pv::FaultPlan plan;
  plan.randomize(99, 0.3);
  // Querying in reverse (or repeatedly) gives the same fate per (rank, op):
  // the draw is a pure hash, not a stream.
  const auto first = plan.on_one_sided(3, 17);
  for (std::size_t op = 100; op > 0; --op) plan.on_one_sided(2, op);
  const auto again = plan.on_one_sided(3, 17);
  EXPECT_EQ(first.drop, again.drop);
  EXPECT_DOUBLE_EQ(first.delay, again.delay);
}

TEST(FaultRecovery, SigmaSurvivesDropsAndDelaysBitwise) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions clean;
  clean.num_ranks = 8;
  fcp::ParallelSigma op_clean(ctx, clean);
  std::vector<double> s_clean(c.size());
  op_clean.apply(c, s_clean);

  fcp::ParallelOptions faulty = clean;
  faulty.faults.randomize(7, 0.02, 0.02, 2e-6);
  fcp::ParallelSigma op(ctx, faulty);
  std::vector<double> s(c.size());
  op.apply(c, s);

  // No rank died, so the distribution never changed: the numerics must be
  // bitwise identical to the fault-free run -- faults only cost time.
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], s_clean[i]);
  EXPECT_GT(op.breakdown().ops_retried, 0u);
  EXPECT_GT(op.breakdown().recovery, 0.0);
  EXPECT_EQ(op.breakdown().ranks_lost, 0u);
  // The retransmissions show up in the machine's drop counters too.
  std::size_t dropped = 0;
  for (std::size_t r = 0; r < 8; ++r)
    dropped += op.ddi().counters(r).ops_dropped;
  EXPECT_GT(dropped, 0u);
  // Timeouts cost simulated time.
  EXPECT_GT(op.ddi().elapsed(), op_clean.ddi().elapsed());
}

TEST(FaultRecovery, RankDeathMidSigmaIsReassignedAndRedistributed) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions clean;
  clean.num_ranks = 8;
  fcp::ParallelSigma op_clean(ctx, clean);
  std::vector<double> s_clean(c.size());
  op_clean.apply(c, s_clean);

  fcp::ParallelOptions faulty = clean;
  faulty.faults.kill_rank_at_op(3, 25);  // dies mid mixed-spin task
  fcp::ParallelSigma op(ctx, faulty);
  std::vector<double> s(c.size());
  op.apply(c, s);

  EXPECT_FALSE(op.ddi().alive(3));
  EXPECT_EQ(op.breakdown().ranks_lost, 1u);
  EXPECT_GE(op.breakdown().tasks_reassigned, 1u);
  EXPECT_GT(op.breakdown().recovery, 0.0);
  // Graceful degradation: the dead rank's columns moved to survivors.
  EXPECT_EQ(op.distribution().local_words(3), 0u);
  double dmax = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i)
    dmax = std::max(dmax, std::abs(s[i] - s_clean[i]));
  EXPECT_LT(dmax, 1e-12);

  // A second sigma through the degraded machine still works.
  std::vector<double> s2(c.size());
  op.apply(c, s2);
  dmax = 0.0;
  for (std::size_t i = 0; i < s2.size(); ++i)
    dmax = std::max(dmax, std::abs(s2[i] - s_clean[i]));
  EXPECT_LT(dmax, 1e-12);
}

TEST(FaultRecovery, FullSolveConvergesThroughKillAndDrop) {
  // The acceptance scenario: a seeded plan kills one rank mid-sigma and
  // drops an accumulate, yet the solve converges to the fault-free energy
  // with the recovery overhead visible in the Table-3-style breakdown.
  const auto& tables = be_tables();
  fcp::ParallelOptions clean;
  clean.num_ranks = 8;
  const auto ref = fcp::run_parallel_fci(tables, 2, 2, 0, clean);
  ASSERT_TRUE(ref.solve.converged);

  fcp::ParallelOptions faulty = clean;
  faulty.faults.kill_rank_at_op(2, 40).drop_op(0, 7);
  const auto res = fcp::run_parallel_fci(tables, 2, 2, 0, faulty);
  EXPECT_TRUE(res.solve.converged);
  EXPECT_NEAR(res.solve.energy, ref.solve.energy, 1e-10);
  EXPECT_EQ(res.per_sigma.ranks_lost, 1u);
  EXPECT_GE(res.per_sigma.tasks_reassigned, 1u);
  EXPECT_GE(res.per_sigma.ops_retried, 1u);
  EXPECT_GT(res.per_sigma.recovery, 0.0);
}

TEST(FaultRecovery, ThreadsBackendReassignsDeadWorkersChunks) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions clean;
  clean.num_ranks = 4;
  clean.execution = fcp::ExecutionMode::kThreads;
  clean.num_threads = 4;
  fcp::ParallelSigma op_clean(ctx, clean);
  std::vector<double> s_clean(c.size());
  op_clean.apply(c, s_clean);

  fcp::ParallelOptions faulty = clean;
  // Every spawned worker crashes on its first claimed chunk; the calling
  // thread survives and (with the inline replacements) drains the pool.
  faulty.faults.kill_worker_at_claim(1, 1)
      .kill_worker_at_claim(2, 1)
      .kill_worker_at_claim(3, 1);
  // A death only fires if a spawned worker claims a chunk, and on a
  // loaded (or single-core) host the calling thread can drain the whole
  // pool before the others wake up.  Retry until a worker really died;
  // every attempt must still be bitwise identical to the clean run.
  std::size_t reassigned = 0;
  double recovery = 0.0;
  for (int attempt = 0; attempt < 50 && reassigned == 0; ++attempt) {
    fcp::ParallelSigma op(ctx, faulty);
    std::vector<double> s(c.size());
    op.apply(c, s);
    // Ordered commit: bitwise identical to the fault-free threaded run.
    for (std::size_t i = 0; i < s.size(); ++i) ASSERT_EQ(s[i], s_clean[i]);
    reassigned = op.breakdown().tasks_reassigned;
    recovery = op.breakdown().recovery;
  }
  EXPECT_GE(reassigned, 1u);
  EXPECT_GT(recovery, 0.0);
}

TEST(FaultRecovery, EveryRankKilledAbortsCleanly) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions opt;
  opt.num_ranks = 3;
  for (std::size_t r = 0; r < 3; ++r)
    opt.faults.kill_rank_at_op(r, 5 + r);
  fcp::ParallelSigma op(ctx, opt);
  std::vector<double> s(c.size());
  EXPECT_THROW(op.apply(c, s), xfci::Error);
}

// A small simulated run pinned to recorded values: 4 and 16 ranks, DGEMM
// and MOC, each clean and under a plan with a drop, a delay, a straggler
// and an op-triggered death, two sigmas each.  Any change to the
// simulator's charges, scheduling, congestion or fault handling moves
// these numbers.  Integer-valued counters must match exactly; the
// simulated times are compared at 1e-12 relative because builds at other
// optimization levels contract floating-point expressions differently.
namespace {

struct PinnedRun {
  std::size_t num_ranks;
  xf::Algorithm algorithm;
  bool faulty;
  // PhaseBreakdown beta_side, alpha_side, mixed, transpose, vector_ops,
  // load_imbalance, recovery, total, comm_words, mixed_comm_words, flops,
  // then the backend's elapsed().
  std::vector<double> rows;
  // PhaseBreakdown dlb_calls, ops_dropped, ops_delayed, tasks_reassigned,
  // ops_retried, ranks_lost; then per rank get_calls, acc_calls,
  // get_words, acc_words, dlb_calls, ops_dropped, ops_delayed.
  std::vector<double> counts;
};

PinnedRun run_pinned(std::size_t num_ranks, xf::Algorithm algorithm,
                     bool faulty) {
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions opt;
  opt.num_ranks = num_ranks;
  opt.algorithm = algorithm;
  opt.cost = opt.cost.with_overhead_scale(0.02);
  if (faulty)
    opt.faults.drop_op(0, 10)
        .delay_op(1, 7, 1e-4)
        .slow_rank(2, 1.5)
        .kill_rank_at_op(3, 20);
  fcp::ParallelSigma op(ctx, opt);
  std::vector<double> s(c.size());
  op.apply(c, s);
  op.apply(c, s);

  const fcp::PhaseBreakdown& b = op.breakdown();
  PinnedRun run{num_ranks, algorithm, faulty, {}, {}};
  run.rows = {b.beta_side,   b.alpha_side,       b.mixed,
              b.transpose,   b.vector_ops,       b.load_imbalance,
              b.recovery,    b.total,            b.comm_words,
              b.mixed_comm_words, b.flops,       op.ddi().elapsed()};
  run.counts = {static_cast<double>(b.dlb_calls),
                static_cast<double>(b.ops_dropped),
                static_cast<double>(b.ops_delayed),
                static_cast<double>(b.tasks_reassigned),
                static_cast<double>(b.ops_retried),
                static_cast<double>(b.ranks_lost)};
  for (std::size_t r = 0; r < num_ranks; ++r) {
    const pv::CommCounters& cc = op.ddi().counters(r);
    run.counts.insert(run.counts.end(),
                      {static_cast<double>(cc.get_calls),
                       static_cast<double>(cc.acc_calls), cc.get_words,
                       cc.acc_words, static_cast<double>(cc.dlb_calls),
                       static_cast<double>(cc.ops_dropped),
                       static_cast<double>(cc.ops_delayed)});
  }
  return run;
}

}  // namespace

TEST(SimulatedX1, PinnedSmallRun) {
  const std::vector<PinnedRun> expected = {
    {4, xf::Algorithm::kDgemm, false,
     {7.5868142857143039e-05, 7.9523142857143017e-05, 0.00095130785714285645,
      1.5904000000000087e-05, 1.7037000000000128e-05, 7.3034809523809022e-05,
      0, 0.0011428401428571428, 31230, 23832, 3446104, 0.0011428401428571428},
     {32, 0, 0, 0, 0, 0,
      132, 120, 3603, 1866, 8, 0, 0,
      132, 120, 3903, 2076, 8, 0, 0,
      132, 120, 3879, 2142, 8, 0, 0,
      132, 120, 3957, 1860, 8, 0, 0}},
    {4, xf::Algorithm::kDgemm, true,
     {0.00011379017857142851, 0.00011928392857142855, 0.0015224336607142864,
      2.2292000000000257e-05, 2.939899999999994e-05, 0.00011432980952381184,
      6.245874999999965e-06, 0.0018103987678571437, 27082, 19684, 3558720,
      0.0018103987678571437},
     {33, 1, 1, 1, 1, 1,
      194, 180, 4297.5, 2175, 12, 1, 0,
      193, 180, 5028.5, 2649, 12, 0, 1,
      133, 120, 3738.5, 1404, 8, 0, 0,
      21, 4, 1357.5, 102, 1, 0, 0}},
    {4, xf::Algorithm::kMoc, false,
     {0.00034167399999999998, 0.00034282600000000001, 0.00056732349999999692,
      1.4053000000000006e-05, 1.7037000000000128e-05, 0.00011789249999999928,
      0, 0.0012861134999999971, 98232, 83436, 731160, 0.0012861134999999971},
     {0, 0, 0, 0, 0, 0,
      1686, 0, 22527, 0, 0, 0, 0,
      1746, 0, 26625, 0, 0, 0, 0,
      1686, 0, 24783, 0, 0, 0, 0,
      2106, 0, 24297, 0, 0, 0, 0}},
    {4, xf::Algorithm::kMoc, true,
     {0.0005132855, 0.00051512149999999985, 0.00085346637499998266,
      1.9890750000000219e-05, 2.5207249999999941e-05, 0.00032196587499999077,
      1.7458750000000182e-06, 0.0019323172499999828, 80108.5, 66696, 718578,
      0.0019323172499999828},
     {0, 1, 1, 0, 0, 1,
      2047, 0, 24153, 0, 0, 1, 0,
      2077, 0, 28523, 0, 0, 0, 1,
      2047, 0, 25391, 0, 0, 0, 0,
      22, 0, 2041.5, 0, 0, 0, 0}},
    {16, xf::Algorithm::kDgemm, false,
     {6.0035857142857116e-05, 6.12608571428572e-05, 0.00027860961904761946,
      1.3247500000000093e-05, 5.85900000000004e-06, 7.2950809523809434e-05,
      0, 0.00042221283333333397, 36949.5, 27702, 3446104,
      0.00042221283333333397},
     {32, 0, 0, 0, 0, 0,
      90, 30, 900.75, 552, 2, 0, 0,
      90, 30, 1174.5, 612, 2, 0, 0,
      90, 30, 1139.25, 678, 2, 0, 0,
      90, 30, 1536.75, 738, 2, 0, 0,
      90, 30, 1199.25, 738, 2, 0, 0,
      90, 30, 1300.5, 738, 2, 0, 0,
      90, 30, 1435.5, 738, 2, 0, 0,
      90, 30, 1042.5, 480, 2, 0, 0,
      90, 30, 930, 480, 2, 0, 0,
      90, 30, 1177.5, 480, 2, 0, 0,
      90, 30, 1084.5, 522, 2, 0, 0,
      90, 30, 983.25, 522, 2, 0, 0,
      90, 30, 1302.75, 504, 2, 0, 0,
      90, 30, 983.25, 522, 2, 0, 0,
      90, 30, 1048.5, 486, 2, 0, 0,
      90, 30, 1242.75, 444, 2, 0, 0}},
    {16, xf::Algorithm::kDgemm, true,
     {7.9270035714285497e-05, 8.0668785714285403e-05, 0.00065572296309523753,
      1.6766874999999894e-05, 7.4569999999999931e-06, 0.00031397652380952347,
      5.1792249999999809e-06, 0.00084308565952380843, 37868.299999999996,
      28620.799999999996, 3558720, 0.00084308565952380843},
     {33, 1, 1, 1, 1, 1,
      107, 45, 1347, 921, 3, 1, 0,
      106, 45, 1557.7, 981, 3, 0, 1,
      106, 45, 1610.575, 1017, 3, 0, 0,
      45, 4, 768.375, 102, 1, 0, 0,
      91, 30, 1264.075, 738, 2, 0, 0,
      91, 30, 1324.825, 630, 2, 0, 0,
      91, 30, 1193.575, 600, 2, 0, 0,
      91, 30, 1185.7, 609, 2, 0, 0,
      106, 45, 1328.95, 741, 3, 0, 0,
      91, 30, 1166.2, 522, 2, 0, 0,
      91, 30, 1207.825, 513, 2, 0, 0,
      91, 30, 997.45000000000005, 522, 2, 0, 0,
      91, 30, 1216.825, 522, 2, 0, 0,
      91, 30, 1073.575, 480, 2, 0, 0,
      76, 15, 816.70000000000005, 240, 1, 0, 0,
      76, 15, 1052.95, 240, 1, 0, 0}},
    {16, xf::Algorithm::kMoc, false,
     {0.00031017400000000008, 0.00031046200000000001, 0.00018756700000000301,
      1.5872500000000055e-05, 5.85900000000004e-06, 0.00010757250000000213,
      0, 0.00083313450000000323, 194862, 120882, 731160,
      0.00083313450000000323},
     {0, 0, 0, 0, 0, 0,
      270, 0, 8949.75, 0, 0, 0, 0,
      510, 0, 11787.75, 0, 0, 0, 0,
      330, 0, 9771.75, 0, 0, 0, 0,
      690, 0, 15333.75, 0, 0, 0, 0,
      330, 0, 9645.75, 0, 0, 0, 0,
      510, 0, 12417.75, 0, 0, 0, 0,
      510, 0, 12999.75, 0, 0, 0, 0,
      510, 0, 12795.75, 0, 0, 0, 0,
      450, 0, 12207.75, 0, 0, 0, 0,
      510, 0, 13155.75, 0, 0, 0, 0,
      510, 0, 13077.75, 0, 0, 0, 0,
      330, 0, 10491.75, 0, 0, 0, 0,
      690, 0, 14559.75, 0, 0, 0, 0,
      330, 0, 10491.75, 0, 0, 0, 0,
      510, 0, 12831.75, 0, 0, 0, 0,
      690, 0, 14343.75, 0, 0, 0, 0}},
    {16, xf::Algorithm::kMoc, true,
     {0.00041697650000000006, 0.00046078849999999985, 0.00027909400000000425,
      2.2201249999999956e-05, 6.6580000000000979e-06, 0.00019391925000000423,
      6.7922500000003414e-07, 0.0011899974750000043, 187171.92500000005,
      115305.00000000007, 727326, 0.0011899974750000043},
     {0, 200, 1, 0, 0, 1,
      301, 0, 9360.75, 0, 0, 1, 0,
      511, 0, 11801.950000000001, 0, 0, 0, 1,
      421, 0, 11351.950000000001, 0, 0, 0, 0,
      34, 0, 2680.875, 0, 0, 0, 0,
      421, 0, 10907.950000000001, 0, 0, 24, 0,
      601, 0, 13829.950000000001, 0, 0, 16, 0,
      421, 0, 11225.950000000001, 0, 0, 27, 0,
      511, 0, 13115.950000000001, 0, 0, 27, 0,
      481, 0, 12377.950000000001, 0, 0, 16, 0,
      511, 0, 13223.950000000001, 0, 0, 16, 0,
      601, 0, 14198.950000000001, 0, 0, 12, 0,
      331, 0, 10505.950000000001, 0, 0, 9, 0,
      601, 0, 13619.950000000001, 0, 0, 19, 0,
      421, 0, 11765.950000000001, 0, 0, 5, 0,
      511, 0, 12845.950000000001, 0, 0, 19, 0,
      691, 0, 14357.950000000001, 0, 0, 9, 0}},
  };
  for (const PinnedRun& want : expected) {
    SCOPED_TRACE(testing::Message()
                 << want.num_ranks << " ranks, "
                 << (want.algorithm == xf::Algorithm::kDgemm ? "DGEMM" : "MOC")
                 << (want.faulty ? ", faulty" : ", clean"));
    const PinnedRun got =
        run_pinned(want.num_ranks, want.algorithm, want.faulty);
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (std::size_t i = 0; i < want.rows.size(); ++i)
      EXPECT_NEAR(got.rows[i], want.rows[i], 1e-12 * std::abs(want.rows[i]))
          << "row " << i;
    ASSERT_EQ(got.counts.size(), want.counts.size());
    for (std::size_t i = 0; i < want.counts.size(); ++i)
      EXPECT_EQ(got.counts[i], want.counts[i]) << "count " << i;
  }
}
