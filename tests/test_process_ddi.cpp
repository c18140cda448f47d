// Tests for the multi-process DDI backend (parallel/process_ddi.hpp): the
// shm arena pool protocol across real fork boundaries, the failure domain
// (actual SIGKILLs mid-operation and mid-publish, watchdog kills, barrier
// deadline degradation, STONITH fencing of wedged ranks), orphan hygiene
// (stale-segment reaping, no leaked /dev/shm entries on any path), and the
// end-to-end contract: the FCI sigma and solve are bitwise / 1e-10
// identical to the simulated backend even while live rank processes are
// being killed.
//
// gtest assertions inside PoolHooks::stage/pack run in the forked child
// and would be invisible to the parent test binary, so every check here is
// made parent-side (in unpack/commit, or after run_pool returns).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "integrals/basis.hpp"
#include "parallel/process_ddi.hpp"
#include "parallel/shm_ipc.hpp"
#include "parallel/task_pool.hpp"
#include "scf/scf.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#endif

// The backend's children are SIGKILL'd by design; tsan's runtime does not
// model fork+shm and would report on its own bookkeeping, so the fork
// tests are skipped under it (the tsan ctest preset also filters them out
// by name).
#if defined(__SANITIZE_THREAD__)
#define XFCI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XFCI_TSAN 1
#endif
#endif
#ifndef XFCI_TSAN
#define XFCI_TSAN 0
#endif

namespace pv = xfci::pv;
namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xc = xfci::chem;
namespace fcp = xfci::fcp;

#define XFCI_REQUIRE_PROCESS_HOST()                                       \
  do {                                                                    \
    if (XFCI_TSAN)                                                        \
      GTEST_SKIP() << "fork-based backend tests are skipped under tsan";  \
    if (!pv::process_backend_supported())                                 \
      GTEST_SKIP() << "process backend unsupported on this platform";     \
  } while (false)

namespace {

/// usleep shim: the fork tests never run off-POSIX (the skip macro fires
/// first), but the file must still compile there.
void spin_micros(std::size_t micros) {
#if defined(__unix__) || defined(__APPLE__)
  ::usleep(static_cast<unsigned>(micros));
#else
  (void)micros;
#endif
}

/// Deadlines tightened from the production defaults so fencing paths run
/// in test time, but generous enough not to flake on a loaded machine.
pv::ProcessDdiParams fast_params() {
  pv::ProcessDdiParams p;
  p.task_deadline = 10.0;
  p.heartbeat_deadline = 10.0;
  p.spawn_deadline = 10.0;
  p.shutdown_deadline = 10.0;
  p.poll_micros = 100;
  return p;
}

/// A driver for the direct pool-protocol tests: every item's "result" is a
/// 3-word payload that is a pure function of the item index, computed in
/// the forked child and checked after travelling through the shm arena.
struct PoolHarness {
  explicit PoolHarness(pv::Ddi& backend, std::size_t nitems)
      : ddi(backend),
        pool(nitems, backend.num_workers()),
        staged(3 * nitems, 0.0),
        out(nitems, 0.0),
        bad_unpacks(0) {}

  pv::Ddi::PoolStats run(std::size_t stage_micros = 0) {
    pv::Ddi::PoolHooks hooks;
    hooks.stage = [this, stage_micros](std::size_t it, std::size_t worker) {
      // Child-side compute into the child's copy-on-write staging, plus
      // one-sided traffic so the shm op accounting is exercised (and the
      // op-count fault triggers can fire mid-operation).
      if (ddi.get(worker, 0, 8.0) == pv::OpOutcome::kDropped &&
          !ddi.alive(worker))
        return false;
      const double v = static_cast<double>(it);
      staged[3 * it + 0] = 3.0 * v + 1.0;
      staged[3 * it + 1] = -v;
      staged[3 * it + 2] = v * v;
      if (stage_micros != 0)
        spin_micros(stage_micros);
      if (ddi.acc(worker, 0, 8.0) == pv::OpOutcome::kDropped &&
          !ddi.alive(worker))
        return false;
      return true;
    };
    hooks.stage_words = [](std::size_t) { return std::size_t{3}; };
    hooks.pack = [this](std::size_t it, double* dst) {
      for (int j = 0; j < 3; ++j) dst[j] = staged[3 * it + j];
      return std::size_t{3};
    };
    hooks.unpack = [this](std::size_t it, const double* src,
                          std::size_t words) {
      if (words != 3) {
        ++bad_unpacks;  // checked parent-side after the run
        return;
      }
      for (int j = 0; j < 3; ++j) staged[3 * it + j] = src[j];
    };
    hooks.commit = [this](std::size_t it) {
      out[it] = staged[3 * it + 0] + staged[3 * it + 1] + staged[3 * it + 2];
      commit_order.push_back(it);
    };
    return ddi.run_pool(pool, hooks);
  }

  void expect_all_items_committed_in_order() const {
    ASSERT_EQ(commit_order.size(), out.size());
    for (std::size_t it = 0; it < out.size(); ++it) {
      EXPECT_EQ(commit_order[it], it);
      const double v = static_cast<double>(it);
      EXPECT_EQ(out[it], (3.0 * v + 1.0) - v + v * v) << "item " << it;
    }
    EXPECT_EQ(bad_unpacks, 0);
  }

  pv::Ddi& ddi;
  pv::TaskPool pool;
  std::vector<double> staged;
  std::vector<double> out;
  std::vector<std::size_t> commit_order;
  int bad_unpacks;
};

const xi::IntegralTables& be_tables() {
  static const xi::IntegralTables t = [] {
    const auto mol = xc::Molecule::from_xyz_bohr("Be 0 0 0\n");
    const auto basis = xi::BasisSet::build("x-dz", mol);
    return xfci::scf::prepare_mo_system(mol, basis, 1).tables;
  }();
  return t;
}

std::vector<double> run_sigma(const xf::SigmaContext& ctx,
                              const fcp::ParallelOptions& opt,
                              std::span<const double> c) {
  fcp::ParallelSigma op(ctx, opt);
  std::vector<double> sigma(c.size());
  op.apply(c, sigma);
  return sigma;
}

}  // namespace

// ------------------------------------------------- pool protocol ----------

TEST(ProcessDdi, PoolResultsCrossAddressSpacesAndCommitInOrder) {
  XFCI_REQUIRE_PROCESS_HOST();
  auto ddi = pv::make_process_ddi(3, pv::FaultPlan{}, fast_params());
  EXPECT_STREQ(ddi->name(), "process");
  EXPECT_FALSE(ddi->models_cost());
  EXPECT_TRUE(ddi->concurrent());

  PoolHarness h(*ddi, 257);
  const auto st = h.run();
  h.expect_all_items_committed_in_order();
  EXPECT_EQ(st.tasks_reassigned, 0u);
  EXPECT_EQ(ddi->num_alive(), 3u);

  // One-sided accounting crossed the fork boundary: one get and one acc
  // per item, recorded in the shared counters from the children.
  std::size_t gets = 0, accs = 0, dlb = 0;
  for (std::size_t r = 0; r < ddi->num_ranks(); ++r) {
    gets += ddi->counters(r).get_calls;
    accs += ddi->counters(r).acc_calls;
    dlb += ddi->counters(r).dlb_calls;
  }
  EXPECT_EQ(gets, 257u);
  EXPECT_EQ(accs, 257u);
  EXPECT_GE(dlb, h.pool.num_chunks());
  EXPECT_EQ(ddi->comm_words(), 257.0 * 8.0 + 2.0 * 257.0 * 8.0);
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, SigkillMidPublishLeavesTornWriteAndIsReassigned) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 0's first chunk claim dies by raise(SIGKILL) halfway through the
  // memcpy into its item slot: a genuinely torn shared-memory write.  The
  // seqlock/generation protocol must discard it and re-issue the chunk.
  pv::FaultPlan plan;
  plan.kill_worker_at_claim(0, 1);
  auto ddi = pv::make_process_ddi(2, plan, fast_params());

  PoolHarness h(*ddi, 128);
  const auto st = h.run(/*stage_micros=*/500);
  h.expect_all_items_committed_in_order();
  EXPECT_GE(st.tasks_reassigned, 1u);
  EXPECT_FALSE(ddi->alive(0));
  EXPECT_TRUE(ddi->alive(1));
  EXPECT_EQ(ddi->num_alive(), 1u);
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, SigkillMidOneSidedOpIsDetectedAndRecovered) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 1 dies mid one-sided op (its 5th): the child SIGKILLs itself
  // inside ddi.get(), mid-stage, and the parent's waitpid watchdog must
  // pick up the corpse and reassign the chunk it was staging.
  pv::FaultPlan plan;
  plan.kill_rank_at_op(1, 5);
  auto ddi = pv::make_process_ddi(2, plan, fast_params());

  PoolHarness h(*ddi, 128);
  const auto st = h.run(/*stage_micros=*/500);
  h.expect_all_items_committed_in_order();
  EXPECT_GE(st.tasks_reassigned, 1u);
  EXPECT_FALSE(ddi->alive(1));
  EXPECT_EQ(ddi->num_alive(), 1u);
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, WatchdogDeliversTimeTriggeredKills) {
  XFCI_REQUIRE_PROCESS_HOST();
  // FaultPlan time triggers map to the parent's watchdog SIGKILLing the
  // child pid from outside while the pool runs.
  pv::FaultPlan plan;
  plan.kill_rank_at_time(0, 0.2);
  auto ddi = pv::make_process_ddi(2, plan, fast_params());

  PoolHarness h(*ddi, 96);
  const auto st = h.run(/*stage_micros=*/20000);  // pool outlives t = 0.2 s
  h.expect_all_items_committed_in_order();
  EXPECT_FALSE(ddi->alive(0));
  EXPECT_TRUE(ddi->alive(1));
  (void)st;  // rank 0 may die between chunks; reassignment is not forced
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, EntryBarrierDegradesToSurvivorsOnDeadline) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 1 wedges before checking in to the pool (in on_child_start, so
  // it never sets its `entered` flag or ticks a heartbeat).  The entry
  // barrier must fence it at the spawn deadline instead of hanging, and
  // the pool must complete on the survivor.
  auto params = fast_params();
  params.spawn_deadline = 0.3;
  auto ddi = pv::make_process_ddi(2, pv::FaultPlan{}, params);

  const std::size_t nitems = 64;
  pv::TaskPool pool(nitems, 2);
  std::vector<double> staged(nitems, 0.0), out(nitems, 0.0);
  pv::Ddi::PoolHooks hooks;
  hooks.on_child_start = [](std::size_t worker) {
    if (worker == 1)
      for (;;) spin_micros(10000);  // never checks in; fenced by the parent
  };
  hooks.stage = [&](std::size_t it, std::size_t) {
    staged[it] = 2.0 * static_cast<double>(it);
    return true;
  };
  hooks.stage_words = [](std::size_t) { return std::size_t{1}; };
  hooks.pack = [&](std::size_t it, double* dst) {
    dst[0] = staged[it];
    return std::size_t{1};
  };
  hooks.unpack = [&](std::size_t it, const double* src, std::size_t) {
    staged[it] = src[0];
  };
  hooks.commit = [&](std::size_t it) { out[it] = staged[it]; };
  (void)ddi->run_pool(pool, hooks);

  for (std::size_t it = 0; it < nitems; ++it)
    EXPECT_EQ(out[it], 2.0 * static_cast<double>(it)) << "item " << it;
  EXPECT_FALSE(ddi->alive(1));
  EXPECT_TRUE(ddi->alive(0));
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessDdi, TaskDeadlineFencesAWedgedClaimant) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Rank 1 wedges *mid-chunk* (an infinite loop inside stage), with its
  // heartbeat silent.  The claimed-chunk deadline must STONITH-fence the
  // live-but-stuck process (a real SIGKILL) and reassign its chunk.
  auto params = fast_params();
  params.task_deadline = 0.4;
  params.heartbeat_deadline = 0.4;
  auto ddi = pv::make_process_ddi(2, pv::FaultPlan{}, params);

  const std::size_t nitems = 64;
  pv::TaskPool pool(nitems, 2);
  std::vector<double> staged(nitems, 0.0), out(nitems, 0.0);
  pv::Ddi::PoolHooks hooks;
  hooks.stage = [&](std::size_t it, std::size_t worker) {
    if (worker == 1)
      for (;;) spin_micros(1000);  // wedged holding a claim
    // Slow the healthy rank so the wedged one is scheduled and actually
    // claims a chunk (this box may have a single core).
    spin_micros(2000);
    staged[it] = static_cast<double>(it) + 0.5;
    return true;
  };
  hooks.stage_words = [](std::size_t) { return std::size_t{1}; };
  hooks.pack = [&](std::size_t it, double* dst) {
    dst[0] = staged[it];
    return std::size_t{1};
  };
  hooks.unpack = [&](std::size_t it, const double* src, std::size_t) {
    staged[it] = src[0];
  };
  hooks.commit = [&](std::size_t it) { out[it] = staged[it]; };
  const auto st = ddi->run_pool(pool, hooks);

  for (std::size_t it = 0; it < nitems; ++it)
    EXPECT_EQ(out[it], static_cast<double>(it) + 0.5) << "item " << it;
  EXPECT_FALSE(ddi->alive(1));
  EXPECT_GE(st.tasks_reassigned, 1u);
  ddi.reset();
  EXPECT_TRUE(pv::own_segment_names().empty());
}

// ------------------------------------------------- orphan hygiene ---------

#if defined(__linux__)
TEST(ProcessDdi, ReapsStaleSegmentsOfDeadCreators) {
  XFCI_REQUIRE_PROCESS_HOST();
  // Forge the segment a SIGKILL'd run would leak: a segment whose name
  // carries a creator pid that no longer exists.  fork+_exit+waitpid
  // yields a pid guaranteed dead and fully reaped.
  const pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);

  const std::string name = "/xfci-" + std::to_string(dead) + "-0";
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 64), 0);
  ::close(fd);

  EXPECT_GE(pv::reap_stale_segments(), 1u);
  // The forged segment is gone; a live process's segment would survive.
  EXPECT_LT(::shm_open(name.c_str(), O_RDWR, 0600), 0);
}
#endif  // defined(__linux__)

TEST(ProcessDdi, NoSegmentsLeakAfterAFaultedRun) {
  XFCI_REQUIRE_PROCESS_HOST();
  ASSERT_TRUE(pv::own_segment_names().empty());
  {
    pv::FaultPlan plan;
    plan.kill_worker_at_claim(0, 1);
    auto ddi = pv::make_process_ddi(2, plan, fast_params());
    PoolHarness h(*ddi, 64);
    (void)h.run(/*stage_micros=*/500);
    // Two segments exist only while a backend is alive (control arena;
    // the pool arena is already closed after run_pool).
    EXPECT_FALSE(pv::own_segment_names().empty());
  }
  EXPECT_TRUE(pv::own_segment_names().empty());
}

// ------------------------------------------------- FCI conformance --------

TEST(ProcessSigma, BitwiseMatchesSimulateForEveryRankCount) {
  XFCI_REQUIRE_PROCESS_HOST();
  const auto& tables = be_tables();
  const xf::CiSpace space(tables.norb, 2, 2, tables.group,
                          tables.orbital_irreps, 0);
  const xf::SigmaContext ctx(space, tables);
  xfci::Rng rng(17);
  const auto c = rng.signed_vector(space.dimension());

  fcp::ParallelOptions opt;
  opt.num_ranks = 3;
  opt.algorithm = xf::Algorithm::kDgemm;
  const auto reference = run_sigma(ctx, opt, c);
  const auto serial = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
  std::vector<double> s_serial(c.size());
  serial->apply(c, s_serial);
  EXPECT_EQ(s_serial, reference);

  for (std::size_t nranks : {1u, 2u, 3u}) {
    fcp::ParallelOptions popt = opt;
    popt.execution = fcp::ExecutionMode::kProcess;
    popt.num_ranks = nranks;
    popt.process = fast_params();
    fcp::ParallelSigma op(ctx, popt);
    std::vector<double> sigma(c.size());
    op.apply(c, sigma);
    // Ordered commit + deterministic per-item layout: the forked build is
    // bitwise identical to the simulated one (same binary, same flags).
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(sigma[i], reference[i])
          << "element " << i << " ranks " << nranks;
    // The mixed-spin counters cross the address spaces with the payloads;
    // the work totals do not depend on the column split.
    EXPECT_EQ(op.stats().dgemm_flops, serial->stats().dgemm_flops) << nranks;
    EXPECT_EQ(op.stats().indexed_ops, serial->stats().indexed_ops) << nranks;
    EXPECT_EQ(op.stats().gather_words, serial->stats().gather_words)
        << nranks;
    EXPECT_EQ(op.stats().scatter_words, serial->stats().scatter_words)
        << nranks;
  }
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessSolve, ConvergesToSimulatedEnergyThroughRealKills) {
  XFCI_REQUIRE_PROCESS_HOST();
  const auto& tables = be_tables();
  fcp::ParallelOptions opt;
  opt.num_ranks = 3;
  const auto simulated = fcp::run_parallel_fci(tables, 2, 2, 0, opt);
  ASSERT_TRUE(simulated.solve.converged);

  fcp::ParallelOptions popt = opt;
  popt.execution = fcp::ExecutionMode::kProcess;
  popt.process = fast_params();
  // A watchdog SIGKILL early in the solve (guaranteed to fire: the time
  // trigger needs no claim/op race on a single-core box), plus op-count
  // and torn-publish kills and a dropped accumulate as extra chaos on the
  // Be system's short pools; the survivors must still converge to the
  // same energy.
  popt.faults.kill_rank_at_time(2, 0.02)
      .kill_worker_at_claim(1, 3)
      .drop_op(0, 7);
  const auto forked = fcp::run_parallel_fci(tables, 2, 2, 0, popt);

  EXPECT_TRUE(forked.solve.converged);
  EXPECT_NEAR(forked.solve.energy, simulated.solve.energy, 1e-10);
  EXPECT_GE(forked.per_sigma.ranks_lost, 1u);
  EXPECT_GT(forked.total_seconds, 0.0);
  EXPECT_TRUE(pv::own_segment_names().empty());
}

TEST(ProcessSolve, KillThenRestartContinuesTheTrajectory) {
  XFCI_REQUIRE_PROCESS_HOST();
  const auto& tables = be_tables();
  const std::string ck = "test_process_ddi.ck";

  fcp::ParallelOptions popt;
  popt.num_ranks = 2;
  popt.execution = fcp::ExecutionMode::kProcess;
  popt.process = fast_params();

  // Stage a "crash": checkpoint every iteration, stop after 3.
  xf::SolverOptions first;
  first.checkpoint_path = ck;
  first.max_iterations = 3;
  const auto partial = fcp::run_parallel_fci(tables, 2, 2, 0, popt, first);
  ASSERT_FALSE(partial.solve.converged);

  // Restart from the checkpoint — with a real SIGKILL in the resumed run.
  fcp::ParallelOptions rpopt = popt;
  rpopt.faults.kill_worker_at_claim(1, 2);
  xf::SolverOptions second;
  second.restart_path = ck;
  const auto resumed = fcp::run_parallel_fci(tables, 2, 2, 0, rpopt, second);

  fcp::ParallelOptions sopt;
  sopt.num_ranks = 2;
  const auto reference = fcp::run_parallel_fci(tables, 2, 2, 0, sopt);

  EXPECT_TRUE(resumed.solve.converged);
  EXPECT_NEAR(resumed.solve.energy, reference.solve.energy, 1e-10);
  EXPECT_TRUE(pv::own_segment_names().empty());
  std::remove(ck.c_str());
}
