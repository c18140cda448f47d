#pragma once
// Shared-memory execution backend: a persistent std::thread pool that
// mirrors the paper's manager/worker dynamic load balancing in real
// threads.
//
// The simulated pv::Ddi backend reproduces the paper's *parallel behaviour*
// (who waits for whom, bytes moved, load imbalance) on one core; the
// ThreadTeam reproduces its *wall-clock benefit* on however many cores the
// host actually has.  Both backends run the identical numerics, so the
// simulator's calibrated X1 timings and the threaded wall-clock timings
// cross-check each other (ParallelOptions::execution selects the backend).
//
// Scheduling is the shared-memory analogue of the SHMEM_SWAP task server:
// an atomic chunk counter that idle workers fetch-and-increment, fed by the
// same TaskPool aggregation (NFineTask/NLtask/NStask, Fig. 3) the
// simulator uses.
//
// Determinism: the pool itself makes no floating-point decisions.  Callers
// that accumulate into shared data either write disjoint regions (static
// same-spin phases) or retire their contributions through an
// OrderedSequencer (mixed-spin phase), so results are bitwise independent
// of the thread count and of OS scheduling.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace xfci::pv {

class TaskPool;

class ThreadTeam {
 public:
  /// `num_threads` = 0 picks std::thread::hardware_concurrency().
  /// One worker is the calling thread itself (tid 0); `num_threads - 1`
  /// std::threads are spawned and parked between parallel regions.
  explicit ThreadTeam(std::size_t num_threads = 0);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  std::size_t size() const { return nthreads_; }

  /// body(index, tid): index in [0, count), tid in [0, size()).
  using IndexBody = std::function<void(std::size_t, std::size_t)>;
  /// body(begin, end, slice): a contiguous slice of [0, count); the slice
  /// id (not the executing thread) identifies per-slice scratch.
  using RangeBody = std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// Dynamic load balancing: indices are claimed one at a time from an
  /// atomic counter (the shared-memory analogue of the DLB server).
  void for_dynamic(std::size_t count, const IndexBody& body);

  /// Chunks of `pool` claimed dynamically: body(chunk_index, tid) ->
  /// keep_claiming.  This is the manager/worker scheme of paper section
  /// 3.3 with the SHMEM_SWAP server replaced by a fetch-and-add.
  /// Returning false retires the worker after the current chunk (a
  /// simulated worker crash under fault injection).  The body must leave
  /// the chunk fully handled before retiring -- in the recovery scheme the
  /// replacement worker re-executes it inline, then commits at the chunk's
  /// normal turn, so ordered-commit gates never stall on a dead worker.
  /// Remaining chunks are claimed by the survivors; if every worker retires
  /// while chunks remain unclaimed the region throws xfci::Error.
  using RetireBody = std::function<bool(std::size_t, std::size_t)>;
  void for_pool_resilient(const TaskPool& pool, const RetireBody& body);

  /// Static partition: [0, count) split into size() near-equal contiguous
  /// slices, slice i handed to some worker as body(begin, end, i).  The
  /// slice boundaries depend only on `count` and size(), never on
  /// scheduling, so per-slice reductions are deterministic.
  void for_static(std::size_t count, const RangeBody& body);

  /// True while the calling thread is executing a parallel region of any
  /// team.  Nested parallel calls (e.g. a serve worker's one-thread sigma
  /// inside the engine's team) detect this and run inline on the calling
  /// thread.
  static bool in_parallel_region();

 private:
  /// Claims indices from next_ until the region drains.  The region's body
  /// and count are passed by value: workers snapshot them under mu_ when
  /// they observe the new generation, so the claim loop itself runs
  /// lock-free on published-before-wakeup data.
  void claim_loop(std::size_t tid, const IndexBody* body,
                  const RetireBody* retire, std::size_t count);
  void worker_main(std::size_t tid);
  void run_region(std::size_t count, const IndexBody* body,
                  const RetireBody* retire);

  std::size_t nthreads_;
  std::vector<std::thread> workers_;

  // Region handoff state.  mu_ is the one capability of the pool: the
  // generation/stop handshake and the region descriptor are written by the
  // coordinating thread and read by workers strictly under it.  Everything
  // the workers touch *during* a region is either claimed through the
  // atomic counter or passed to claim_loop by value.
  sync::Mutex mu_;
  sync::ConditionVariable cv_start_;  ///< paired with mu_: region start
  sync::ConditionVariable cv_done_;   ///< paired with mu_: last worker out
  std::uint64_t generation_ XFCI_GUARDED_BY(mu_) = 0;
  /// Spawned workers still inside the current job.
  std::size_t working_ XFCI_GUARDED_BY(mu_) = 0;
  bool stop_ XFCI_GUARDED_BY(mu_) = false;

  const IndexBody* body_ XFCI_GUARDED_BY(mu_) = nullptr;
  const RetireBody* retire_body_ XFCI_GUARDED_BY(mu_) = nullptr;
  std::size_t count_ XFCI_GUARDED_BY(mu_) = 0;
  /// Shared DLB claim counter: deliberately lock-free (the fetch-and-add
  /// *is* the ownership handoff); atomics need no capability.
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_ XFCI_GUARDED_BY(mu_);
};

/// Commit gate forcing parallel sections to retire in index order: a worker
/// that finished computing section i blocks in wait_turn(i) until every
/// section j < i has called complete(j).  Used by the threaded mixed-spin
/// phase so the global accumulation order into sigma equals the serial item
/// order -- the "fixed reduction order within each shard" that makes the
/// threaded sigma bitwise independent of the thread count.
class OrderedSequencer {
 public:
  /// Blocks until every section j < index has completed; returns the wall
  /// seconds spent blocked (0 when the turn was already ours) so callers
  /// can attribute commit-gate stalls in traces.
  double wait_turn(std::size_t index);
  void complete(std::size_t index);
  void reset(std::size_t start = 0);

 private:
  sync::Mutex mu_;
  sync::ConditionVariable cv_;  ///< paired with mu_: turn advanced
  std::size_t turn_ XFCI_GUARDED_BY(mu_) = 0;
};

}  // namespace xfci::pv
