#pragma once
// A DDI-style one-sided communication layer (the paper's section 2 stack).
//
// The paper's FCI program never touches the transport directly: the sigma
// algorithm talks to the Distributed Data Interface -- DDI_GET / DDI_ACC,
// barriers, and a shared dynamic-load-balancing counter (DDI_DLBNEXT, a
// SHMEM_SWAP on a server rank) -- and DDI is in turn implemented over
// SHMEM on the X1.  pv::Ddi reproduces that seam: the phase engines in
// src/fci/ speak only this interface, and a backend supplies the
// transport, the clocks, and the failure semantics.  The DLB counter is
// claimed inside each backend's run_pool, so it is not part of the
// interface.
//
// Backends:
//  * SimulatedDdi (make_simulated_ddi): a discrete-event virtual X1 --
//    per-rank simulated clocks, calibrated x1::CostModel charges, receiver
//    congestion, a serialized DLB server, fault injection.  The workers
//    are the simulated ranks; parallel regions run sequentially, so a run
//    is a pure function of its inputs.
//  * ThreadsDdi (make_threads_ddi): real shared-memory execution on a
//    pv::ThreadTeam.  One-sided ops are delivered no-ops (every rank's
//    columns live in the shared address space), clocks are wall time, and
//    run_pool() commits chunks through an OrderedSequencer so results are
//    bitwise identical for every thread count.
//  * ProcessDdi (make_process_ddi, parallel/process_ddi.hpp): ranks are
//    forked OS processes over a POSIX shm_open+mmap arena — true one-sided
//    atomics, a real SHMEM_SWAP-style DLB counter, and a genuine failure
//    domain: FaultPlan deaths are actual SIGKILLs, detected by heartbeats
//    and deadlines, recovered by generation-fenced chunk reassignment.
//
// Concurrency contract: a Ddi instance is owned by one driver thread.
// Methods called *inside* parallel regions (the for_ranks/for_range/
// run_pool bodies: charge_*, one-sided ops, now) must be safe for
// concurrent rank-/worker-disjoint use — backends keep their state
// either slot-disjoint or atomic (see ThreadsDdi in ddi.cpp), never behind
// a lock a body could block on.  Everything else (set_tracer, counters,
// flops, barrier, run_pool entry) is driver-thread-only, called between
// regions.  The thread_team/sync layers underneath carry the compile-time
// capability annotations (DESIGN.md §13).
//
// Seam for a real transport: an MPI or native-SHMEM backend plugs in as a
// fourth implementation of this interface -- get/acc map onto
// MPI_Get/MPI_Accumulate (or shmem_getmem + atomics), barrier onto
// MPI_Win_fence / shmem_barrier_all, and run_pool onto a claim loop over
// MPI_Fetch_and_op / shmem_swap against rank 0 with the same
// staged-commit hooks.  The charge_* methods become no-ops (real time is
// measured, not modeled) exactly as in ThreadsDdi, and nothing in the
// phase engines changes.  See DESIGN.md section 10 for the layer diagram.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/trace.hpp"
#include "parallel/fault.hpp"
#include "x1/cost_model.hpp"

namespace xfci::pv {

class TaskPool;

/// Per-rank communication counters (words are doubles).
struct CommCounters {
  double get_words = 0.0;
  double acc_words = 0.0;  ///< logical payload words (wire traffic is 2x)
  std::size_t get_calls = 0;
  std::size_t acc_calls = 0;
  std::size_t dlb_calls = 0;
  std::size_t ops_dropped = 0;  ///< one-sided ops lost by fault injection
  std::size_t ops_delayed = 0;  ///< one-sided ops delayed by fault injection
};

/// Abstract one-sided communication + execution substrate (the DDI layer).
class Ddi {
 public:
  virtual ~Ddi() = default;

  /// Stable backend identifier ("sim" / "threads" / "process"), used by
  /// run reports and driver banners.
  virtual const char* name() const = 0;

  // --- process group / liveness ---------------------------------------------
  /// Logical ranks of the data distribution (columns are split this way on
  /// every backend, so results do not depend on the transport).
  virtual std::size_t num_ranks() const = 0;
  /// Execution width: ranks for the simulator, threads for the shared-
  /// memory backend.  Sizes task pools and per-worker scratch.
  virtual std::size_t num_workers() const = 0;
  virtual bool alive(std::size_t rank) const = 0;
  virtual std::size_t num_alive() const = 0;
  virtual std::vector<std::uint8_t> alive_mask() const = 0;

  // --- one-sided data movement ----------------------------------------------
  // Data movement itself is performed by the caller (the vectors live in
  // one address space on every current backend); the Ddi accounts for the
  // transfer and reports whether it was delivered.  kDropped means the op
  // was lost (fault injection, or an endpoint died); the caller owns
  // retransmission and reassignment.
  virtual OpOutcome get(std::size_t rank, std::size_t owner,
                        double words) = 0;
  virtual OpOutcome acc(std::size_t rank, std::size_t owner,
                        double words) = 0;
  /// All-to-all participation of one rank: `remote_words` spread over
  /// `peers` messages (distributed transposes, MOC collective gather).
  virtual void alltoall(std::size_t rank, std::size_t peers,
                        double remote_words) = 0;

  // --- cost / recovery reporting hooks --------------------------------------
  // Backends that model cost (the simulator) charge the rank's clock and
  // flop counters; backends that execute for real measure wall time
  // instead and treat the time charges as no-ops (flop counts are still
  // recorded -- they are exact integer counts, not timings).
  virtual void charge_seconds(std::size_t rank, double seconds) = 0;
  virtual void charge_dgemm(std::size_t rank, std::size_t m, std::size_t n,
                            std::size_t k) = 0;
  virtual void charge_daxpy_flops(std::size_t rank, double flops) = 0;
  virtual void charge_indexed(std::size_t rank, double words) = 0;
  /// True when the backend models cost (simulated clocks); false when it
  /// executes for real and the solver's vector work needs no charges.
  virtual bool models_cost() const = 0;

  // --- synchronization / clocks ---------------------------------------------
  /// Barrier over the surviving ranks; returns the synchronized backend
  /// time (simulated seconds, or wall seconds since construction).  Phase
  /// engines meter their rows with barrier-to-barrier deltas.
  virtual double barrier() = 0;
  /// Current backend time (max surviving clock, or wall seconds).
  virtual double elapsed() const = 0;
  /// Spread between the latest and earliest surviving rank at the last
  /// barrier (the "Load Imbalance" row of Table 3); 0 when not modeled.
  virtual double imbalance() const = 0;

  // --- dynamic load balancing -----------------------------------------------
  /// Reassignments allowed per aggregated task before run_pool aborts.
  static constexpr std::size_t kMaxTaskRetries = 3;

  /// Hooks of the resilient aggregated-task pool driver (run_pool).
  struct PoolHooks {
    /// Computes `item` on `worker` into caller-owned staging, without
    /// touching shared output; returns false when the worker died mid-item
    /// (the item is then reassigned and re-staged from scratch).
    std::function<bool(std::size_t item, std::size_t worker)> stage;
    /// Applies the staged result of `item`; run_pool calls this exactly
    /// once per item, in global item order, on every backend.
    std::function<void(std::size_t item)> commit;
    /// Invoked when a worker death interrupts a task, before the task is
    /// reassigned (the phase layer redistributes columns here).
    std::function<void()> on_worker_death;

    // Address-space-crossing hooks, consumed only by backends whose
    // workers are separate OS processes (ProcessDdi): a child's writes to
    // caller-owned staging are invisible to the driver, so staged results
    // travel through a shared arena as flat double payloads.  In-process
    // backends ignore all four; a process backend requires the first
    // three.
    /// Upper bound (in doubles) on `item`'s packed payload; sizes the
    /// item's arena slot.  Must be computable without staging.
    std::function<std::size_t(std::size_t item)> stage_words;
    /// Serializes the staged result of `item` into `dst` (capacity
    /// stage_words(item)); returns the words written.  Runs in the worker
    /// that staged the item.
    std::function<std::size_t(std::size_t item, double* dst)> pack;
    /// Rebuilds the staged result of `item` from a packed payload, in the
    /// driver, immediately before commit(item).
    std::function<void(std::size_t item, const double* src,
                       std::size_t words)>
        unpack;
    /// Runs once per worker *in the worker's own address space*, before it
    /// checks in to the pool and claims its first chunk: the place to reset
    /// process-wide state a forked child inherits (threads do not survive
    /// fork).  No phase engine sets it; the fault tests use it to wedge a
    /// child before it checks in.  In-process backends never call it.
    std::function<void(std::size_t worker)> on_child_start;
  };
  struct PoolStats {
    std::size_t tasks_reassigned = 0;  ///< chunks redone after a death
    double recovery_seconds = 0.0;     ///< timeout / recompute time
  };

  /// Runs every chunk of `pool` through stage-then-commit with dynamic
  /// load balancing (chunks are claimed from the backend's DLB counter,
  /// DDI_DLBNEXT) and task-level fault recovery.  Commit order equals
  /// global item order, so the accumulation is bitwise identical across
  /// backends and worker counts.
  virtual PoolStats run_pool(const TaskPool& pool, const PoolHooks& hooks) = 0;

  // --- execution primitives --------------------------------------------------
  /// Runs `body(rank)` for every rank in [0, num_ranks()): sequentially in
  /// rank order on the simulator, concurrently (dynamically claimed) on
  /// real backends.  Bodies must write only rank-disjoint output.
  virtual void for_ranks(const std::function<void(std::size_t)>& body) = 0;
  /// Runs `body(begin, end)` over a static split of [0, n): one slice on
  /// the simulator, one per worker on real backends.  Used for the
  /// element-wise vector folds of the transpose phases.
  virtual void for_range(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) = 0;

  // --- observability ----------------------------------------------------------
  /// Attaches a span/instant sink (nullptr detaches).  The backend sizes
  /// the tracer (one track per rank, plus worker tracks on the threads
  /// backend, plus one control track), labels the tracks, points the
  /// tracer's clock at its own domain — simulated seconds or wall
  /// seconds — and from then on emits DLB task spans and claim/death
  /// instants from run_pool.  Layers above add phase, solver
  /// and checkpoint spans through tracer().
  virtual void set_tracer(obs::Tracer* tracer) = 0;
  /// The attached tracer, or nullptr when tracing is off.
  virtual obs::Tracer* tracer() const = 0;
  /// `rank`'s current time in this backend's trace clock domain: the
  /// rank's simulated clock, or wall seconds since construction.  Span
  /// emitters inside for_ranks bodies timestamp with this.
  virtual double now(std::size_t rank) const = 0;

  // --- metrics ----------------------------------------------------------------
  virtual const CommCounters& counters(std::size_t rank) const = 0;
  /// Flops recorded on a rank/worker slot since construction.
  virtual double flops(std::size_t slot) const = 0;
  /// Total flops over all slots (exact: flop charges are integer-valued).
  virtual double total_flops() const = 0;

  /// Total one-sided words moved so far: gets + 2x accumulates (payload +
  /// applied result), summed over ranks.
  double comm_words() const {
    double w = 0.0;
    for (std::size_t r = 0; r < num_ranks(); ++r) {
      const CommCounters& cc = counters(r);
      w += cc.get_words + 2.0 * cc.acc_words;
    }
    return w;
  }
};

/// Discrete-event simulated X1 (`num_ranks` MSPs with `cost` charges;
/// `faults` installed and armed).
std::unique_ptr<Ddi> make_simulated_ddi(std::size_t num_ranks,
                                        const x1::CostModel& cost,
                                        const FaultPlan& faults);

/// Shared-memory backend over pv::ThreadTeam: `num_ranks` logical ranks
/// executed by `num_threads` workers (0 = hardware concurrency); `faults`
/// supplies the worker-death schedule for run_pool.
std::unique_ptr<Ddi> make_threads_ddi(std::size_t num_ranks,
                                      std::size_t num_threads,
                                      const FaultPlan& faults);

}  // namespace xfci::pv
