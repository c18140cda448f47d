#include "parallel/ddi.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "parallel/ddi_telemetry.hpp"
#include "parallel/task_pool.hpp"
#include "parallel/thread_team.hpp"

namespace xfci::pv {
namespace {

// ---------------------------------------------------------------------------
// SimulatedDdi: a deterministic virtual Cray-X1.
//
// The paper's implementation runs on P X1 MSPs communicating through
// one-sided DDI/SHMEM operations.  Here the P ranks are logical entities
// with individual simulated clocks: all rank work is executed for real
// (the numerics are exact), and every kernel and communication event
// charges simulated time from the x1::CostModel.
//
// Determinism: the next DLB task goes to the earliest surviving rank
// (simulated time, rank-id tie break), so a run is a pure function of its
// inputs -- no OS-thread nondeterminism.  Receiver-side congestion of
// accumulates and of the DLB server is modeled with per-target busy-time
// accounting.
//
// Fault injection (fault.hpp): a dead rank's clock freezes and it is
// excluded from scheduling, barriers and imbalance; one-sided ops report
// whether they were delivered so callers can retransmit or reassign.
//
// Concurrency contract (capability-negative): the simulator executes rank
// bodies *sequentially* -- that is what makes runs pure functions of their
// inputs -- so the clocks, alive mask and counters have exactly one
// thread touching them and carry no capability (DESIGN.md §13).
// ---------------------------------------------------------------------------
class SimulatedDdi final : public Ddi {
 public:
  SimulatedDdi(std::size_t num_ranks, const x1::CostModel& cost,
               const FaultPlan& faults)
      : model_(cost),
        plan_(faults),
        clocks_(num_ranks, 0.0),
        flops_(num_ranks, 0.0),
        recv_busy_(num_ranks, 0.0),
        counters_(num_ranks),
        alive_(num_ranks, 1),
        slowdown_(num_ranks, 1.0),
        op_index_(num_ranks, 0) {
    XFCI_REQUIRE(num_ranks >= 1, "machine needs at least one rank");
    for (std::size_t r = 0; r < num_ranks; ++r)
      slowdown_[r] = plan_.slowdown(r);
  }

  const char* name() const override { return "sim"; }
  std::size_t num_ranks() const override { return clocks_.size(); }
  std::size_t num_workers() const override { return clocks_.size(); }
  bool alive(std::size_t rank) const override { return alive_.at(rank) != 0; }
  std::size_t num_alive() const override {
    std::size_t n = 0;
    for (const auto a : alive_) n += a;
    return n;
  }
  std::vector<std::uint8_t> alive_mask() const override { return alive_; }

  OpOutcome get(std::size_t rank, std::size_t owner, double words) override {
    tm_.note_op(DdiTelemetry::kGet, words);
    return one_sided(rank, owner, words, false);
  }
  OpOutcome acc(std::size_t rank, std::size_t owner, double words) override {
    tm_.note_op(DdiTelemetry::kAcc, words);
    return one_sided(rank, owner, words, true);
  }
  void alltoall(std::size_t rank, std::size_t peers,
                double remote_words) override;

  void charge_seconds(std::size_t rank, double seconds) override {
    XFCI_ASSERT(seconds >= 0.0, "negative time charge");
    if (alive_.at(rank) == 0) return;  // a dead rank's clock is frozen
    clocks_[rank] += seconds * slowdown_[rank];
  }
  void charge_dgemm(std::size_t rank, std::size_t m, std::size_t n,
                    std::size_t k) override {
    if (alive_.at(rank) == 0) return;
    charge_seconds(rank, model_.dgemm_seconds(m, n, k));
    flops_.at(rank) += 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  }
  void charge_daxpy_flops(std::size_t rank, double flops) override {
    if (alive_.at(rank) == 0) return;
    charge_seconds(rank, model_.daxpy_seconds(flops));
    flops_.at(rank) += flops;
  }
  void charge_indexed(std::size_t rank, double words) override {
    charge_seconds(rank, model_.indexed_seconds(words));
  }
  bool models_cost() const override { return true; }

  double barrier() override;
  double elapsed() const override;
  double imbalance() const override { return last_imbalance_; }

  // Track layout: one per simulated rank, then the control track.  The
  // tracer's free clock is the machine's elapsed time, so control-track
  // spans (solver iterations, sigma dispatch) share the simulated
  // timeline with the per-rank phase spans — deterministic end to end.
  void set_tracer(obs::Tracer* tracer) override {
    tracer_ = tracer;
    if (tracer_ == nullptr) return;
    const std::size_t n = clocks_.size();
    tracer_->enable(n + 1);
    tracer_->set_control_track(n);
    for (std::size_t r = 0; r < n; ++r)
      tracer_->name_track(r, "rank " + std::to_string(r));
    tracer_->name_track(n, "driver");
    tracer_->set_clock([this] { return elapsed(); });
  }
  obs::Tracer* tracer() const override { return tracer_; }
  double now(std::size_t rank) const override { return clocks_.at(rank); }

  PoolStats run_pool(const TaskPool& pool, const PoolHooks& hooks) override;

  void for_ranks(const std::function<void(std::size_t)>& body) override {
    for (std::size_t r = 0; r < clocks_.size(); ++r) body(r);
  }
  void for_range(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) override {
    body(0, n);
  }

  const CommCounters& counters(std::size_t rank) const override {
    return counters_.at(rank);
  }
  double flops(std::size_t slot) const override { return flops_.at(slot); }
  double total_flops() const override {
    double f = 0.0;
    for (const double v : flops_) f += v;
    return f;
  }

 private:
  OpOutcome one_sided(std::size_t rank, std::size_t owner, double words,
                      bool accumulate);
  /// Surviving rank with the smallest clock (ties broken by rank id).
  /// Dead ranks never win: their frozen clocks would take every tie.
  std::size_t earliest_rank() const;
  /// One DLB request (SHMEM_SWAP on the server rank), serialized at the
  /// server: it starts when both the rank and the server are free.
  void dlb_request(std::size_t rank);
  /// Claims the next task id from the DLB counter (DDI_DLBNEXT).
  std::size_t next_task(std::size_t rank);

  x1::CostModel model_;
  FaultPlan plan_;
  std::vector<double> clocks_;
  std::vector<double> flops_;
  std::vector<double> recv_busy_;  // receiver congestion accumulators
  double server_free_ = 0.0;       // DLB server availability
  double last_imbalance_ = 0.0;
  std::vector<CommCounters> counters_;
  std::vector<std::uint8_t> alive_;
  std::vector<double> slowdown_;       // cached plan_.slowdown per rank
  std::vector<std::size_t> op_index_;  // per-rank one-sided op counter
  std::size_t task_counter_ = 0;
  obs::Tracer* tracer_ = nullptr;
  DdiTelemetry tm_ = DdiTelemetry::make("sim");
};

// One recorder for get and acc.  The rank's op counter advances first and
// fires a scripted crash-on-op (the op is then lost).  A local op is an
// indexed copy; a remote one pays the network charge and meets the plan's
// drop/delay decision.  A dropped op is lost before the target applies it
// (for an accumulate the DDI_ACC mutex was never taken), so a retransmit
// lands exactly once.
OpOutcome SimulatedDdi::one_sided(std::size_t rank, std::size_t owner,
                                  double words, bool accumulate) {
  if (alive_.at(rank) == 0) return OpOutcome::kDropped;
  const std::size_t n = ++op_index_[rank];
  if (n == plan_.death_op(rank)) {
    alive_[rank] = 0;
    return OpOutcome::kDropped;
  }
  CommCounters& cc = counters_.at(rank);
  ++(accumulate ? cc.acc_calls : cc.get_calls);
  if (rank == owner) {
    charge_seconds(rank, model_.indexed_seconds(words));
    return OpOutcome::kDelivered;
  }
  charge_seconds(rank, accumulate ? model_.acc_seconds(words)
                                  : model_.get_seconds(words));
  (accumulate ? cc.acc_words : cc.get_words) += words;
  const FaultPlan::Decision d = plan_.on_one_sided(rank, n);
  if (d.delay > 0.0) {
    charge_seconds(rank, d.delay);
    ++cc.ops_delayed;
  }
  if (d.drop || alive_.at(owner) == 0) {
    ++cc.ops_dropped;
    return OpOutcome::kDropped;
  }
  if (accumulate) recv_busy_.at(owner) += model_.acc_target_seconds(words);
  return OpOutcome::kDelivered;
}

void SimulatedDdi::alltoall(std::size_t rank, std::size_t peers,
                            double remote_words) {
  if (alive_.at(rank) == 0) return;
  if (peers == 0 || remote_words <= 0.0) return;
  charge_seconds(rank, static_cast<double>(peers) * model_.get_latency +
                           8.0 * remote_words / model_.get_bandwidth);
  counters_.at(rank).get_words += remote_words;
  counters_.at(rank).get_calls += peers;
  // Receiver congestion (symmetric with an accumulate): the words this
  // rank pulls occupy its own node's receive bandwidth, and serving them
  // occupies the source nodes' -- attributed evenly across the surviving
  // peers since the all-to-all spreads the traffic.  Without this the
  // Vector-Symm transpose phases could beat the node-bandwidth bound.
  recv_busy_.at(rank) += model_.recv_target_seconds(remote_words);
  std::size_t others = 0;
  for (std::size_t q = 0; q < clocks_.size(); ++q)
    if (q != rank && alive_[q] != 0) ++others;
  if (others > 0) {
    const double served = remote_words / static_cast<double>(others);
    for (std::size_t q = 0; q < clocks_.size(); ++q)
      if (q != rank && alive_[q] != 0)
        recv_busy_.at(q) += model_.recv_target_seconds(served);
  }
}

std::size_t SimulatedDdi::earliest_rank() const {
  std::size_t best = clocks_.size();
  for (std::size_t r = 0; r < clocks_.size(); ++r) {
    if (alive_[r] == 0) continue;
    if (best == clocks_.size() || clocks_[r] < clocks_[best]) best = r;
  }
  XFCI_REQUIRE(best < clocks_.size(),
               "every rank has failed; the run cannot continue");
  return best;
}

void SimulatedDdi::dlb_request(std::size_t rank) {
  if (alive_.at(rank) == 0) return;
  const double start = std::max(clocks_.at(rank), server_free_);
  server_free_ = start + model_.dlb_latency;
  clocks_.at(rank) = server_free_;
  ++counters_.at(rank).dlb_calls;
}

std::size_t SimulatedDdi::next_task(std::size_t rank) {
  dlb_request(rank);
  if (tracer_ && tracer_->enabled())
    tracer_->instant(rank, "dlb", "dlb_claim", clocks_.at(rank));
  return task_counter_++;
}

double SimulatedDdi::barrier() {
  // Time-triggered deaths are declared at barrier entry: a rank whose
  // clock passed its scripted death time missed the barrier.  Its work up
  // to here counts as delivered; everything after is the survivors'.
  for (std::size_t r = 0; r < clocks_.size(); ++r)
    if (alive_[r] != 0 && clocks_[r] >= plan_.death_time(r)) alive_[r] = 0;

  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (std::size_t r = 0; r < clocks_.size(); ++r) {
    if (alive_[r] == 0) continue;
    lo = first ? clocks_[r] : std::min(lo, clocks_[r]);
    hi = first ? clocks_[r] : std::max(hi, clocks_[r]);
    first = false;
  }
  XFCI_REQUIRE(!first, "barrier with every rank failed");
  double t = hi;
  last_imbalance_ = hi - lo;
  // Receiver congestion: a node cannot have absorbed accumulates faster
  // than its receive bandwidth allows.
  for (std::size_t r = 0; r < clocks_.size(); ++r)
    if (alive_[r] != 0) t = std::max(t, recv_busy_[r]);
  t = std::max(t, server_free_);
  t += model_.barrier_cost;
  for (std::size_t r = 0; r < clocks_.size(); ++r)
    if (alive_[r] != 0) clocks_[r] = t;
  // Dead ranks keep their frozen clocks; their congestion state is moot.
  std::fill(recv_busy_.begin(), recv_busy_.end(), t);
  server_free_ = t;
  return t;
}

double SimulatedDdi::elapsed() const {
  double t = 0.0;
  bool first = true;
  for (std::size_t r = 0; r < clocks_.size(); ++r) {
    if (alive_[r] == 0) continue;
    t = first ? clocks_[r] : std::max(t, clocks_[r]);
    first = false;
  }
  XFCI_REQUIRE(!first, "elapsed() with every rank failed");
  return t;
}

Ddi::PoolStats SimulatedDdi::run_pool(const TaskPool& pool,
                                      const PoolHooks& hooks) {
  PoolStats st;
  obs::Tracer* tr =
      (tracer_ != nullptr && tracer_->enabled()) ? tracer_ : nullptr;
  task_counter_ = 0;
  for (std::size_t n = 0; n < pool.num_chunks(); ++n) {
    // Dynamic load balancing: the next chunk goes to the earliest rank.
    std::size_t r = earliest_rank();
    const std::size_t chunk = next_task(r);
    const auto [ibegin, iend] = pool.chunk(chunk);
    double span_start = clocks_[r];
    std::size_t retries = 0;
    std::size_t it = ibegin;
    while (it < iend) {
      if (hooks.stage(it, r)) {
        hooks.commit(it);  // item committed atomically; never re-executed
        ++it;
        continue;
      }
      // The worker died mid-item.  Items before `it` committed; this one
      // left the output untouched.  The DLB manager notices the silence
      // after a task timeout and reassigns the rest of the aggregated task
      // to the (new) earliest surviving rank.
      XFCI_REQUIRE(retries < kMaxTaskRetries,
                   "aggregated DLB task exceeded its reassignment budget");
      ++retries;
      st.tasks_reassigned += 1;
      tm_.tasks_reassigned.inc();
      if (tr) {
        // Close the dead rank's partial span at its frozen clock, mark
        // where the replacement picks the task up.
        tr->span(r, "dlb", "task", span_start, clocks_[r],
                 obs::trace_args({{"chunk", static_cast<double>(chunk)},
                                  {"partial", 1.0}}));
      }
      if (hooks.on_worker_death) hooks.on_worker_death();
      r = earliest_rank();
      charge_seconds(r, model_.task_timeout);
      st.recovery_seconds += model_.task_timeout;
      dlb_request(r);
      if (tr)
        tr->instant(r, "recovery", "task_reassigned", clocks_[r],
                    obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
      span_start = clocks_[r];
    }
    if (tr)
      tr->span(r, "dlb", "task", span_start, clocks_[r],
               obs::trace_args(
                   {{"chunk", static_cast<double>(chunk)},
                    {"items", static_cast<double>(iend - ibegin)}}));
  }
  return st;
}

// ---------------------------------------------------------------------------
// ThreadsDdi: the DDI layer over a pv::ThreadTeam.  Every rank's data is in
// the shared address space, so one-sided ops deliver without moving or
// counting anything; clocks are wall time; run_pool claims chunks with the
// team's atomic counter and retires commits through an OrderedSequencer so
// the accumulation order equals the serial item order.
// ---------------------------------------------------------------------------
class ThreadsDdi final : public Ddi {
 public:
  ThreadsDdi(std::size_t num_ranks, std::size_t num_threads,
             const FaultPlan& faults)
      : num_ranks_(num_ranks), team_(num_threads), plan_(faults) {
    // Charge slots: static phases charge by rank id, pool stages by worker
    // id; one flat array serves both.
    flops_.assign(std::max(num_ranks_, team_.size()), 0.0);
    counters_.assign(num_ranks_, CommCounters{});
  }

  const char* name() const override { return "threads"; }
  std::size_t num_ranks() const override { return num_ranks_; }
  std::size_t num_workers() const override { return team_.size(); }
  bool alive(std::size_t) const override { return true; }
  std::size_t num_alive() const override { return num_ranks_; }
  std::vector<std::uint8_t> alive_mask() const override {
    return std::vector<std::uint8_t>(num_ranks_, 1);
  }

  // One-sided ops are shared-memory loads/stores the caller already
  // performed; nothing is counted (comm_words stays 0 on this backend),
  // but live telemetry still sees the op rate.
  OpOutcome get(std::size_t, std::size_t, double words) override {
    tm_.note_op(DdiTelemetry::kGet, words);
    return OpOutcome::kDelivered;
  }
  OpOutcome acc(std::size_t, std::size_t, double words) override {
    tm_.note_op(DdiTelemetry::kAcc, words);
    return OpOutcome::kDelivered;
  }
  void alltoall(std::size_t, std::size_t, double) override {}

  void charge_seconds(std::size_t, double) override {}
  void charge_dgemm(std::size_t rank, std::size_t m, std::size_t n,
                    std::size_t k) override {
    flops_[rank] += 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                    static_cast<double>(k);
  }
  void charge_daxpy_flops(std::size_t rank, double flops) override {
    flops_[rank] += flops;
  }
  void charge_indexed(std::size_t, double) override {}
  bool models_cost() const override { return false; }

  // Parallel regions join before the next barrier() call, so the barrier
  // itself is just a wall-clock timestamp for the phase-row deltas.
  double barrier() override { return timer_.seconds(); }
  double elapsed() const override { return timer_.seconds(); }
  double imbalance() const override { return 0.0; }

  // Track layout mirrors the flat charge slots: static phases emit by
  // rank id, pool stages by worker id, and both index the same lanes
  // (never concurrently — the phases are separated by region joins).
  // Timestamps are wall seconds since backend construction.
  void set_tracer(obs::Tracer* tracer) override {
    tracer_ = tracer;
    if (tracer_ == nullptr) return;
    const std::size_t lanes = std::max(num_ranks_, team_.size());
    tracer_->enable(lanes + 1);
    tracer_->set_control_track(lanes);
    for (std::size_t r = 0; r < num_ranks_; ++r)
      tracer_->name_track(r, "rank " + std::to_string(r));
    for (std::size_t w = num_ranks_; w < lanes; ++w)
      tracer_->name_track(w, "worker " + std::to_string(w));
    tracer_->name_track(lanes, "driver");
    tracer_->set_clock([this] { return timer_.seconds(); });
  }
  obs::Tracer* tracer() const override { return tracer_; }
  double now(std::size_t) const override { return timer_.seconds(); }

  PoolStats run_pool(const TaskPool& pool, const PoolHooks& hooks) override;

  void for_ranks(const std::function<void(std::size_t)>& body) override {
    team_.for_dynamic(num_ranks_,
                      [&](std::size_t r, std::size_t) { body(r); });
  }
  void for_range(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) override {
    team_.for_static(n, [&](std::size_t b, std::size_t e, std::size_t) {
      body(b, e);
    });
  }

  const CommCounters& counters(std::size_t rank) const override {
    return counters_.at(rank);
  }
  double flops(std::size_t slot) const override { return flops_.at(slot); }
  double total_flops() const override {
    double f = 0.0;
    for (const double v : flops_) f += v;
    return f;
  }

 private:
  // Concurrency contract (capability-negative: nothing here is guarded by
  // a mutex, each member is safe for a documented structural reason —
  // DESIGN.md §13):
  //  * flops_ is written concurrently by workers, but every slot has
  //    exactly one writer (static phases index by rank id, pool stages by
  //    worker id, and the two never overlap a region).
  //  * counters_ is immutable after construction on this backend (nothing
  //    moves, so the windows are never charged).
  //  * plan_ and tracer_ are set before parallel regions start and only
  //    read inside them.
  std::size_t num_ranks_;
  ThreadTeam team_;
  FaultPlan plan_;
  Timer timer_;
  std::vector<double> flops_;           // slot-disjoint writes (see above)
  std::vector<CommCounters> counters_;  // stays zero: nothing moves
  obs::Tracer* tracer_ = nullptr;
  DdiTelemetry tm_ = DdiTelemetry::make("threads");
};

Ddi::PoolStats ThreadsDdi::run_pool(const TaskPool& pool,
                                    const PoolHooks& hooks) {
  PoolStats st;
  OrderedSequencer commit;
  obs::Tracer* tr =
      (tracer_ != nullptr && tracer_->enabled()) ? tracer_ : nullptr;
  std::vector<double> rework(pool.num_chunks(), 0.0);
  std::vector<std::uint8_t> reassigned(pool.num_chunks(), 0);
  // Per-worker claim counters feeding the fault plan's worker-death
  // schedule; each worker touches only its own slot.
  std::vector<std::size_t> claims(team_.size(), 0);

  team_.for_pool_resilient(pool, [&](std::size_t chunk,
                                     std::size_t tid) -> bool {
    const double t_claim = timer_.seconds();
    if (tr)
      tr->instant(tid, "dlb", "dlb_claim", t_claim,
                  obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
    const bool dies = plan_.worker_death_claim(tid) == ++claims[tid];
    const auto [ibegin, iend] = pool.chunk(chunk);
    for (std::size_t it = ibegin; it < iend; ++it) hooks.stage(it, tid);
    if (dies) {
      // The worker crashed with its results unsent.  The replacement
      // re-executes the chunk inline (same OS thread, so the ordered
      // commit below happens at the chunk's normal turn and the gate never
      // stalls on a dead worker); the re-execution time is the recovery
      // cost.  The recompute repeats the lost worker's flops rather than
      // adding new ones, so its charges are rolled back.
      if (tr)
        tr->instant(tid, "recovery", "worker_death", timer_.seconds(),
                    obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
      const Timer redo;
      const double flops0 = flops_[tid];
      for (std::size_t it = ibegin; it < iend; ++it) hooks.stage(it, tid);
      flops_[tid] = flops0;
      rework[chunk] = redo.seconds();
      reassigned[chunk] = 1;
      tm_.tasks_reassigned.inc();
    }
    const double t_gate = timer_.seconds();
    const double waited = commit.wait_turn(chunk);
    if (tr && waited > 0.0)
      tr->span(tid, "dlb", "commit_wait", t_gate, timer_.seconds(),
               obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
    for (std::size_t it = ibegin; it < iend; ++it) hooks.commit(it);
    commit.complete(chunk);
    if (tr)
      tr->span(tid, "dlb", "task", t_claim, timer_.seconds(),
               obs::trace_args(
                   {{"chunk", static_cast<double>(chunk)},
                    {"items", static_cast<double>(iend - ibegin)}}));
    return !dies;
  });

  for (std::size_t ch = 0; ch < pool.num_chunks(); ++ch) {
    st.recovery_seconds += rework[ch];
    st.tasks_reassigned += reassigned[ch];
  }
  return st;
}

}  // namespace

std::unique_ptr<Ddi> make_simulated_ddi(std::size_t num_ranks,
                                        const x1::CostModel& cost,
                                        const FaultPlan& faults) {
  return std::make_unique<SimulatedDdi>(num_ranks, cost, faults);
}

std::unique_ptr<Ddi> make_threads_ddi(std::size_t num_ranks,
                                      std::size_t num_threads,
                                      const FaultPlan& faults) {
  return std::make_unique<ThreadsDdi>(num_ranks, num_threads, faults);
}

}  // namespace xfci::pv
