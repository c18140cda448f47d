#include "parallel/process_ddi.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <new>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "parallel/ddi_telemetry.hpp"
#include "parallel/shm_ipc.hpp"
#include "parallel/task_pool.hpp"

#if defined(__linux__)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace xfci::pv {

#if defined(__linux__)

namespace {

// ---------------------------------------------------------------------------
// Shared-arena layout.  All cross-process state is std::atomic words inside
// the two shm segments; the structs are placement-new'ed by the driver
// before any fork, so the children inherit fully-constructed objects at
// the same addresses.  Everything is lock-free 64-bit atomics — a rank can
// die at ANY instruction without leaving a lock held, which is the whole
// point of the seqlock/generation protocol below.
// ---------------------------------------------------------------------------

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the shm protocol needs lock-free 64-bit atomics");
static_assert(std::atomic<double>::is_always_lock_free,
              "the shm counters need lock-free double atomics");

constexpr std::uint64_t kRetryRing = 4096;

/// Wall timestamps travel through the arena as bit patterns (Timer reads
/// std::chrono::steady_clock, which is system-wide, so child timestamps
/// land in the driver's clock domain).
std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}
double double_of(std::uint64_t u) {
  double v;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

struct alignas(64) ControlHeader {
  std::atomic<std::uint64_t> dlb_next{0};  ///< the SHMEM_SWAP DLB counter
};

/// One rank's slice of the control segment (its own cache line: the
/// heartbeat is ticked on every item and must not false-share).
struct alignas(64) RankCell {
  std::atomic<std::uint64_t> heartbeat{0};  ///< ticked by the child
  std::atomic<std::uint32_t> alive{1};      ///< 0 = dead / fenced
  std::atomic<std::uint32_t> entered{0};    ///< checked in to this pool
  std::atomic<std::uint32_t> retired{0};    ///< saw `done`, exiting
  std::atomic<std::uint64_t> ops{0};        ///< one-sided op index (1-based)
  std::atomic<std::uint64_t> claims{0};     ///< cumulative chunk claims
  // Comm / flop accounting (CommCounters is rebuilt from these on read).
  std::atomic<std::uint64_t> get_calls{0}, acc_calls{0};
  std::atomic<std::uint64_t> dlb_calls{0};
  std::atomic<std::uint64_t> ops_dropped{0}, ops_delayed{0};
  std::atomic<double> get_words{0.0}, acc_words{0.0};
  std::atomic<double> flop_sum{0.0};
};

struct alignas(64) PoolHeader {
  std::atomic<std::uint32_t> done{0};  ///< every item committed; retire
  /// Reassignment ring (driver is the only producer): entries are
  /// (chunk << 32) | generation, claimed by children before fresh counter
  /// values so re-issued work is picked up first.
  std::atomic<std::uint64_t> retry_push{0}, retry_pop{0};
  std::atomic<std::uint64_t> retry_ring[kRetryRing];
};

struct alignas(64) ChunkCell {
  /// (generation << 32) | (rank + 1); 0 = never claimed.
  std::atomic<std::uint64_t> claim{0};
  std::atomic<std::uint64_t> claim_time_bits{0};
  std::atomic<std::uint64_t> publish_time_bits{0};
};

/// One work item's staged-payload slot: the torn-accumulate protection.
/// A writer bumps `seq` to odd, fills its payload span, bumps `seq` back
/// to even and only then publishes `ready_gen`; the driver consumes a slot
/// only when ready_gen matches the chunk's current generation, so a rank
/// SIGKILL'd mid-write (odd seq, stale ready_gen) simply never publishes
/// and its half-written payload is discarded with its generation.
struct alignas(64) ItemCell {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ready_gen{0};
  std::atomic<std::uint64_t> words{0};
};

[[noreturn]] void kill_self() {
  ::kill(::getpid(), SIGKILL);
  for (;;) ::pause();  // unreachable: SIGKILL cannot be blocked
}

std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

// ---------------------------------------------------------------------------
// ProcessDdi
// ---------------------------------------------------------------------------
class ProcessDdi final : public Ddi {
 public:
  ProcessDdi(std::size_t num_ranks, const FaultPlan& faults,
             const ProcessDdiParams& params)
      : num_ranks_(num_ranks), plan_(faults), params_(params) {
    XFCI_REQUIRE(num_ranks_ >= 1 && num_ranks_ < 0xffffffffu,
                 "process backend needs at least one rank");
    reap_stale_segments();  // orphan hygiene: clean up after crashed runs
    control_ = ShmSegment::create(sizeof(ControlHeader) +
                                  num_ranks_ * sizeof(RankCell));
    new (control_.data()) ControlHeader{};
    RankCell* cells = first_cell();
    for (std::size_t r = 0; r < num_ranks_; ++r) new (cells + r) RankCell{};
    pids_.assign(num_ranks_, -1);
    hb_seen_.assign(num_ranks_, 0);
    hb_time_.assign(num_ranks_, 0.0);
    counters_cache_.assign(num_ranks_, CommCounters{});
  }

  ~ProcessDdi() override { emergency_teardown(); }

  const char* name() const override { return "process"; }
  std::size_t num_ranks() const override { return num_ranks_; }
  std::size_t num_workers() const override { return num_ranks_; }
  bool alive(std::size_t rank) const override {
    return cell(rank).alive.load(std::memory_order_acquire) != 0;
  }
  std::size_t num_alive() const override {
    std::size_t n = 0;
    for (std::size_t r = 0; r < num_ranks_; ++r) n += alive(r) ? 1 : 0;
    return n;
  }
  std::vector<std::uint8_t> alive_mask() const override {
    std::vector<std::uint8_t> mask(num_ranks_);
    for (std::size_t r = 0; r < num_ranks_; ++r) mask[r] = alive(r) ? 1 : 0;
    return mask;
  }

  // One-sided ops: the payload movement itself is the caller's shared-
  // address-space copy (exactly as on ThreadsDdi — the child reads the
  // fork-inherited C vector and writes its arena slot); the Ddi accounts
  // the op in the shm counters and runs the fault triggers.  A child whose
  // FaultPlan op-count death fires dies HERE, mid-operation, by its own
  // hand — a genuine SIGKILL the driver must detect from outside.
  OpOutcome get(std::size_t rank, std::size_t owner, double words) override {
    return one_sided(DdiTelemetry::kGet, rank, owner, words);
  }
  OpOutcome acc(std::size_t rank, std::size_t owner, double words) override {
    return one_sided(DdiTelemetry::kAcc, rank, owner, words);
  }
  void alltoall(std::size_t, std::size_t, double) override {
    // Distributed transposes run in the driver's address space on this
    // backend (static phases are driver-sequential); nothing moves.
  }

  void charge_seconds(std::size_t, double) override {}
  void charge_dgemm(std::size_t rank, std::size_t m, std::size_t n,
                    std::size_t k) override {
    add_flops(rank, 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                        static_cast<double>(k));
  }
  void charge_daxpy_flops(std::size_t rank, double flops) override {
    add_flops(rank, flops);
  }
  void charge_indexed(std::size_t, double) override {}
  bool models_cost() const override { return false; }

  // The barrier is a wall timestamp (children between pools do not exist,
  // and in-pool synchronization is the commit protocol); it is also where
  // the driver declares time-triggered deaths that fall between pools, so
  // static phases see the same "declared at the next barrier" semantics
  // as the simulator.
  double barrier() override {
    const double t = timer_.seconds();
    if (!in_child_) {
      for (std::size_t r = 0; r < num_ranks_; ++r)
        if (alive(r) && plan_.death_time(r) <= t) declare_dead(r);
    }
    return t;
  }
  double elapsed() const override { return timer_.seconds(); }
  double imbalance() const override { return 0.0; }

  void set_tracer(obs::Tracer* tracer) override {
    tracer_ = tracer;
    if (tracer_ == nullptr) return;
    tracer_->enable(num_ranks_ + 1);
    tracer_->set_control_track(num_ranks_);
    for (std::size_t r = 0; r < num_ranks_; ++r)
      tracer_->name_track(r, "rank " + std::to_string(r));
    tracer_->name_track(num_ranks_, "driver");
    tracer_->set_clock([this] { return timer_.seconds(); });
  }
  obs::Tracer* tracer() const override { return tracer_; }
  double now(std::size_t) const override { return timer_.seconds(); }

  PoolStats run_pool(const TaskPool& pool, const PoolHooks& hooks) override;

  // Static phases are zero-communication on this backend (every rank's
  // columns live in the driver's address space), so they run sequentially
  // in the driver, like the simulator — forked ranks exist only for the
  // dynamic pool, where all one-sided traffic and all deaths happen.
  void for_ranks(const std::function<void(std::size_t)>& body) override {
    for (std::size_t r = 0; r < num_ranks_; ++r) body(r);
  }
  void for_range(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) override {
    body(0, n);
  }

  const CommCounters& counters(std::size_t rank) const override {
    const RankCell& c = cell(rank);
    CommCounters& cc = counters_cache_[rank];
    cc.get_words = c.get_words.load(std::memory_order_relaxed);
    cc.acc_words = c.acc_words.load(std::memory_order_relaxed);
    cc.get_calls = c.get_calls.load(std::memory_order_relaxed);
    cc.acc_calls = c.acc_calls.load(std::memory_order_relaxed);
    cc.dlb_calls = c.dlb_calls.load(std::memory_order_relaxed);
    cc.ops_dropped = c.ops_dropped.load(std::memory_order_relaxed);
    cc.ops_delayed = c.ops_delayed.load(std::memory_order_relaxed);
    return cc;
  }
  double flops(std::size_t slot) const override {
    return cell(slot).flop_sum.load(std::memory_order_relaxed);
  }
  double total_flops() const override {
    double f = 0.0;
    for (std::size_t r = 0; r < num_ranks_; ++r) f += flops(r);
    return f;
  }

 private:
  // --- arena accessors ------------------------------------------------------
  ControlHeader* control_header() const {
    return static_cast<ControlHeader*>(control_.data());
  }
  RankCell* first_cell() const {
    return reinterpret_cast<RankCell*>(
        static_cast<char*>(control_.data()) + sizeof(ControlHeader));
  }
  RankCell& cell(std::size_t r) const {
    XFCI_DCHECK(r < num_ranks_, "rank index out of range");
    return first_cell()[r];
  }
  PoolHeader* pool_header() const {
    return static_cast<PoolHeader*>(pool_.data());
  }
  ChunkCell& chunk_cell(std::size_t c) const {
    return reinterpret_cast<ChunkCell*>(static_cast<char*>(pool_.data()) +
                                        off_chunks_)[c];
  }
  ItemCell& item_cell(std::size_t it) const {
    return reinterpret_cast<ItemCell*>(static_cast<char*>(pool_.data()) +
                                       off_items_)[it];
  }
  double* payload_base() const {
    return reinterpret_cast<double*>(static_cast<char*>(pool_.data()) +
                                     off_payload_);
  }

  void add_flops(std::size_t slot, double flops) {
    cell(slot).flop_sum.fetch_add(flops, std::memory_order_relaxed);
  }

  void idle_sleep() const {
    ::usleep(static_cast<useconds_t>(params_.poll_micros));
  }

  // --- DLB counter (DDI_DLBNEXT: the SHMEM_SWAP word in the arena) ----------
  std::size_t next_task(std::size_t rank) {
    cell(rank).dlb_calls.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t t =
        control_header()->dlb_next.fetch_add(1, std::memory_order_acq_rel);
    if (!in_child_ && tracer_ != nullptr && tracer_->enabled())
      tracer_->instant(rank, "dlb", "dlb_claim", timer_.seconds());
    return static_cast<std::size_t>(t);
  }
  void reset_task_counter() {
    control_header()->dlb_next.store(0, std::memory_order_release);
  }

  // --- one-sided accounting + fault triggers --------------------------------
  OpOutcome one_sided(DdiTelemetry::Op op_kind, std::size_t rank,
                      std::size_t owner, double words) {
    if (!alive(rank) || !alive(owner)) return OpOutcome::kDropped;
    RankCell& c = cell(rank);
    const std::uint64_t op =
        c.ops.fetch_add(1, std::memory_order_relaxed) + 1;
    if (plan_.death_op(rank) == op) {
      if (in_child_) kill_self();  // crashes mid-op; never returns
      // The driver issued the op on the rank's behalf (static phase /
      // recovery refetch): the rank crashes issuing it, the op is lost.
      declare_dead(rank);
      return OpOutcome::kDropped;
    }
    const FaultPlan::Decision d =
        plan_.on_one_sided(rank, static_cast<std::size_t>(op));
    if (d.delay > 0.0)
      c.ops_delayed.fetch_add(1, std::memory_order_relaxed);
    if (d.drop) {
      c.ops_dropped.fetch_add(1, std::memory_order_relaxed);
      return OpOutcome::kDropped;
    }
    if (op_kind == DdiTelemetry::kAcc) {
      c.acc_calls.fetch_add(1, std::memory_order_relaxed);
      c.acc_words.fetch_add(words, std::memory_order_relaxed);
    } else {
      c.get_calls.fetch_add(1, std::memory_order_relaxed);
      c.get_words.fetch_add(words, std::memory_order_relaxed);
    }
    tm_.note_op(op_kind, words);
    return OpOutcome::kDelivered;
  }

  // --- failure domain (driver side) -----------------------------------------
  void declare_dead(std::size_t rank) {
    if (cell(rank).alive.exchange(0, std::memory_order_acq_rel) == 0)
      return;
    if (!in_child_ && tracer_ != nullptr && tracer_->enabled())
      tracer_->instant(rank, "recovery", "worker_death", timer_.seconds());
  }

  /// STONITH: SIGKILL `rank`'s child (if any), reap it, and declare it
  /// dead.  After this returns the rank can no longer write the arena, so
  /// bumping a chunk generation is safe.
  void fence_rank(std::size_t rank) {
    const pid_t pid = pids_[rank];
    if (pid >= 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);  // SIGKILL guarantees termination
      pids_[rank] = -1;
    }
    declare_dead(rank);
  }

  void emergency_teardown() noexcept {
    for (std::size_t r = 0; r < num_ranks_; ++r) {
      const pid_t pid = pids_[r];
      if (pid >= 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        pids_[r] = -1;
      }
    }
    pool_.close();
  }

  /// The driver's watchdog tick: reaps exited children (any pre-`done`
  /// exit is a death), fires time-triggered FaultPlan kills, and fences
  /// ranks whose heartbeat went stale.
  void poll_events() {
    const double now_s = timer_.seconds();
    for (std::size_t r = 0; r < num_ranks_; ++r) {
      pid_t pid = pids_[r];
      if (pid < 0) continue;
      if (alive(r) && plan_.death_time(r) <= now_s) ::kill(pid, SIGKILL);
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pids_[r] = -1;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        const bool finished =
            clean && cell(r).retired.load(std::memory_order_acquire) != 0;
        if (!finished) declare_dead(r);
        continue;
      }
      if (!alive(r)) continue;
      const std::uint64_t hb =
          cell(r).heartbeat.load(std::memory_order_relaxed);
      if (hb != hb_seen_[r] ||
          cell(r).entered.load(std::memory_order_acquire) == 0) {
        hb_seen_[r] = hb;
        hb_time_[r] = now_s;
      } else if (now_s - hb_time_[r] > params_.heartbeat_deadline) {
        fence_rank(r);
      }
    }
    // Liveness gauge: age of the stalest heartbeat among ranks that still
    // have a live child.  0 when every child has exited or been fenced.
    double max_age = 0.0;
    for (std::size_t r = 0; r < num_ranks_; ++r) {
      if (pids_[r] < 0 || !alive(r)) continue;
      max_age = std::max(max_age, now_s - hb_time_[r]);
    }
    tm_hb_age_.set(max_age);
  }

  std::size_t live_children() const {
    std::size_t n = 0;
    for (std::size_t r = 0; r < num_ranks_; ++r)
      if (pids_[r] >= 0 && alive(r)) ++n;
    return n;
  }

  // --- retry ring -----------------------------------------------------------
  void push_retry(std::uint64_t chunk, std::uint64_t gen) {
    PoolHeader* h = pool_header();
    const std::uint64_t p = h->retry_push.load(std::memory_order_relaxed);
    XFCI_REQUIRE(p - h->retry_pop.load(std::memory_order_acquire) <
                     kRetryRing,
                 "reassignment ring overflow");
    h->retry_ring[p % kRetryRing].store((chunk << 32) | gen,
                                        std::memory_order_release);
    h->retry_push.store(p + 1, std::memory_order_release);
  }
  bool pop_retry(std::uint64_t& chunk, std::uint64_t& gen) {
    PoolHeader* h = pool_header();
    for (;;) {
      std::uint64_t p = h->retry_pop.load(std::memory_order_acquire);
      if (p >= h->retry_push.load(std::memory_order_acquire)) return false;
      if (h->retry_pop.compare_exchange_weak(p, p + 1,
                                             std::memory_order_acq_rel)) {
        const std::uint64_t v =
            h->retry_ring[p % kRetryRing].load(std::memory_order_acquire);
        chunk = v >> 32;
        gen = v & 0xffffffffu;
        cell(child_rank_).dlb_calls.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }

  // --- pool internals (run_pool helpers; definitions below) -----------------
  void spawn_child(std::size_t rank, const TaskPool& pool,
                   const PoolHooks& hooks);
  [[noreturn]] void child_main(std::size_t rank, pid_t parent,
                               const TaskPool& pool, const PoolHooks& hooks);
  void child_run_chunk(std::size_t rank, std::uint64_t chunk,
                       std::uint64_t gen, const TaskPool& pool,
                       const PoolHooks& hooks, std::uint64_t die_at_claim);
  void child_publish(std::size_t it, std::uint64_t gen,
                     const PoolHooks& hooks, bool die_torn);
  void entry_barrier();
  void exit_barrier();
  void reassign(std::size_t chunk, const PoolHooks& hooks, PoolStats& st);
  void commit_one(std::size_t it, const TaskPool& pool,
                  const PoolHooks& hooks, PoolStats& st);

  std::size_t num_ranks_;
  FaultPlan plan_;
  ProcessDdiParams params_;
  Timer timer_;
  ShmSegment control_;
  obs::Tracer* tracer_ = nullptr;
  mutable std::vector<CommCounters> counters_cache_;

  // Live telemetry.  Op counters tick wherever the op is issued — in the
  // driver for static phases and recovery refetches, in a child (its own
  // process-local registry) for pool-stage ops; the scrapeable driver-side
  // series therefore carries the driver-issued traffic, while child op
  // totals stay in the shm counters the report aggregates.  The heartbeat
  // age gauge is pure driver state, updated every watchdog tick.
  DdiTelemetry tm_ = DdiTelemetry::make("process");
  obs::Gauge tm_hb_age_ =
      obs::telemetry().gauge(obs::metric::kProcessHeartbeatAge);

  // Driver-side failure-domain state (children inherit frozen copies).
  std::vector<pid_t> pids_;
  std::vector<std::uint64_t> hb_seen_;
  std::vector<double> hb_time_;

  // Child-side identity (set after fork, in the child only).
  bool in_child_ = false;
  std::size_t child_rank_ = 0;

  // Pool-scoped state: the layout constants are computed by the driver
  // BEFORE forking, so the children inherit them; the mutable protocol
  // state (claims, seqlocks, ring) lives in the pool_ segment.
  ShmSegment pool_;
  std::size_t off_chunks_ = 0, off_items_ = 0, off_payload_ = 0;
  std::vector<std::size_t> item_off_, item_cap_, chunk_of_;
  std::vector<std::uint64_t> gen_;
  std::vector<std::size_t> retries_;
  std::vector<double> recovery_mark_, wait_mark_;
};

// ---------------------------------------------------------------------------
// run_pool: fork the survivors, commit in global item order, tear down.
// ---------------------------------------------------------------------------

Ddi::PoolStats ProcessDdi::run_pool(const TaskPool& pool,
                                    const PoolHooks& hooks) {
  XFCI_REQUIRE(!in_child_, "run_pool is driver-only");
  XFCI_REQUIRE(hooks.stage && hooks.commit, "run_pool needs stage/commit");
  XFCI_REQUIRE(hooks.stage_words && hooks.pack && hooks.unpack,
               "the process backend moves staged results across address "
               "spaces: PoolHooks stage_words/pack/unpack are required");
  PoolStats st;
  const std::size_t nchunks = pool.num_chunks();
  if (nchunks == 0) return st;
  XFCI_REQUIRE(num_alive() > 0, "no surviving ranks to run the task pool");

  // Layout: one payload slot per item, sized by the caller's bound.
  std::size_t nitems = 0;
  for (std::size_t c = 0; c < nchunks; ++c)
    nitems = std::max(nitems, pool.chunk(c).second);
  item_off_.assign(nitems, 0);
  item_cap_.assign(nitems, 0);
  chunk_of_.assign(nitems, 0);
  std::size_t total = 0;
  for (std::size_t it = 0; it < nitems; ++it) {
    item_off_[it] = total;
    item_cap_[it] = hooks.stage_words(it);
    total += item_cap_[it];
  }
  XFCI_REQUIRE(total <= params_.max_payload_words,
               "pool payload arena (" + std::to_string(total) +
                   " words) exceeds max_payload_words");
  for (std::size_t c = 0; c < nchunks; ++c) {
    const auto [b, e] = pool.chunk(c);
    for (std::size_t it = b; it < e; ++it) chunk_of_[it] = c;
  }
  off_chunks_ = sizeof(PoolHeader);
  off_items_ = off_chunks_ + nchunks * sizeof(ChunkCell);
  off_payload_ = align_up(off_items_ + nitems * sizeof(ItemCell), 64);
  pool_ = ShmSegment::create(off_payload_ + total * sizeof(double) +
                             sizeof(double));
  new (pool_.data()) PoolHeader{};
  for (std::size_t c = 0; c < nchunks; ++c) new (&chunk_cell(c)) ChunkCell{};
  for (std::size_t it = 0; it < nitems; ++it) new (&item_cell(it)) ItemCell{};

  gen_.assign(nchunks, 1);
  retries_.assign(nchunks, 0);
  recovery_mark_.assign(nchunks, -1.0);
  wait_mark_.assign(nchunks, -1.0);
  reset_task_counter();

  // From here on every exit path — including a contract violation thrown
  // below — must fence the children and drop the pool segment.
  struct Teardown {
    ProcessDdi* d;
    ~Teardown() { d->emergency_teardown(); }
  } teardown{this};

  for (std::size_t r = 0; r < num_ranks_; ++r)
    if (alive(r)) spawn_child(r, pool, hooks);

  entry_barrier();
  XFCI_REQUIRE(num_alive() > 0,
               "every rank died entering the task pool");

  for (std::size_t it = 0; it < nitems; ++it)
    commit_one(it, pool, hooks, st);

  exit_barrier();
  return st;
}

void ProcessDdi::spawn_child(std::size_t rank, const TaskPool& pool,
                             const PoolHooks& hooks) {
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  XFCI_REQUIRE(pid >= 0, "fork() failed for rank " + std::to_string(rank));
  if (pid == 0) child_main(rank, parent, pool, hooks);  // never returns
  pids_[rank] = pid;
  hb_seen_[rank] = 0;
  hb_time_[rank] = timer_.seconds();
}

void ProcessDdi::child_main(std::size_t rank, pid_t parent,
                            const TaskPool& pool, const PoolHooks& hooks) {
  // Orphan hygiene: die with the parent, and exit only through _exit so
  // no inherited atexit handler or stdio flush runs twice.  The inherited
  // ShmSegment handles are never destroyed here — unlinking is the
  // driver's job.
  if (!tether_to_parent(static_cast<int>(parent))) ::_exit(5);
  in_child_ = true;
  child_rank_ = rank;
  tracer_ = nullptr;  // a child-side trace buffer would die with the fork
  try {
    if (hooks.on_child_start) hooks.on_child_start(rank);
    RankCell& me = cell(rank);
    PoolHeader* hdr = pool_header();
    me.entered.store(1, std::memory_order_release);
    const std::uint64_t die_at_claim = plan_.worker_death_claim(rank);
    while (hdr->done.load(std::memory_order_acquire) == 0) {
      me.heartbeat.fetch_add(1, std::memory_order_relaxed);
      if (me.alive.load(std::memory_order_acquire) == 0) break;  // fenced
      std::uint64_t chunk = 0, gen = 0;
      if (!pop_retry(chunk, gen)) {
        if (control_header()->dlb_next.load(std::memory_order_acquire) >=
            pool.num_chunks()) {
          idle_sleep();  // drained; wait for retries or `done`
          continue;
        }
        chunk = next_task(rank);
        if (chunk >= pool.num_chunks()) continue;  // lost the race
        gen = 1;
      }
      child_run_chunk(rank, chunk, gen, pool, hooks, die_at_claim);
    }
    me.retired.store(1, std::memory_order_release);
    ::_exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xfci process rank %zu: %s\n", rank, e.what());
    ::_exit(3);
  } catch (...) {
    std::fprintf(stderr, "xfci process rank %zu: unknown exception\n", rank);
    ::_exit(3);
  }
}

void ProcessDdi::child_run_chunk(std::size_t rank, std::uint64_t chunk,
                                 std::uint64_t gen, const TaskPool& pool,
                                 const PoolHooks& hooks,
                                 std::uint64_t die_at_claim) {
  RankCell& me = cell(rank);
  ChunkCell& cc = chunk_cell(chunk);
  cc.claim.store((gen << 32) | (rank + 1), std::memory_order_release);
  cc.claim_time_bits.store(bits_of(timer_.seconds()),
                           std::memory_order_release);
  const std::uint64_t nclaims =
      me.claims.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool dies_here = die_at_claim != 0 && nclaims == die_at_claim;
  const auto [ibegin, iend] = pool.chunk(chunk);
  for (std::size_t it = ibegin; it < iend; ++it) {
    me.heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (!hooks.stage(it, rank)) ::_exit(4);  // declared dead under us
    child_publish(it, gen, hooks, dies_here && it == ibegin);
  }
  cc.publish_time_bits.store(bits_of(timer_.seconds()),
                             std::memory_order_release);
}

void ProcessDdi::child_publish(std::size_t it, std::uint64_t gen,
                               const PoolHooks& hooks, bool die_torn) {
  ItemCell& ic = item_cell(it);
  double* payload = payload_base() + item_off_[it];
  // A predecessor killed mid-publish leaves the slot's seq odd, so parity
  // is forced rather than incremented: the generation protocol admits one
  // writer per generation (STONITH before the bump), never two at once.
  const std::uint64_t s0 =
      ic.seq.load(std::memory_order_relaxed) | 1;  // odd: write in progress
  ic.seq.store(s0, std::memory_order_seq_cst);
  if (die_torn) {
    // FaultPlan kill_worker_at_claim: a SIGKILL mid-accumulate, for real.
    // Pack into private scratch, copy only half the payload into the
    // arena, and die with the slot's seqlock odd — the driver must
    // discard the torn write and retransmit via reassignment.
    std::vector<double> tmp(std::max<std::size_t>(item_cap_[it], 1), 0.0);
    const std::size_t words = hooks.pack(it, tmp.data());
    std::memcpy(payload, tmp.data(), words / 2 * sizeof(double));
    kill_self();
  }
  const std::size_t words = hooks.pack(it, payload);
  XFCI_REQUIRE(words <= item_cap_[it],
               "packed item payload overflows its arena slot");
  ic.words.store(words, std::memory_order_release);
  ic.seq.store(s0 + 1, std::memory_order_release);  // even: payload stable
  ic.ready_gen.store(gen, std::memory_order_release);
}

void ProcessDdi::entry_barrier() {
  const double deadline = timer_.seconds() + params_.spawn_deadline;
  for (;;) {
    poll_events();
    bool all_in = true;
    for (std::size_t r = 0; r < num_ranks_; ++r)
      if (pids_[r] >= 0 && alive(r) &&
          cell(r).entered.load(std::memory_order_acquire) == 0)
        all_in = false;
    if (all_in) return;
    if (timer_.seconds() > deadline) {
      // Deadline degradation: the pool runs on whoever checked in.
      for (std::size_t r = 0; r < num_ranks_; ++r)
        if (pids_[r] >= 0 && alive(r) &&
            cell(r).entered.load(std::memory_order_acquire) == 0)
          fence_rank(r);
      return;
    }
    idle_sleep();
  }
}

void ProcessDdi::exit_barrier() {
  pool_header()->done.store(1, std::memory_order_release);
  const double deadline = timer_.seconds() + params_.shutdown_deadline;
  for (;;) {
    bool any = false;
    for (std::size_t r = 0; r < num_ranks_; ++r) {
      const pid_t pid = pids_[r];
      if (pid < 0) continue;
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pids_[r] = -1;
        if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0))
          declare_dead(r);
      } else {
        any = true;
      }
    }
    if (!any) break;
    if (timer_.seconds() > deadline) {
      // A rank that cannot even retire within the deadline is wedged.
      for (std::size_t r = 0; r < num_ranks_; ++r)
        if (pids_[r] >= 0) fence_rank(r);
      break;
    }
    idle_sleep();
  }
  pool_.close();
}

void ProcessDdi::reassign(std::size_t chunk, const PoolHooks& hooks,
                          PoolStats& st) {
  XFCI_REQUIRE(retries_[chunk] < kMaxTaskRetries,
               "aggregated DLB task exceeded its reassignment budget");
  ++retries_[chunk];
  st.tasks_reassigned += 1;
  tm_.tasks_reassigned.inc();
  if (recovery_mark_[chunk] < 0.0) recovery_mark_[chunk] = timer_.seconds();
  wait_mark_[chunk] = -1.0;
  // STONITH before the generation bump: if the old claimant still has a
  // process, it could otherwise publish a zombie write that matches the
  // new generation.  After fence_rank it cannot touch the arena again.
  const std::uint64_t cl = chunk_cell(chunk).claim.load(
      std::memory_order_acquire);
  if (cl != 0) {
    const std::size_t r = static_cast<std::size_t>((cl & 0xffffffffu) - 1);
    if (pids_[r] >= 0) fence_rank(r);
  }
  gen_[chunk] += 1;
  push_retry(chunk, gen_[chunk]);
  if (hooks.on_worker_death) hooks.on_worker_death();
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->instant(tracer_->control_track(), "recovery", "task_reassigned",
                     timer_.seconds(),
                     obs::trace_args({{"chunk", static_cast<double>(chunk)}}));
}

void ProcessDdi::commit_one(std::size_t it, const TaskPool& pool,
                            const PoolHooks& hooks, PoolStats& st) {
  const std::size_t chunk = chunk_of_[it];
  ItemCell& ic = item_cell(it);
  for (;;) {
    const std::uint64_t gen = gen_[chunk];
    if (ic.ready_gen.load(std::memory_order_acquire) == gen) {
      // Torn-write protection: a published slot must have an even seqlock
      // (ready_gen is released only after the final seq bump, and the
      // generation protocol admits a single writer per generation).
      XFCI_REQUIRE(
          (ic.seq.load(std::memory_order_acquire) & 1) == 0,
          "seqlock violation: item published with a write in progress");
      hooks.unpack(it, payload_base() + item_off_[it],
                   ic.words.load(std::memory_order_acquire));
      hooks.commit(it);
      wait_mark_[chunk] = -1.0;
      if (recovery_mark_[chunk] >= 0.0) {
        st.recovery_seconds += timer_.seconds() - recovery_mark_[chunk];
        recovery_mark_[chunk] = -1.0;
      }
      if (it + 1 == pool.chunk(chunk).second && tracer_ != nullptr &&
          tracer_->enabled()) {
        const std::uint64_t cl =
            chunk_cell(chunk).claim.load(std::memory_order_acquire);
        const std::size_t r = static_cast<std::size_t>((cl & 0xffffffffu)) -
                              1;
        const double t0 =
            double_of(chunk_cell(chunk).claim_time_bits.load(
                std::memory_order_acquire));
        double t1 = double_of(chunk_cell(chunk).publish_time_bits.load(
            std::memory_order_acquire));
        if (t1 < t0) t1 = timer_.seconds();
        const auto [b, e] = pool.chunk(chunk);
        tracer_->instant(r, "dlb", "dlb_claim", t0);
        tracer_->span(r, "dlb", "task", t0, t1,
                      obs::trace_args(
                          {{"chunk", static_cast<double>(chunk)},
                           {"items", static_cast<double>(e - b)}}));
      }
      return;
    }
    poll_events();
    const std::uint64_t cl =
        chunk_cell(chunk).claim.load(std::memory_order_acquire);
    if (cl != 0 && (cl >> 32) == gen) {
      // Claimed for the current generation: wait on the claimant, with a
      // deadline — a dead claimant is reassigned at once, a wedged one is
      // fenced first (heartbeats catch between-claim hangs, this deadline
      // catches mid-chunk ones).
      const std::size_t r = static_cast<std::size_t>((cl & 0xffffffffu) - 1);
      if (!alive(r)) {
        reassign(chunk, hooks, st);
        continue;
      }
      const double tc = double_of(chunk_cell(chunk).claim_time_bits.load(
          std::memory_order_acquire));
      if (timer_.seconds() - tc > params_.task_deadline) {
        fence_rank(r);
        reassign(chunk, hooks, st);
        continue;
      }
    } else {
      // Not (yet) claimed for this generation.  Normally a live child
      // will pick it up from the counter or the ring; but a child that
      // died BETWEEN claiming from the counter and writing the claim
      // cell — or after popping the ring — leaves the chunk orphaned,
      // so an unclaimed chunk also has a deadline.
      XFCI_REQUIRE(live_children() > 0,
                   "every rank died while tasks remain unclaimed");
      const double now_s = timer_.seconds();
      if (wait_mark_[chunk] < 0.0) wait_mark_[chunk] = now_s;
      if (now_s - wait_mark_[chunk] > params_.task_deadline)
        reassign(chunk, hooks, st);
    }
    idle_sleep();
  }
}

}  // namespace

std::unique_ptr<Ddi> make_process_ddi(std::size_t num_ranks,
                                      const FaultPlan& faults,
                                      const ProcessDdiParams& params) {
  return std::make_unique<ProcessDdi>(num_ranks, faults, params);
}

#else  // !defined(__linux__)

std::unique_ptr<Ddi> make_process_ddi(std::size_t, const FaultPlan&,
                                      const ProcessDdiParams&) {
  XFCI_REQUIRE(false,
               "the process backend needs POSIX shm_open/fork (Linux); "
               "use --backend sim or --backend threads here");
}

#endif  // defined(__linux__)

}  // namespace xfci::pv
