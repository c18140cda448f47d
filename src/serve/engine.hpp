#pragma once
// Service layer of the solve pipeline (DESIGN.md §15): a multi-tenant job
// engine over the setup/session split.
//
//   JobSpec --> submit() --> [interactive queue | batch queue]
//                                 |
//                    drain(): ThreadTeam workers pop jobs
//                                 |
//            SetupCache::get_or_build (shared SolveSetup)
//                                 |
//                SolveSession::solve --> JobResult
//
// Scheduling: two strict priority classes.  Workers always drain the
// interactive queue before touching the batch queue; within a class jobs
// run in submission order.  Admission control caps the number of queued
// jobs — a submit beyond the cap is *rejected up front* (state kRejected)
// rather than accepted into an unbounded backlog.
//
// Each drained job records where its time went (queue wait, setup
// acquisition, solve) and whether its setup came from the cache; the
// engine aggregates everything into an xfci-metrics-v1 run report (the
// shared fields written by fcp::RunMetrics) with a "cache" section (hits /
// misses / evictions / resident bytes) and a per-job "jobs" array,
// validated by tools/check_trace.py --metrics.
//
// Determinism: job *results* are bitwise-identical to standalone run_fci
// calls over the same inputs regardless of worker count or scheduling
// (shared setups are immutable; sessions own all mutable state).  Timing
// fields and queue interleavings are wall-clock facts and are not.

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "fci/fci.hpp"
#include "integrals/tables.hpp"
#include "parallel/thread_team.hpp"
#include "serve/setup_cache.hpp"

namespace xfci::serve {

enum class Priority {
  kInteractive,  ///< drained strictly before any batch job
  kBatch,
};

std::string priority_name(Priority p);

/// Parses "interactive" / "batch"; throws xfci::Error on anything else.
Priority parse_priority(const std::string& text);

/// One unit of work: an FCI ground-state solve over integrals from either
/// an FCIDUMP file or an in-memory table set.
struct JobSpec {
  std::string name;  ///< label for reports (defaults to the path)

  /// When non-empty the job reads this FCIDUMP file; electron counts and
  /// the target irrep come from its NELEC/MS2/ISYM header fields.  The
  /// file bytes are hashed for the setup-cache key, so re-submitting the
  /// same file skips parsing and setup entirely.
  std::string fcidump_path;
  std::string group = "C1";  ///< point group interpreting ORBSYM

  /// In-memory alternative (used when fcidump_path is empty).
  std::shared_ptr<const integrals::IntegralTables> tables;
  std::size_t nalpha = 0;
  std::size_t nbeta = 0;
  std::size_t target_irrep = 0;

  fci::Algorithm algorithm = fci::Algorithm::kDgemm;
  bool ms0_transpose = false;
  fci::SolverOptions solver;
  Priority priority = Priority::kBatch;
};

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,    ///< solve threw; `error` holds the message
  kRejected,  ///< admission control refused the submit
};

std::string job_state_name(JobState s);

struct JobResult {
  std::size_t id = 0;
  std::string name;
  JobState state = JobState::kQueued;
  Priority priority = Priority::kBatch;
  std::string error;

  double energy = 0.0;
  bool converged = false;
  bool cancelled = false;
  std::size_t iterations = 0;
  std::size_t dimension = 0;
  double s_squared = 0.0;
  double flops = 0.0;  ///< DGEMM + indexed flops of the job's sigmas

  bool cache_hit = false;       ///< setup came from the shared cache
  std::size_t sequence = 0;     ///< 1-based order in which workers
                                ///< started the job (0 = never started)
  double queue_seconds = 0.0;   ///< submit -> worker pickup
  double setup_seconds = 0.0;   ///< integral load + setup acquisition
  double solve_seconds = 0.0;   ///< eigensolver
  double total_seconds = 0.0;   ///< pickup -> completion
};

struct EngineOptions {
  /// Worker threads draining the queues (0 = hardware concurrency).
  std::size_t num_workers = 0;
  /// Admission cap on jobs waiting in the queues (0 = unlimited).
  std::size_t max_pending = 0;
  bool cache_enabled = true;
  /// Total setup-cache byte budget, split across shards (0 = unlimited).
  std::size_t cache_byte_budget = 0;
  /// "run" label stamped into the metrics report.
  std::string run_label = "serve";
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueues a job and returns its id.  When the admission cap is hit
  /// the job is recorded as kRejected (check result(id).state) and will
  /// never run.
  std::size_t submit(JobSpec spec);

  /// Runs every queued job to completion on the worker team.  Strict
  /// priority: the interactive queue drains before the batch queue.
  /// Safe to call repeatedly as more jobs are submitted.
  void drain();

  std::size_t num_workers() const { return team_.size(); }
  std::size_t jobs_submitted() const;

  /// Snapshot of one job / all jobs (by id, in submission order).
  JobResult result(std::size_t id) const;
  std::vector<JobResult> results() const;

  CacheStats cache_stats() const { return cache_.stats(); }
  bool cache_enabled() const { return options_.cache_enabled; }

  /// xfci-metrics-v1 run report over everything drained so far, plus the
  /// engine-specific "cache" and "jobs" sections.
  std::string report_json() const;
  void write_report(const std::string& path) const;

 private:
  struct Job {
    JobSpec spec;
    JobResult result;
    double submit_time = 0.0;  ///< engine-clock timestamp
  };

  Job* pop_next();
  void run_job(Job& job);
  std::shared_ptr<const fci::SolveSetup> acquire_setup(Job& job);

  // Live telemetry handles, indexed by priority where labeled.  Updated
  // at the same state transitions the report aggregates over (one event
  // stream for scrape and report, DESIGN.md §16); writes drop while
  // telemetry is disabled.
  struct Telemetry {
    obs::Counter submitted[2];
    obs::Counter rejected[2];
    obs::Counter completed[2];
    obs::Counter failed[2];
    obs::Gauge queue_depth[2];
    obs::Gauge workers_busy;
    obs::Histogram stage_queue;
    obs::Histogram stage_setup;
    obs::Histogram stage_solve;
  };
  static Telemetry make_telemetry();

  EngineOptions options_;
  SetupCache cache_;
  pv::ThreadTeam team_;
  Timer clock_;  ///< one clock domain for queue/latency accounting
  Telemetry tm_;

  mutable sync::Mutex mu_;
  std::vector<std::unique_ptr<Job>> jobs_ XFCI_GUARDED_BY(mu_);
  std::deque<std::size_t> interactive_ XFCI_GUARDED_BY(mu_);
  std::deque<std::size_t> batch_ XFCI_GUARDED_BY(mu_);
  std::size_t pending_ XFCI_GUARDED_BY(mu_) = 0;
  std::size_t started_ XFCI_GUARDED_BY(mu_) = 0;
  double drain_seconds_ XFCI_GUARDED_BY(mu_) = 0.0;
};

}  // namespace xfci::serve
