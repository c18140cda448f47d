#include "serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/metric_names.hpp"
#include "common/metrics.hpp"
#include "fci/solve_session.hpp"
#include "fci_parallel/run_report.hpp"
#include "integrals/fcidump.hpp"

namespace xfci::serve {
namespace {

/// Lock shards of the engine's setup cache.
constexpr std::size_t kCacheShards = 8;

std::string_view as_bytes(const double* data, std::size_t count) {
  return std::string_view(reinterpret_cast<const char*>(data),
                          count * sizeof(double));
}

/// Fingerprint of in-memory integral tables: every array the Hamiltonian
/// depends on, chained through one FNV state.
std::uint64_t hash_tables(const integrals::IntegralTables& t) {
  std::uint64_t h = hash_bytes(as_bytes(&t.core_energy, 1));
  h = hash_bytes(as_bytes(t.h.data(), t.h.size()), h);
  const std::vector<double>& eri = t.eri.raw();
  h = hash_bytes(as_bytes(eri.data(), eri.size()), h);
  h = hash_bytes(
      std::string_view(
          reinterpret_cast<const char*>(t.orbital_irreps.data()),
          t.orbital_irreps.size() * sizeof(t.orbital_irreps[0])),
      h);
  h = hash_bytes(t.group.name(), h);
  return h;
}

/// Index into the per-priority telemetry handle arrays.
std::size_t pidx(Priority p) {
  return p == Priority::kInteractive ? 0 : 1;
}

}  // namespace

std::string priority_name(Priority p) {
  return p == Priority::kInteractive ? "interactive" : "batch";
}

Priority parse_priority(const std::string& text) {
  if (text == "interactive") return Priority::kInteractive;
  if (text == "batch") return Priority::kBatch;
  XFCI_REQUIRE(false, "unknown priority '" + text +
                          "' (want interactive or batch)");
  return Priority::kBatch;
}

std::string job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kRejected:
      return "rejected";
  }
  return "unknown";
}

Engine::Engine(const EngineOptions& options)
    : options_(options),
      cache_(kCacheShards, options.cache_byte_budget),
      team_(options.num_workers),
      tm_(make_telemetry()) {}

Engine::Telemetry Engine::make_telemetry() {
  namespace m = obs::metric;
  obs::Registry& reg = obs::telemetry();
  Telemetry tm;
  const Priority kBoth[2] = {Priority::kInteractive, Priority::kBatch};
  for (Priority p : kBoth) {
    const std::vector<obs::Label> by_priority = {
        {m::kLabelPriority, priority_name(p)}};
    tm.submitted[pidx(p)] = reg.counter(m::kServeJobsSubmitted, by_priority);
    tm.rejected[pidx(p)] = reg.counter(m::kServeJobsRejected, by_priority);
    tm.completed[pidx(p)] = reg.counter(m::kServeJobsCompleted, by_priority);
    tm.failed[pidx(p)] = reg.counter(m::kServeJobsFailed, by_priority);
    tm.queue_depth[pidx(p)] = reg.gauge(m::kServeQueueDepth, by_priority);
  }
  tm.workers_busy = reg.gauge(m::kServeWorkersBusy);
  tm.stage_queue =
      reg.histogram(m::kServeJobStageSeconds, {{m::kLabelStage, "queue"}});
  tm.stage_setup =
      reg.histogram(m::kServeJobStageSeconds, {{m::kLabelStage, "setup"}});
  tm.stage_solve =
      reg.histogram(m::kServeJobStageSeconds, {{m::kLabelStage, "solve"}});
  return tm;
}

std::size_t Engine::submit(JobSpec spec) {
  XFCI_REQUIRE(!spec.fcidump_path.empty() || spec.tables != nullptr,
               "JobSpec needs an fcidump_path or in-memory tables");
  sync::MutexLock lock(mu_);
  const std::size_t id = jobs_.size();
  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  job->submit_time = clock_.seconds();
  job->result.id = id;
  job->result.name = job->spec.name.empty() ? job->spec.fcidump_path
                                            : job->spec.name;
  job->result.priority = job->spec.priority;
  if (options_.max_pending != 0 && pending_ >= options_.max_pending) {
    job->result.state = JobState::kRejected;
    job->result.error = "admission control: queue full";
    tm_.rejected[pidx(job->spec.priority)].inc();
  } else {
    job->result.state = JobState::kQueued;
    ++pending_;
    if (job->spec.priority == Priority::kInteractive)
      interactive_.push_back(id);
    else
      batch_.push_back(id);
    tm_.submitted[pidx(job->spec.priority)].inc();
    tm_.queue_depth[pidx(job->spec.priority)].add(1.0);
  }
  jobs_.push_back(std::move(job));
  return id;
}

Engine::Job* Engine::pop_next() {
  sync::MutexLock lock(mu_);
  std::size_t id = 0;
  if (!interactive_.empty()) {
    id = interactive_.front();
    interactive_.pop_front();
  } else if (!batch_.empty()) {
    id = batch_.front();
    batch_.pop_front();
  } else {
    return nullptr;
  }
  --pending_;
  Job& job = *jobs_[id];
  job.result.state = JobState::kRunning;
  job.result.sequence = ++started_;
  job.result.queue_seconds = clock_.seconds() - job.submit_time;
  tm_.queue_depth[pidx(job.spec.priority)].add(-1.0);
  tm_.workers_busy.add(1.0);
  tm_.stage_queue.observe(job.result.queue_seconds);
  return &job;
}

std::shared_ptr<const fci::SolveSetup> Engine::acquire_setup(Job& job) {
  const JobSpec& spec = job.spec;
  SetupKey key;
  key.algorithm = spec.algorithm;
  key.ms0_transpose = spec.ms0_transpose;
  SetupCache::Builder build;
  if (!spec.fcidump_path.empty()) {
    // The raw file image is the cache identity: hashing it is cheap, and
    // on a hit neither the header nor the records are parsed again.  The
    // electron counts / irrep key fields stay kFromSource — the hash
    // already pins what the header declares.
    std::ifstream is(spec.fcidump_path, std::ios::binary);
    XFCI_REQUIRE(is.good(), "cannot open " + spec.fcidump_path);
    std::ostringstream buf;
    buf << is.rdbuf();
    XFCI_REQUIRE(!is.bad(), "read error on " + spec.fcidump_path);
    std::string text = buf.str();
    key.source_hash = hash_bytes(text);
    key.source_hash = hash_bytes(spec.group, key.source_hash);
    build = [&spec, text = std::move(text)]() {
      integrals::FcidumpData data =
          integrals::read_fcidump_text(text, spec.group);
      return fci::SolveSetup::create(
          std::move(data.tables), data.nalpha, data.nbeta, data.isym,
          fci::SetupOptions{spec.algorithm, spec.ms0_transpose});
    };
  } else {
    key.source_hash = hash_tables(*spec.tables);
    key.nalpha = spec.nalpha;
    key.nbeta = spec.nbeta;
    key.irrep = spec.target_irrep;
    build = [&spec]() {
      return fci::SolveSetup::create(
          *spec.tables, spec.nalpha, spec.nbeta, spec.target_irrep,
          fci::SetupOptions{spec.algorithm, spec.ms0_transpose});
    };
  }
  if (!options_.cache_enabled) return build();
  bool hit = false;
  auto setup = cache_.get_or_build(key, build, &hit);
  job.result.cache_hit = hit;
  return setup;
}

void Engine::run_job(Job& job) {
  JobResult r;
  {
    sync::MutexLock lock(mu_);
    r = job.result;
  }
  Timer total;
  try {
    Timer t;
    auto setup = acquire_setup(job);
    {
      sync::MutexLock lock(mu_);
      r.cache_hit = job.result.cache_hit;
    }
    r.setup_seconds = t.seconds();
    tm_.stage_setup.observe(r.setup_seconds);
    t.reset();
    fci::SolveSession session(setup);
    const fci::FciResult res = session.solve(job.spec.solver);
    r.solve_seconds = t.seconds();
    tm_.stage_solve.observe(r.solve_seconds);
    r.energy = res.solve.energy;
    r.converged = res.solve.converged;
    r.cancelled = res.solve.cancelled;
    r.iterations = res.solve.iterations;
    r.dimension = res.dimension;
    r.s_squared = res.s_squared;
    r.flops = res.stats.dgemm_flops + res.stats.indexed_ops;
    r.state = JobState::kDone;
  } catch (const std::exception& e) {
    r.state = JobState::kFailed;
    r.error = e.what();
  }
  r.total_seconds = total.seconds();
  if (r.state == JobState::kDone) {
    tm_.completed[pidx(r.priority)].inc();
  } else {
    tm_.failed[pidx(r.priority)].inc();
  }
  tm_.workers_busy.add(-1.0);
  sync::MutexLock lock(mu_);
  job.result = r;
}

void Engine::drain() {
  Timer t;
  team_.for_dynamic(team_.size(), [this](std::size_t, std::size_t) {
    while (Job* job = pop_next()) run_job(*job);
  });
  sync::MutexLock lock(mu_);
  drain_seconds_ += t.seconds();
}

std::size_t Engine::jobs_submitted() const {
  sync::MutexLock lock(mu_);
  return jobs_.size();
}

JobResult Engine::result(std::size_t id) const {
  sync::MutexLock lock(mu_);
  XFCI_REQUIRE(id < jobs_.size(), "unknown job id");
  return jobs_[id]->result;
}

std::vector<JobResult> Engine::results() const {
  sync::MutexLock lock(mu_);
  std::vector<JobResult> out;
  out.reserve(jobs_.size());
  for (const auto& job : jobs_) out.push_back(job->result);
  return out;
}

std::string Engine::report_json() const {
  const std::vector<JobResult> jobs = results();
  const CacheStats cs = cache_.stats();

  // The shared xfci-metrics-v1 fields come from the run-report writer.
  // The engine has no distributed sigma phases, so those buckets stay
  // zero; totals carry the summed job wall time and flops over the done
  // jobs, phases the per-job average.
  fcp::RunMetrics m;
  m.run = options_.run_label;
  m.backend = "serve";
  m.num_ranks = 1;
  m.num_workers = team_.size();
  std::size_t failed = 0, rejected = 0;
  for (const JobResult& j : jobs) {
    if (j.state == JobState::kFailed) ++failed;
    if (j.state == JobState::kRejected) ++rejected;
    if (j.state != JobState::kDone) continue;
    m.dimension = std::max(m.dimension, j.dimension);
    m.totals.total += j.total_seconds;
    m.totals.flops += j.flops;
    ++m.totals.count;
  }
  bool mixed_algorithms = false;
  {
    sync::MutexLock lock(mu_);
    m.total_seconds = drain_seconds_;
    for (const auto& job : jobs_) {
      if (job->result.state != JobState::kDone) continue;
      const std::string name = fci::algorithm_name(job->spec.algorithm);
      if (m.algorithm.empty())
        m.algorithm = name;
      else if (m.algorithm != name)
        mixed_algorithms = true;
    }
  }
  if (m.algorithm.empty()) m.algorithm = "dgemm";
  if (mixed_algorithms) m.algorithm = "mixed";
  m.total_flops = m.totals.flops;
  m.per_sigma = m.totals.averaged();
  m.rank_counters.resize(1);
  m.rank_flops = {m.total_flops};
  m.env_reads = env::reads();

  obs::JsonWriter w;
  w.begin_object();
  m.write_fields(w);
  w.key("cache").begin_object();
  w.key("enabled").boolean(options_.cache_enabled);
  w.key("hits").uint(cs.hits);
  w.key("misses").uint(cs.misses);
  w.key("evictions").uint(cs.evictions);
  w.key("resident_bytes").uint(cs.resident_bytes);
  w.key("resident_entries").uint(cs.resident_entries);
  w.end_object();
  w.key("jobs").begin_array();
  for (const JobResult& j : jobs) {
    w.begin_object();
    w.key("id").uint(j.id);
    w.key("name").str(j.name);
    w.key("state").str(job_state_name(j.state));
    w.key("priority").str(priority_name(j.priority));
    w.key("cache_hit").boolean(j.cache_hit);
    w.key("sequence").uint(j.sequence);
    w.key("queue_seconds").num(j.queue_seconds);
    w.key("setup_seconds").num(j.setup_seconds);
    w.key("solve_seconds").num(j.solve_seconds);
    w.key("total_seconds").num(j.total_seconds);
    if (j.state == JobState::kDone) {
      w.key("energy").num(j.energy);
      w.key("converged").boolean(j.converged);
      w.key("cancelled").boolean(j.cancelled);
      w.key("iterations").uint(j.iterations);
      w.key("dimension").uint(j.dimension);
      w.key("s_squared").num(j.s_squared);
    }
    if (!j.error.empty()) w.key("error").str(j.error);
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  w.key("jobs").uint(jobs.size());
  w.key("done").uint(m.totals.count);
  w.key("failed").uint(failed);
  w.key("rejected").uint(rejected);
  w.end_object();
  w.end_object();
  return w.take();
}

void Engine::write_report(const std::string& path) const {
  obs::write_text_file(path, report_json());
}

}  // namespace xfci::serve
