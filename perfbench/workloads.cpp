#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>

#include "common/metric_names.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "fci/fci.hpp"
#include "fci/solve_session.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "inputs.hpp"
#include "integrals/fcidump.hpp"
#include "linalg/gemm.hpp"
#include "serve/engine.hpp"

namespace perfbench {
namespace {

namespace xf = xfci::fci;
namespace fcp = xfci::fcp;
namespace xv = xfci::serve;
using SetupPtr = std::shared_ptr<const xf::SolveSetup>;

constexpr std::size_t kRanks = 16;  // DriverCli's default rank count
constexpr double kReferenceTolerance = 1e-8;  // Eh, seed-0 energies
// Serial and parallel sigma drivers sum in different orders; these are the
// bounds the repository's own tests hold them to.
constexpr double kSigmaTolerance = 1e-11;  // relative, per element
constexpr double kEnergyTolerance = 1e-10;  // Eh

xf::SolverOptions solver_options() {
  xf::SolverOptions s;
  s.method = xf::Method::kAutoAdjusted;
  s.residual_tolerance = 1e-5;
  return s;
}

fcp::ParallelOptions threads_options(std::size_t threads) {
  fcp::ParallelOptions p;
  p.num_ranks = kRanks;
  p.execution = fcp::ExecutionMode::kThreads;
  p.num_threads = threads;
  return p;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string energy_text(double e) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.12f", e);
  return buf;
}

// --- solving ----------------------------------------------------------------

/// Decorator that records every sigma application as an "fci.sigma" span.
class TracedSigma : public xf::SigmaOperator {
 public:
  TracedSigma(xf::SigmaOperator& inner, SpanLog& log)
      : inner_(inner), log_(log) {}
  void apply(std::span<const double> c, std::span<double> sigma) override {
    Scope span(&log_, "fci.sigma");
    inner_.apply(c, sigma);
  }
  const xf::CiSpace& space() const override { return inner_.space(); }

 private:
  xf::SigmaOperator& inner_;
  SpanLog& log_;
};

/// One fcp::run_parallel_fci call as seen from outside.
struct ParallelRun {
  double wall = 0.0;
  fcp::PhaseBreakdown per_sigma;  ///< averaged per sigma application
  double sigma_seconds = 0.0;     ///< wall time spent inside the sigmas
  double energy = 0.0;
  bool converged = false;
};

ParallelRun run_parallel(const SetupPtr& setup, std::size_t threads) {
  const double t0 = now_s();
  const auto res = fcp::run_parallel_fci(setup, threads_options(threads),
                                         solver_options());
  ParallelRun run;
  run.wall = now_s() - t0;
  run.per_sigma = res.per_sigma;
  run.sigma_seconds = res.total_seconds;
  run.energy = res.solve.energy;
  run.converged = res.solve.converged;
  return run;
}

struct Solved {
  double energy = 0.0;
  bool converged = false;
  std::size_t iterations = 0;  ///< sigma applications
  double flops = 0.0;          ///< counted sigma flops (DGEMM + indexed)
  double seconds = 0.0;        ///< solve wall time
  int span = -1;               ///< traced: the "fci.solve" span
};

/// Solves on `setup` through SolveSession, the path every serve session
/// runs.  Traced runs hand a TracedSigma over the setup's SigmaDgemm to
/// fci::solve_lowest instead, doing what SolveSession::solve does around
/// it.
Solved solve(const SetupPtr& setup, SpanLog* log) {
  const auto sopt = solver_options();
  Solved out;
  const double t0 = now_s();
  if (log == nullptr) {
    xf::SolveSession session(setup);
    const auto res = session.solve(sopt);
    out.energy = res.solve.energy;
    out.converged = res.solve.converged;
    out.iterations = res.solve.iterations;
    out.flops = res.stats.dgemm_flops + res.stats.indexed_ops;
  } else {
    Scope span(log, "fci.solve");
    const auto inner = setup->make_sigma();
    TracedSigma sigma(*inner, *log);
    const auto precond = setup->preconditioner(sopt.model_space);
    const auto res =
        xf::solve_lowest(sigma, setup->ints(), sopt, precond.get());
    xf::s_squared_expectation(setup->space(), res.vector);
    out.energy = res.energy;
    out.converged = res.converged;
    out.iterations = res.iterations;
    out.flops = inner->stats().dgemm_flops + inner->stats().indexed_ops;
    out.span = span.id();
  }
  out.seconds = now_s() - t0;
  return out;
}

void check_solve(Report& r, const std::string& what, bool converged,
                 double energy, double scf_energy) {
  r.check(converged, what + " did not converge", false);
  r.check(energy < scf_energy, what + ": E_FCI " + energy_text(energy) +
                                   " is not below E_SCF " +
                                   energy_text(scf_energy));
}

// --- probes outside the measured region -------------------------------------

/// The sigma check on one seeded vector.  The threads backend must repeat
/// itself bitwise on one thread and on the simulated backend (the parallel
/// driver's determinism contract).  The serial SigmaDgemm sums in another
/// order, so against it the threaded sigma must agree to kSigmaTolerance.
struct SigmaProbe {
  xf::SigmaStats stats;           ///< one serial application
  fcp::PhaseBreakdown simulated;  ///< one simulated-backend application
  double serial_s = 0.0;          ///< median serial apply
  double threaded_s = 0.0;        ///< median threads-backend apply
};

SigmaProbe sigma_probe(const SetupPtr& setup, std::size_t threads,
                       std::uint64_t seed, std::size_t reps, Report& r) {
  xfci::Rng rng(seed + 1);
  const auto c = rng.signed_vector(setup->dimension());
  const auto& ctx = setup->context();
  std::vector<double> serial(c.size()), threaded(c.size()), other(c.size());
  const auto op = setup->make_sigma();
  fcp::ParallelSigma par(ctx, threads_options(threads));
  std::vector<double> ts, tt;
  for (std::size_t i = 0; i < reps; ++i) {
    op->reset_stats();
    double t0 = now_s();
    op->apply(c, serial);
    ts.push_back(now_s() - t0);
    t0 = now_s();
    par.apply(c, threaded);
    tt.push_back(now_s() - t0);
  }
  SigmaProbe p;
  p.stats = op->stats();
  p.serial_s = median(ts);
  p.threaded_s = median(tt);

  const auto same = [&](const std::vector<double>& v) {
    return std::memcmp(v.data(), threaded.data(),
                       v.size() * sizeof(double)) == 0;
  };
  fcp::ParallelSigma one(ctx, threads_options(1));
  one.apply(c, other);
  r.check(same(other), "threaded sigma differs from its one-thread run");
  fcp::ParallelOptions sim;
  sim.num_ranks = kRanks;
  fcp::ParallelSigma simulated(ctx, sim);
  simulated.apply(c, other);
  r.check(same(other), "threaded sigma differs from the simulated backend");
  p.simulated = simulated.breakdown();

  double diff = 0.0, scale = 1.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    diff = std::max(diff, std::abs(serial[i] - threaded[i]));
    scale = std::max(scale, std::abs(serial[i]));
  }
  r.observation("sigma_serial_vs_threaded_max_rel_diff", diff / scale);
  r.check(diff <= kSigmaTolerance * scale,
          "threaded sigma differs from the serial sigma beyond tolerance");

  r.counter("sigma_dgemm_flops", p.stats.dgemm_flops);
  r.counter("sigma_indexed_ops", p.stats.indexed_ops);
  r.counter("sigma_gather_words", p.stats.gather_words);
  r.counter("sigma_scatter_words", p.stats.scatter_words);
  r.counter("sigma_dgemm_calls",
            static_cast<double>(p.stats.dgemm_shapes.size()));
  r.counter("parallel_comm_words_per_sigma", p.simulated.comm_words);
  r.counter("parallel_dlb_calls_per_sigma",
            static_cast<double>(p.simulated.dlb_calls));
  return p;
}

/// A run_parallel_fci solve against the serial energy of the same setup.
void check_parallel(Report& r, const ParallelRun& run, double serial) {
  r.check(run.converged, "run_parallel_fci did not converge", false);
  r.observation("parallel_vs_serial_energy_diff",
                std::abs(run.energy - serial));
  r.check(std::abs(run.energy - serial) <= kEnergyTolerance,
          "run_parallel_fci energy " + energy_text(run.energy) +
              " is not within tolerance of the serial solve " +
              energy_text(serial));
}

/// Best-of-5 single-thread linalg::gemm rate for an m x n x k product.
double gemm_gflops(std::size_t m, std::size_t n, std::size_t k) {
  std::vector<double> a(m * k, 0.5), b(k * n, 0.25), c(m * n, 0.0);
  const double flop = 2.0 * static_cast<double>(m * n * k);
  const auto calls = static_cast<std::size_t>(std::max(1.0, 5e7 / flop));
  double best = 1e300;
  for (int trial = 0; trial < 5; ++trial) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < calls; ++i)
      xfci::linalg::gemm(false, false, m, n, k, 1.0, a.data(), k, b.data(),
                         n, 0.0, c.data(), n);
    best = std::min(best, now_s() - t0);
  }
  return flop * static_cast<double>(calls) / best / 1e9;
}

/// The median DGEMM shape (by m*n*k) of one sigma application.
std::array<std::size_t, 3> median_shape(const xf::SigmaStats& stats) {
  auto shapes = stats.dgemm_shapes;
  if (shapes.empty()) return {1, 1, 1};
  std::sort(shapes.begin(), shapes.end(), [](const auto& x, const auto& y) {
    return x[0] * x[1] * x[2] < y[0] * y[1] * y[2];
  });
  return shapes[shapes.size() / 2];
}

struct GemmCount {
  double calls = 0.0;
  double flops = 0.0;
};

GemmCount gemm_telemetry() {
  const auto snap = xfci::obs::telemetry().snapshot();
  GemmCount g;
  if (const auto* m = snap.find(xfci::obs::metric::kGemmCalls.name))
    g.calls = static_cast<double>(m->value);
  if (const auto* m = snap.find(xfci::obs::metric::kGemmFlops.name))
    g.flops = static_cast<double>(m->value);
  return g;
}

/// Runs `body` with the telemetry registry on and returns the GEMM calls
/// and flops it issued.
template <class Body>
GemmCount with_gemm_telemetry(Body&& body) {
  auto& reg = xfci::obs::telemetry();
  reg.set_enabled(true);
  const GemmCount before = gemm_telemetry();
  body();
  const GemmCount after = gemm_telemetry();
  reg.set_enabled(false);
  return {after.calls - before.calls, after.flops - before.flops};
}

// --- the serve engine -------------------------------------------------------

/// One closed batch: submit every job from one thread, then drain().
struct Batch {
  double wall = 0.0;  ///< first submit until drain() returns
  double drain_start = 0.0;
  double drain_end = 0.0;
  std::size_t workers = 0;
  std::vector<xv::JobResult> jobs;
  std::vector<double> pickup;  ///< per job, on the now_s() clock
  xv::CacheStats cache;
  int root = -1;
};

/// Job spans rebuilt from the engine's own per-job timings, one track per
/// concurrently busy worker (the engine does not say which worker ran a
/// job, so a job goes to the first track that is free at its pickup).
void add_job_spans(SpanLog& log, int drain, const Batch& b) {
  std::vector<std::size_t> order(b.jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return b.pickup[x] < b.pickup[y];
  });
  std::vector<double> track_free;
  for (const std::size_t i : order) {
    const xv::JobResult& j = b.jobs[i];
    const double start = b.pickup[i];
    std::size_t t = 0;
    while (t < track_free.size() && track_free[t] > start) ++t;
    if (t == track_free.size()) track_free.push_back(0.0);
    track_free[t] = start + j.total_seconds;
    const int track = static_cast<int>(t) + 1;
    const std::string scope = "job " + std::to_string(j.id);
    const int job = log.add({"serve.job", scope, start,
                             start + j.total_seconds, drain, track});
    const double solve_start = start + j.setup_seconds;
    log.add({"serve.job_setup", scope, start, solve_start, job, track});
    log.add({"serve.job_solve", scope, solve_start,
             solve_start + j.solve_seconds, job, track});
  }
}

Batch serve_batch(const std::vector<xv::JobSpec>& specs, std::size_t workers,
                  SpanLog* log, const char* root_name) {
  Batch b;
  Scope root(log, root_name);
  xv::EngineOptions eo;
  eo.num_workers = workers;
  xv::Engine engine(eo);
  std::vector<double> submitted(specs.size());
  const double t0 = now_s();
  {
    Scope s(log, "serve.submit");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      engine.submit(specs[i]);
      submitted[i] = now_s();  // after the engine stamped its submit time
    }
  }
  int drain = -1;
  b.drain_start = now_s();
  {
    Scope s(log, "serve.drain");
    drain = s.id();
    engine.drain();
  }
  b.drain_end = now_s();
  b.wall = b.drain_end - t0;
  b.workers = engine.num_workers();
  b.jobs = engine.results();
  b.cache = engine.cache_stats();
  for (std::size_t i = 0; i < b.jobs.size(); ++i)
    b.pickup.push_back(submitted[i] + b.jobs[i].queue_seconds);
  if (log != nullptr) add_job_spans(*log, drain, b);
  root.stop();
  b.root = root.id();
  return b;
}

double batch_flops(const Batch& b) {
  double f = 0.0;
  for (const auto& j : b.jobs) f += j.flops;
  return f;
}

// --- metric sets ------------------------------------------------------------

/// Per-unit-of-work samples of the end-to-end metrics; each is reported
/// as its median (service times as quantiles).
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> time_to_solution_s;
  std::vector<double> sustained_gflops;
  std::vector<double> jobs_per_s;
  std::vector<double> service_s;  ///< per job
  double peak_rss_mb = 0.0;       ///< taken before the post-run probes
};

void emit(const EndToEnd& e, Report& r) {
  r.metric("setup_s", median(e.setup_s), "s");
  r.metric("time_to_solution_s", median(e.time_to_solution_s), "s");
  r.metric("sustained_gflops", median(e.sustained_gflops), "GF/s");
  r.metric("jobs_per_s", median(e.jobs_per_s), "1/s");
  r.metric("job_service_p50_s", quantile(e.service_s, 0.5), "s");
  r.metric("job_service_p90_s", quantile(e.service_s, 0.9), "s");
  r.metric("peak_rss_mb", e.peak_rss_mb, "MB");
  r.samples("setup_s", e.setup_s);
  r.samples("time_to_solution_s", e.time_to_solution_s);
  r.samples("sustained_gflops", e.sustained_gflops);
  r.samples("jobs_per_s", e.jobs_per_s);
  r.samples("job_service_s", e.service_s);
}

/// Every per-layer metric; each workload fills all of them.
struct Layers {
  double prepare_s = 0, parse_s = 0, setup_create_s = 0, precond_build_s = 0;
  double setup_bytes = 0;
  double sigma_calls = 0, sigma_ms = 0, sigma_share = 0, sigma_gflops = 0;
  double solver_iterations = 0, solver_self_s = 0;
  GemmCount gemm;
  double gemm_peak_gflops = 0, gemm_sigma_shape_gflops = 0;
  SigmaProbe sigma;
  ParallelRun parallel;
  double cache_hits = 0, cache_misses = 0;
  double queue_p50_s = 0, job_setup_p50_s = 0, job_solve_p50_s = 0;
  double worker_utilization = 0, drain_tail_s = 0;
  double unaccounted_share = 0, overhead_share = 0;
};

void emit(const Layers& l, Report& r) {
  const auto& ps = l.parallel.per_sigma;
  const auto& st = l.sigma.stats;
  r.metric("scf.prepare_s", l.prepare_s, "s");
  r.metric("integrals.fcidump_parse_s", l.parse_s, "s");
  r.metric("fci.setup_create_s", l.setup_create_s, "s");
  r.metric("fci.precond_build_s", l.precond_build_s, "s");
  r.metric("fci.setup_bytes", l.setup_bytes, "bytes");
  r.metric("fci.sigma_calls", l.sigma_calls, "count");
  r.metric("fci.sigma_ms", l.sigma_ms, "ms");
  r.metric("fci.sigma_share", l.sigma_share, "ratio");
  r.metric("fci.sigma_gflops", l.sigma_gflops, "GF/s");
  r.metric("fci.sigma_dgemm_flops", st.dgemm_flops, "flop");
  r.metric("fci.sigma_indexed_ops", st.indexed_ops, "count");
  r.metric("fci.sigma_gather_words", st.gather_words, "words");
  r.metric("fci.sigma_scatter_words", st.scatter_words, "words");
  r.metric("fci.sigma_dgemm_calls",
           static_cast<double>(st.dgemm_shapes.size()), "count");
  r.metric("fci.solver_iterations", l.solver_iterations, "count");
  r.metric("fci.solver_self_s", l.solver_self_s, "s");
  r.metric("linalg.gemm_calls", l.gemm.calls, "count");
  r.metric("linalg.gemm_flops", l.gemm.flops, "flop");
  r.metric("linalg.gemm_peak_gflops", l.gemm_peak_gflops, "GF/s");
  r.metric("linalg.gemm_sigma_shape_gflops", l.gemm_sigma_shape_gflops,
           "GF/s");
  r.metric("fci.sigma_roofline_fraction",
           l.sigma_gflops / l.gemm_peak_gflops, "ratio");
  r.metric("fci_parallel.same_spin_ms",
           (ps.beta_side + ps.alpha_side) * 1e3, "ms");
  r.metric("fci_parallel.mixed_spin_ms", ps.mixed * 1e3, "ms");
  r.metric("fci_parallel.transpose_ms", ps.transpose * 1e3, "ms");
  r.metric("fci_parallel.unaccounted_s",
           l.parallel.wall - l.parallel.sigma_seconds, "s");
  r.metric("fci_parallel.speedup_vs_serial",
           l.sigma.serial_s / l.sigma.threaded_s, "ratio");
  r.metric("parallel.comm_words_per_sigma", l.sigma.simulated.comm_words,
           "words");
  r.metric("parallel.dlb_calls",
           static_cast<double>(l.sigma.simulated.dlb_calls), "count");
  const double lookups = l.cache_hits + l.cache_misses;
  r.metric("serve.cache_hit_rate", lookups > 0 ? l.cache_hits / lookups : 0.0,
           "ratio");
  r.metric("serve.cache_hits", l.cache_hits, "count");
  r.metric("serve.cache_misses", l.cache_misses, "count");
  r.metric("serve.queue_p50_s", l.queue_p50_s, "s");
  r.metric("serve.job_setup_p50_s", l.job_setup_p50_s, "s");
  r.metric("serve.job_solve_p50_s", l.job_solve_p50_s, "s");
  r.metric("serve.worker_utilization", l.worker_utilization, "ratio");
  r.metric("serve.drain_tail_s", l.drain_tail_s, "s");
  r.metric("trace.unaccounted_share", l.unaccounted_share, "ratio");
  r.metric("trace.overhead_share", l.overhead_share, "ratio");
}

double span_seconds(const SpanLog& log, int id) {
  return log.spans()[static_cast<std::size_t>(id)].seconds();
}

/// Sum of the durations of the spans called `name` under `root`.
double total_seconds(const SpanLog& log, const std::string& name, int root) {
  double s = 0.0;
  for (const int id : log.find(name, root)) s += span_seconds(log, id);
  return s;
}

/// The fci.* solve metrics over a set of traced solves.
struct SolveLayer {
  double sigma_calls = 0, sigma_s = 0, solve_s = 0, self_s = 0, flops = 0;
  double iterations = 0;
  std::vector<double> sigma_each;  ///< every sigma span, seconds

  void add(const SpanLog& log, const Solved& s) {
    const auto self = log.self_times();
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != s.span || spans[i].name != "fci.sigma") continue;
      sigma_each.push_back(spans[i].seconds());
      sigma_s += spans[i].seconds();
      sigma_calls += 1;
    }
    solve_s += span_seconds(log, s.span);
    self_s += self[static_cast<std::size_t>(s.span)];
    flops += s.flops;
    iterations += static_cast<double>(s.iterations);
  }
};

/// Serve-layer metrics over traced batches (pooled jobs, median batch).
void serve_layers(const std::vector<Batch>& batches, Layers& l) {
  std::vector<double> queue, setup, solve, util, tail;
  for (const Batch& b : batches) {
    double busy = 0.0, last_pickup = b.drain_start;
    for (std::size_t i = 0; i < b.jobs.size(); ++i) {
      const auto& j = b.jobs[i];
      queue.push_back(j.queue_seconds);
      setup.push_back(j.setup_seconds);
      solve.push_back(j.solve_seconds);
      busy += j.total_seconds;
      last_pickup = std::max(last_pickup, b.pickup[i]);
    }
    util.push_back(busy / (static_cast<double>(b.workers) *
                           (b.drain_end - b.drain_start)));
    tail.push_back(b.drain_end - last_pickup);
  }
  l.cache_hits = static_cast<double>(batches.front().cache.hits);
  l.cache_misses = static_cast<double>(batches.front().cache.misses);
  l.queue_p50_s = median(queue);
  l.job_setup_p50_s = median(setup);
  l.job_solve_p50_s = median(solve);
  l.worker_utilization = median(util);
  l.drain_tail_s = median(tail);
}

/// Probes every traced run makes on the workload's representative setup.
void probe_layers(const SetupPtr& setup, const RunOptions& o, Layers& l,
                  Report& r) {
  l.sigma = sigma_probe(setup, o.threads, o.seed, 4, r);
  const auto shape = median_shape(l.sigma.stats);
  l.gemm_peak_gflops = gemm_gflops(512, 512, 512);
  l.gemm_sigma_shape_gflops = gemm_gflops(shape[0], shape[1], shape[2]);
}

// --- FCIDUMP job files -----------------------------------------------------

struct ServeInputs {
  std::vector<std::string> paths;
  std::vector<std::string> groups;
  std::vector<double> scf_energy;
  std::vector<xv::JobSpec> jobs;
  std::vector<std::size_t> job_hamiltonian;  ///< per job, in submit order
};

/// Writes `sys` as the job file `path`; returns its index.
std::size_t add_job_file(ServeInputs& in, const System& sys,
                         std::string path) {
  xfci::integrals::write_fcidump(path, sys.tables, sys.nalpha, sys.nbeta);
  in.paths.push_back(std::move(path));
  in.groups.push_back(sys.tables.group.name());
  in.scf_energy.push_back(sys.scf_energy);
  return in.paths.size() - 1;
}

void add_job(ServeInputs& in, std::size_t h, bool interactive) {
  xv::JobSpec spec;
  spec.name = std::string("h").append(std::to_string(h));
  spec.fcidump_path = in.paths[h];
  spec.group = in.groups[h];
  spec.solver = solver_options();
  spec.priority =
      interactive ? xv::Priority::kInteractive : xv::Priority::kBatch;
  in.jobs.push_back(std::move(spec));
  in.job_hamiltonian.push_back(h);
}

/// A standalone solve of one job file: FCIDUMP to converged energy.
struct Reference {
  SetupPtr setup;
  double setup_s = 0.0;
  double wall = 0.0;
  Solved solved;
};

Reference reference_solve(const ServeInputs& in, std::size_t h, SpanLog* log) {
  Reference ref;
  const double t0 = now_s();
  Scope root(log, "bench.reference");
  xfci::integrals::FcidumpData data;
  {
    Scope s(log, "integrals.fcidump_parse");
    data = xfci::integrals::read_fcidump(in.paths[h], in.groups[h]);
  }
  {
    Scope s(log, "fci.setup_create");
    ref.setup = xf::SolveSetup::create(std::move(data.tables), data.nalpha,
                                       data.nbeta, data.isym);
  }
  {
    Scope s(log, "fci.precond_build");
    ref.setup->preconditioner(solver_options().model_space);
  }
  ref.setup_s = now_s() - t0;
  ref.solved = solve(ref.setup, log);
  ref.wall = now_s() - t0;
  return ref;
}

/// Checks a standalone solve; `refs` holds the run's first solve of each
/// file, which every later one must repeat bitwise.
void check_reference(const Reference& ref, const ServeInputs& in,
                     std::size_t h, const std::vector<Reference>& refs,
                     Report& r) {
  const std::string what = "standalone h" + std::to_string(h);
  check_solve(r, what, ref.solved.converged, ref.solved.energy,
              in.scf_energy[h]);
  if (h < refs.size())
    r.check(same_bits(ref.solved.energy, refs[h].solved.energy),
            what + " energy differs from the run's first solve");
}

/// Every job ran to a converged energy bitwise equal to `refs`' standalone
/// solve of its file.
void check_jobs(const Batch& b, const ServeInputs& in,
                const std::vector<Reference>& refs, Report& r) {
  for (const auto& j : b.jobs) {
    r.check(j.state == xv::JobState::kDone,
            j.name + " ended " + xv::job_state_name(j.state) + " " + j.error,
            false);
    if (j.state != xv::JobState::kDone) continue;
    r.check(j.converged, j.name + " did not converge", false);
    const double want = refs[in.job_hamiltonian[j.id]].solved.energy;
    r.check(same_bits(j.energy, want),
            j.name + ": engine energy " + energy_text(j.energy) +
                " differs from the standalone solve " + energy_text(want));
  }
}

/// A batch's throughput and its jobs' service times.
void add_batch(const Batch& b, EndToEnd& e) {
  e.jobs_per_s.push_back(static_cast<double>(b.jobs.size()) / b.wall);
  for (const auto& j : b.jobs) e.service_s.push_back(j.total_seconds);
}

// --- workload 1: C2, input molecule to converged energy ---------------------

const SpaceSpec kC2Space{"x-dz", 2, 14};
constexpr double kC2Reference = -75.48355437;  // FCI energy at seed 0, Eh
// The served jobs: the same molecule cut to 10 orbitals (D2h, 5,600
// determinants), short enough that a run completes hundreds of them.
const SpaceSpec kC2JobSpace{"x-dz", 2, 10};
constexpr std::size_t kC2JobsPerBatch = 16;

struct Rep {
  SetupPtr setup;
  double scf_energy = 0.0;
  double setup_s = 0.0;
  double wall = 0.0;
  Solved solved;
  int root = -1;
};

/// Input molecule to converged energy.  Set-up ends when the solver could
/// start iterating: SCF, integrals, SolveSetup and its preconditioner.
Rep c2_rep(const xfci::chem::Molecule& mol, SpanLog* log) {
  Rep rep;
  const double t0 = now_s();
  Scope root(log, "bench.rep");
  System sys;
  {
    Scope s(log, "scf.prepare");
    sys = prepare(mol, kC2Space);
  }
  rep.scf_energy = sys.scf_energy;
  {
    Scope s(log, "fci.setup_create");
    rep.setup = xf::SolveSetup::create(std::move(sys.tables), sys.nalpha,
                                       sys.nbeta);
  }
  {
    Scope s(log, "fci.precond_build");
    rep.setup->preconditioner(solver_options().model_space);
  }
  rep.setup_s = now_s() - t0;
  rep.solved = solve(rep.setup, log);
  rep.wall = now_s() - t0;
  root.stop();
  rep.root = root.id();
  return rep;
}

/// Checks one rep and that its energy repeats the first rep's bitwise.
void check_rep(const Rep& rep, const RunOptions& o, double first_energy,
               Report& r) {
  check_solve(r, "solve", rep.solved.converged, rep.solved.energy,
              rep.scf_energy);
  if (!std::isnan(first_energy))
    r.check(same_bits(rep.solved.energy, first_energy),
            "energy " + energy_text(rep.solved.energy) +
                " differs from the run's first solve " +
                energy_text(first_energy));
  if (o.seed == 0)
    r.check(std::abs(rep.solved.energy - kC2Reference) <= kReferenceTolerance,
            "seed-0 energy " + energy_text(rep.solved.energy) +
                " misses the reference " + energy_text(kC2Reference));
}

/// One closed batch of kC2JobsPerBatch jobs of the C2 job file.
ServeInputs c2_jobs(const xfci::chem::Molecule& mol, const RunOptions& o) {
  ServeInputs in;
  const std::size_t h = add_job_file(in, prepare(mol, kC2JobSpace),
                                     o.work_dir + "/c2-jobs.fcidump");
  for (std::size_t i = 0; i < kC2JobsPerBatch; ++i) add_job(in, h, false);
  return in;
}

void c2_untraced(const RunOptions& o, Report& r) {
  const auto mol = carbon_dimer(bond_scale(o.seed));
  const ServeInputs jobs = c2_jobs(mol, o);
  EndToEnd e;
  std::vector<Batch> batches;
  Rep last;
  double first = std::nan("");
  const double start = now_s();
  do {
    last = c2_rep(mol, nullptr);
    check_rep(last, o, first, r);
    if (std::isnan(first)) first = last.solved.energy;
    e.setup_s.push_back(last.setup_s);
    e.time_to_solution_s.push_back(last.wall);
    e.sustained_gflops.push_back(last.solved.flops / last.solved.seconds /
                                 1e9);
    batches.push_back(serve_batch(jobs.jobs, o.threads, nullptr, "bench.rep"));
  } while (now_s() - start < o.seconds);
  e.peak_rss_mb = peak_rss_mb();

  const std::vector<Reference> refs = {reference_solve(jobs, 0, nullptr)};
  check_reference(refs[0], jobs, 0, {}, r);
  for (const Batch& b : batches) {
    check_jobs(b, jobs, refs, r);
    add_batch(b, e);
  }
  sigma_probe(last.setup, o.threads, o.seed, 1, r);
  r.counter("dimension", static_cast<double>(last.setup->dimension()));
  r.counter("solver_iterations", static_cast<double>(last.solved.iterations));
  emit(e, r);
}

void c2_traced(const RunOptions& o, Report& r, SpanLog& log) {
  const auto mol = carbon_dimer(bond_scale(o.seed));
  Layers l;
  std::vector<double> untraced_wall, traced_wall, prepare_s, create_s,
      precond_s, share, gflops, self_s, unaccounted;
  std::vector<double> sigma_each;
  Rep last;
  double first = std::nan("");
  const double start = now_s();
  do {
    const Rep plain = c2_rep(mol, nullptr);
    check_rep(plain, o, first, r);
    if (std::isnan(first)) first = plain.solved.energy;
    untraced_wall.push_back(plain.wall);

    l.gemm = with_gemm_telemetry([&] { last = c2_rep(mol, &log); });
    check_rep(last, o, first, r);
    traced_wall.push_back(last.wall);
    prepare_s.push_back(total_seconds(log, "scf.prepare", last.root));
    create_s.push_back(total_seconds(log, "fci.setup_create", last.root));
    precond_s.push_back(total_seconds(log, "fci.precond_build", last.root));
    SolveLayer s;
    s.add(log, last.solved);
    share.push_back(s.sigma_s / s.solve_s);
    gflops.push_back(s.flops / s.sigma_s / 1e9);
    self_s.push_back(s.self_s);
    unaccounted.push_back(log.unaccounted_share(last.root));
    sigma_each.insert(sigma_each.end(), s.sigma_each.begin(),
                      s.sigma_each.end());
    l.sigma_calls = s.sigma_calls;
    l.solver_iterations = s.iterations;
  } while (now_s() - start < o.seconds);

  l.prepare_s = median(prepare_s);
  l.setup_create_s = median(create_s);
  l.precond_build_s = median(precond_s);
  l.setup_bytes = static_cast<double>(last.setup->memory_bytes());
  l.sigma_ms = median(sigma_each) * 1e3;
  l.sigma_share = median(share);
  l.sigma_gflops = median(gflops);
  l.solver_self_s = median(self_s);
  l.unaccounted_share = median(unaccounted);
  l.overhead_share = median(traced_wall) / median(untraced_wall) - 1.0;
  r.counter("fci_sigma_calls", l.sigma_calls);
  r.counter("solver_iterations", l.solver_iterations);
  r.counter("gemm_calls", l.gemm.calls);
  r.counter("gemm_flops", l.gemm.flops);
  r.counter("dimension", static_cast<double>(last.setup->dimension()));

  l.parallel = run_parallel(last.setup, o.threads);
  check_parallel(r, l.parallel, first);
  probe_layers(last.setup, o, l, r);

  // The serve layer: one batch of the C2 jobs.
  const ServeInputs jobs = c2_jobs(mol, o);
  const std::vector<Reference> refs = {reference_solve(jobs, 0, nullptr)};
  check_reference(refs[0], jobs, 0, {}, r);
  const Batch batch = serve_batch(jobs.jobs, o.threads, &log, "probe.serve");
  check_jobs(batch, jobs, refs, r);
  serve_layers({batch}, l);
  r.counter("cache_hits", l.cache_hits);
  r.counter("cache_misses", l.cache_misses);
  r.counter("job_dimension", static_cast<double>(batch.jobs[0].dimension));

  // The FCIDUMP reader on the job file.
  std::vector<double> parse;
  for (int i = 0; i < 3; ++i) {
    Scope root(&log, "probe.fcidump");
    Scope s(&log, "integrals.fcidump_parse");
    const auto data =
        xfci::integrals::read_fcidump(jobs.paths[0], jobs.groups[0]);
    parse.push_back(s.stop());
    r.check(data.tables.norb == kC2JobSpace.max_orbitals,
            "FCIDUMP round trip changed the orbital count");
  }
  l.parse_s = median(parse);
  emit(l, r);
}

// --- workload 2: a closed batch of FCIDUMP jobs through serve::Engine -------

constexpr std::size_t kHamiltonians = 8;
// Jobs per batch: 12 of each small Hamiltonian, 18 of the large one, so
// 102 jobs, about one in six large.  At one in eight, p90 of the service
// times would sit on the edge between the small and the large jobs, where
// it swings with the job order and the host's load.
constexpr std::size_t kSmallCopies = 12;
constexpr std::size_t kLargeCopies = 18;
constexpr std::size_t kStandalonePerBatch = 3;

SpaceSpec serve_space(std::size_t h) {
  // The last Hamiltonian keeps 12 orbitals (61,441 determinants); the
  // others 10 (11,148).
  return {"x-dz", 1, h + 1 == kHamiltonians ? 12u : 10u};
}

ServeInputs serve_inputs(const RunOptions& o, SpanLog* log) {
  std::vector<std::size_t> copies(kHamiltonians, kSmallCopies);
  copies.back() = kLargeCopies;
  const ServeMix mix = serve_mix(o.seed, copies);
  ServeInputs in;
  for (std::size_t h = 0; h < kHamiltonians; ++h) {
    Scope root(log, "bench.inputs");
    System sys;
    {
      Scope s(log, "scf.prepare");
      sys = prepare(water(mix.scales[h]), serve_space(h));
    }
    add_job_file(in, sys,
                 o.work_dir + "/serve-h" + std::to_string(h) + ".fcidump");
  }
  for (const ServeJob& job : mix.jobs)
    add_job(in, job.hamiltonian, job.interactive);
  return in;
}

void serve_counters(const Batch& b, Report& r) {
  double iterations = 0.0;
  for (const auto& j : b.jobs) iterations += static_cast<double>(j.iterations);
  r.counter("solver_iterations", iterations);
  r.counter("cache_hits", static_cast<double>(b.cache.hits));
  r.counter("cache_misses", static_cast<double>(b.cache.misses));
}

void serve_untraced(const RunOptions& o, Report& r) {
  const ServeInputs in = serve_inputs(o, nullptr);
  std::vector<Reference> refs;  // a standalone solve of each job file
  for (std::size_t h = 0; h < kHamiltonians; ++h) {
    refs.push_back(reference_solve(in, h, nullptr));
    check_reference(refs.back(), in, h, {}, r);
  }
  std::vector<Batch> batches;
  EndToEnd e;
  const double start = now_s();
  do {
    batches.push_back(serve_batch(in.jobs, o.threads, nullptr, "bench.rep"));
    // Standalone solves of the large job file after each batch give
    // setup_s and time_to_solution_s.  The small files' ~0.1 s solves
    // swing more with the host's load.
    const std::size_t large = kHamiltonians - 1;
    for (std::size_t i = 0; i < kStandalonePerBatch; ++i) {
      const Reference ref = reference_solve(in, large, nullptr);
      check_reference(ref, in, large, refs, r);
      e.setup_s.push_back(ref.setup_s);
      e.time_to_solution_s.push_back(ref.wall);
    }
  } while (now_s() - start < o.seconds);
  e.peak_rss_mb = peak_rss_mb();

  for (const Batch& b : batches) {
    check_jobs(b, in, refs, r);
    add_batch(b, e);
    e.sustained_gflops.push_back(batch_flops(b) / b.wall / 1e9);
  }
  sigma_probe(refs.back().setup, o.threads, o.seed, 1, r);
  serve_counters(batches.front(), r);
  emit(e, r);
}

void serve_traced(const RunOptions& o, Report& r, SpanLog& log) {
  Layers l;
  const ServeInputs in = serve_inputs(o, &log);
  std::vector<double> prepare_s;
  for (const Span& s : log.spans())
    if (s.name == "scf.prepare") prepare_s.push_back(s.seconds());
  l.prepare_s = median(prepare_s);

  std::vector<Batch> traced;
  std::vector<double> untraced_wall, traced_wall, unaccounted;
  const double start = now_s();
  do {
    untraced_wall.push_back(
        serve_batch(in.jobs, o.threads, nullptr, "bench.rep").wall);
    l.gemm = with_gemm_telemetry([&] {
      traced.push_back(serve_batch(in.jobs, o.threads, &log, "bench.rep"));
    });
    traced_wall.push_back(traced.back().wall);
    unaccounted.push_back(log.unaccounted_share(traced.back().root));
  } while (now_s() - start < o.seconds);

  // Untraced standalone solves are the reference; the traced ones must
  // repeat them bitwise and give the fci.* layer spans.
  std::vector<Reference> refs;
  for (std::size_t h = 0; h < kHamiltonians; ++h) {
    refs.push_back(reference_solve(in, h, nullptr));
    check_reference(refs.back(), in, h, {}, r);
  }
  for (const Batch& b : traced) check_jobs(b, in, refs, r);
  SolveLayer s;
  std::vector<double> parse, create, precond;
  for (std::size_t h = 0; h < kHamiltonians; ++h) {
    const Reference t = reference_solve(in, h, &log);
    r.check(same_bits(t.solved.energy, refs[h].solved.energy),
            "traced energy of h" + std::to_string(h) +
                " differs from the untraced one");
    const int root = log.root_of(t.solved.span);
    parse.push_back(total_seconds(log, "integrals.fcidump_parse", root));
    create.push_back(total_seconds(log, "fci.setup_create", root));
    precond.push_back(total_seconds(log, "fci.precond_build", root));
    s.add(log, t.solved);
    l.setup_bytes += static_cast<double>(t.setup->memory_bytes());
  }
  l.parse_s = median(parse);
  l.setup_create_s = median(create);
  l.precond_build_s = median(precond);
  l.sigma_calls = s.sigma_calls;
  l.sigma_ms = median(s.sigma_each) * 1e3;
  l.sigma_share = s.sigma_s / s.solve_s;
  l.sigma_gflops = s.flops / s.sigma_s / 1e9;
  l.solver_iterations = s.iterations;
  l.solver_self_s = s.self_s;
  l.unaccounted_share = median(unaccounted);
  l.overhead_share = median(traced_wall) / median(untraced_wall) - 1.0;
  serve_layers(traced, l);

  const SetupPtr& large = refs.back().setup;
  l.parallel = run_parallel(large, o.threads);
  check_parallel(r, l.parallel, refs.back().solved.energy);
  probe_layers(large, o, l, r);
  serve_counters(traced.front(), r);
  r.counter("fci_sigma_calls", l.sigma_calls);
  r.counter("gemm_calls", l.gemm.calls);
  r.counter("gemm_flops", l.gemm.flops);
  emit(l, r);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"c2-d2h-serial",
                                                 "serve-ci-mix"};
  return names;
}

void run_workload(const RunOptions& o, Report& r, SpanLog& log) {
  std::filesystem::create_directories(o.work_dir);
  if (o.workload == "c2-d2h-serial") {
    if (o.trace)
      c2_traced(o, r, log);
    else
      c2_untraced(o, r);
  } else if (o.workload == "serve-ci-mix") {
    if (o.trace)
      serve_traced(o, r, log);
    else
      serve_untraced(o, r);
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
}

}  // namespace perfbench
