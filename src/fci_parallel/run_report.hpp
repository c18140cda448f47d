#pragma once
// Flat machine-readable run report — the --metrics sink.
//
// Where the Chrome trace (common/trace.hpp) answers "what happened when",
// the run report answers "what did the run cost": the Table-3 phase rows,
// per-rank communication counters, recovery event totals, flops, and the
// solver's convergence history, serialized as one deterministic JSON
// document (schema "xfci-metrics-v1") so benchmark trajectories and CI
// artifacts are diffable.

#include <cstddef>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "fci/solvers.hpp"
#include "fci/parallel_options.hpp"
#include "parallel/ddi.hpp"

namespace xfci::obs {
class JsonWriter;
}

namespace xfci::fcp {

class ParallelSigma;

/// Everything a finished (or mid-flight) run measured, capturable from
/// any ParallelSigma regardless of backend.
struct RunMetrics {
  std::string run;        ///< driver-set label ("c2_on_simulated_x1", ...)
  std::string backend;    ///< "sim" | "threads" | "process" | "serve"
  std::string algorithm;  ///< "dgemm" | "moc"
  std::size_t num_ranks = 0;
  std::size_t num_workers = 0;
  std::size_t dimension = 0;
  bool models_cost = false;  ///< simulated clocks (sim) vs wall time
  double total_seconds = 0.0;
  double total_flops = 0.0;
  PhaseBreakdown per_sigma;  ///< averaged phase rows (Table 3)
  PhaseBreakdown totals;     ///< cumulative over the run
  std::vector<pv::CommCounters> rank_counters;
  std::vector<double> rank_flops;
  x1::CostModel cost;  ///< the calibrated charges (meaningful when
                       ///< models_cost)
  /// Environment variables the process consulted (env::reads() at capture
  /// time) — env-dependent behaviour must be visible in run reports.
  std::vector<env::Read> env_reads;

  bool have_solver = false;
  bool converged = false;
  std::size_t iterations = 0;
  double energy = 0.0;
  std::vector<double> energy_history;
  std::vector<double> residual_history;

  /// Snapshots the Ddi-side fields (counters, breakdown, flops, clocks).
  static RunMetrics capture(const ParallelSigma& op);

  /// Folds a finished solve into the report.
  void add_solve(const fci::SolverResult& s);

  /// Writes every field of the document into an open JSON object, so a
  /// producer with extra sections (serve::Engine) appends them after.
  void write_fields(obs::JsonWriter& w) const;
  /// The full "xfci-metrics-v1" document.
  std::string to_json() const;
  void write(const std::string& path) const;
};

}  // namespace xfci::fcp
