#pragma once
// The distributed FCI solve (paper section 3): run_parallel_fci drives the
// single-vector solver over a ParallelSigma (fci/parallel_sigma.hpp, the
// phase engines on a pv::Ddi backend) and reports the per-phase breakdown,
// the sustained rate and the RunMetrics snapshot of the run.

#include <memory>

#include "fci/fci.hpp"
#include "fci/parallel_sigma.hpp"
#include "fci/solvers.hpp"
#include "fci_parallel/run_report.hpp"

namespace xfci::fcp {

/// Result of a full parallel FCI run.
struct ParallelFciResult {
  fci::SolverResult solve;
  std::size_t dimension = 0;
  PhaseBreakdown per_sigma;       ///< averaged per sigma application
  /// Simulated makespan of the whole solve on a cost-modeling backend;
  /// on the threads and process backends, the wall time spent inside the
  /// sigmas (PhaseBreakdown::total), not the solve's wall time.
  double total_seconds = 0.0;
  double gflops_per_rank = 0.0;   ///< sustained per-MSP rate
  double comm_words_per_sigma = 0.0;
  /// Machine-readable snapshot of the run (the --metrics payload); the
  /// driver sets .run and calls .write(path).
  RunMetrics metrics;
};

/// Runs the full distributed FCI solve on `num_ranks` simulated MSPs.
ParallelFciResult run_parallel_fci(const integrals::IntegralTables& ints,
                                   std::size_t nalpha, std::size_t nbeta,
                                   std::size_t target_irrep,
                                   const ParallelOptions& options,
                                   const fci::SolverOptions& solver = {});

/// Same solve over a pre-built (possibly cache-shared) SolveSetup.  The
/// setup must have been created for the same algorithm / Ms = 0 choice the
/// ParallelOptions select, so a serve-layer cache key that includes both
/// always hands back a compatible setup.  Results are bitwise-identical to
/// the table-based overload above.
ParallelFciResult run_parallel_fci(
    std::shared_ptr<const fci::SolveSetup> setup,
    const ParallelOptions& options, const fci::SolverOptions& solver = {});

}  // namespace xfci::fcp
