#pragma once
// The sigma driver (paper section 3), layered exactly like the paper's
// FCI -> DDI -> SHMEM stack: ParallelSigma composes backend-agnostic phase
// engines (phase_engines.hpp) that speak only the pv::Ddi one-sided
// interface, and the ParallelOptions select which Ddi backend (simulated
// Cray-X1, shared-memory threads or forked processes) supplies transport,
// clocks and failure semantics.  It is the only orchestration of the sigma
// kernels: fci::make_sigma returns one on the threads backend with one
// rank and one thread, so serial solves and serve sessions run the same
// phases as the distributed driver.
//
// Data layout: the CI coefficient matrix is distributed by alpha columns,
// each symmetry block separately (Fig. 1).  One sigma evaluation runs the
// phases:
//
//   DGEMM algorithm (the paper's):
//    1. local transpose of the rank's block           ["Vector Symm."]
//    2. beta-side same-spin + one-electron, static,
//       zero communication (Fig. 2a)                  ["Beta-beta"]
//    3. transpose back                                ["Vector Symm."]
//    4. distributed transpose to the beta-column
//       layout (all-to-all)                           ["Vector Symm."]
//    5. alpha-side same-spin + one-electron, static   ["Beta-beta" bucket:
//       (the same routine on the other spin)           reported as
//                                                      alpha-side]
//    6. distributed transpose back                    ["Vector Symm."]
//    7. mixed-spin over alpha (N-1)-string tasks,
//       dynamic load balancing with task aggregation,
//       one-sided gather / accumulate (Fig. 2b)       ["Alpha-beta"]
//
//   MOC baseline: collective gather of the full vector, same-spin element
//   generation replicated on every rank (the historical non-scaling
//   practice the paper eliminates), mixed-spin with one remote column
//   gather per alpha single excitation (Table 1 costs).
//
// Every rank's arithmetic is executed for real; on the simulated backend
// the x1::CostModel charges simulated time.  Results are bit-identical for
// any rank count, thread count and backend.

#include <memory>

#include "fci/distribution.hpp"
#include "fci/parallel_options.hpp"
#include "fci/phase_engines.hpp"
#include "fci/sigma.hpp"
#include "parallel/ddi.hpp"

namespace xfci::fcp {

/// SigmaOperator whose apply() runs the phase engines through the pv::Ddi
/// backend.  Bitwise contract: for a given algorithm and Ms = 0 choice the
/// sigma is bit-for-bit identical for every rank count, thread count and
/// backend, so fci::make_sigma (one rank, one thread) equals every
/// distributed run.  stats() counts the work of the kernels (folded in
/// rank order after each static phase and in item order at the mixed-spin
/// commit), so it too is independent of the thread count.
class ParallelSigma : public fci::SigmaOperator {
 public:
  ParallelSigma(const fci::SigmaContext& context,
                const ParallelOptions& options);

  void apply(std::span<const double> c, std::span<double> sigma) override;
  const fci::CiSpace& space() const override { return ctx_.space(); }

  /// The communication/runtime backend (clocks, counters, liveness).
  pv::Ddi& ddi() { return *ddi_; }
  const pv::Ddi& ddi() const { return *ddi_; }

  const ColumnDistribution& distribution() const { return dist_; }
  const PhaseBreakdown& breakdown() const { return breakdown_; }
  void reset_breakdown() { breakdown_ = PhaseBreakdown{}; }
  /// The options the operator was built with (RunMetrics::capture reports
  /// the algorithm and cost model from here).
  const ParallelOptions& options() const { return options_; }

  /// Number of apply() calls that took the Ms = 0 transpose shortcut
  /// (ParallelOptions::ms0_transpose on a vector of definite parity).
  std::size_t ms0_hits() const { return ms0_hits_; }

 private:
  void apply_dgemm(std::span<const double> c, std::span<double> sigma);
  void apply_moc(std::span<const double> c, std::span<double> sigma);
  /// Charges the solver's per-iteration distributed vector work (no-op on
  /// backends that execute the solver for real).
  void charge_solver_vector_ops();
  PhaseState phase_state();

  const fci::SigmaContext& ctx_;
  ParallelOptions options_;
  std::unique_ptr<pv::Ddi> ddi_;
  ColumnDistribution dist_;
  std::vector<std::uint8_t> dist_alive_;  // mask dist_ was built with
  PhaseBreakdown breakdown_;
  std::size_t ms0_hits_ = 0;
  RecoveryEngine recovery_;
  SameSpinEngine same_spin_;
  MixedSpinEngine mixed_;
};

}  // namespace xfci::fcp
