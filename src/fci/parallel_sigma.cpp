#include "fci/parallel_sigma.hpp"

#include <algorithm>

namespace xfci::fcp {
namespace {

/// Ddi-layer event counters summed over ranks (the totals PhaseBreakdown
/// reports as deltas per sigma batch).
struct CommEventTotals {
  std::size_t dlb_calls = 0;
  std::size_t ops_dropped = 0;
  std::size_t ops_delayed = 0;
};

CommEventTotals comm_event_totals(const pv::Ddi& ddi) {
  CommEventTotals t;
  for (std::size_t r = 0; r < ddi.num_ranks(); ++r) {
    const pv::CommCounters& cc = ddi.counters(r);
    t.dlb_calls += cc.dlb_calls;
    t.ops_dropped += cc.ops_dropped;
    t.ops_delayed += cc.ops_delayed;
  }
  return t;
}

/// Builds the backend the options select.  A future real-transport backend
/// (MPI / native SHMEM) adds one more case here; nothing else changes.
std::unique_ptr<pv::Ddi> make_backend(const ParallelOptions& options) {
  if (options.execution == ExecutionMode::kThreads)
    return pv::make_threads_ddi(options.num_ranks, options.num_threads,
                                options.faults);
  if (options.execution == ExecutionMode::kProcess)
    return pv::make_process_ddi(options.num_ranks, options.faults,
                                options.process);
  return pv::make_simulated_ddi(options.num_ranks, options.cost,
                                options.faults);
}

}  // namespace

PhaseBreakdown PhaseBreakdown::averaged() const {
  PhaseBreakdown a = *this;
  if (count == 0) return a;
  const double n = static_cast<double>(count);
  a.beta_side /= n;
  a.alpha_side /= n;
  a.mixed /= n;
  a.transpose /= n;
  a.vector_ops /= n;
  a.load_imbalance /= n;
  a.recovery /= n;
  a.total /= n;
  a.comm_words /= n;
  a.mixed_comm_words /= n;
  a.flops /= n;
  a.count = 1;
  return a;
}

PhaseState ParallelSigma::phase_state() {
  return PhaseState{ctx_,        options_,   *ddi_, dist_,
                    dist_alive_, breakdown_, stats_};
}

ParallelSigma::ParallelSigma(const fci::SigmaContext& context,
                             const ParallelOptions& options)
    : ctx_(context),
      options_(options),
      ddi_(make_backend(options)),
      dist_(context.space(), options.num_ranks),
      dist_alive_(options.num_ranks, 1),
      recovery_(phase_state()),
      same_spin_(phase_state()),
      mixed_(phase_state(), recovery_) {
  // The backend sizes and labels the tracer's tracks and installs its own
  // clock domain; from here on every layer emits through ddi().tracer().
  if (options_.tracer != nullptr) ddi_->set_tracer(options_.tracer);
}

void ParallelSigma::charge_solver_vector_ops() {
  if (!ddi_->models_cost()) return;  // real backends run the solver for real
  // Per iteration the single-vector solvers touch the distributed vectors a
  // handful of times: ~5 dot products, ~4 axpy/scale passes, and one
  // preconditioner application (indexed divide), plus reductions.
  const double t0 = ddi_->barrier();
  const std::size_t nranks = ddi_->num_ranks();
  for (std::size_t r = 0; r < nranks; ++r) {
    const double local = static_cast<double>(dist_.local_words(r));
    ddi_->charge_daxpy_flops(r, 18.0 * local);
    ddi_->charge_indexed(r, 2.0 * local);
  }
  const double t1 = ddi_->barrier();
  breakdown_.vector_ops += t1 - t0;
  obs::Tracer* tr = ddi_->tracer();
  if (tr != nullptr && tr->enabled())
    tr->span(tr->control_track(), "phase", "vector_ops", t0, t1);
}

void ParallelSigma::apply_dgemm(std::span<const double> c,
                                std::span<double> sigma) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = ctx_.space();
  const int parity =
      options_.ms0_transpose ? fci::transpose_parity(space, c) : 0;

  // Parity purification: project out the (noise-level) odd component so
  // the transpose shortcut below is exact on what remains.
  std::vector<double> cproj;
  if (parity != 0) {
    std::vector<double> pc;
    space.transpose_vector(c, pc);
    cproj.resize(c.size());
    const double eps = static_cast<double>(parity);
    for (std::size_t i = 0; i < c.size(); ++i)
      cproj[i] = 0.5 * (c[i] + eps * pc[i]);
    c = cproj;
  }

  if (parity == 0) {
    same_spin_.beta_side(ctx_.transposed(), c, sigma, /*moc_kernel=*/false);
    if (space.nalpha() >= 1) same_spin_.alpha_side(c, sigma, false);
  } else {
    // "Vector Symm." shortcut (paper Table 3): run the beta-side routine
    // into a scratch vector z, then sigma += z + parity * P z -- one
    // distributed transpose replaces the whole alpha-side phase.
    std::vector<double> z(sigma.size(), 0.0);
    same_spin_.beta_side(ctx_.transposed(), c, z, /*moc_kernel=*/false);
    same_spin_.parity_fold(sigma, z, parity);
    ++ms0_hits_;
  }
  mixed_.dgemm(c, sigma);
}

void ParallelSigma::apply_moc(std::span<const double> c,
                              std::span<double> sigma) {
  XFCI_DCHECK(c.size() == ctx_.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  same_spin_.beta_side(ctx_.transposed(), c, sigma, /*moc_kernel=*/true);
  if (ctx_.space().nalpha() >= 1) same_spin_.alpha_side(c, sigma, true);
  mixed_.moc(c, sigma);
}

void ParallelSigma::apply(std::span<const double> c,
                          std::span<double> sigma) {
  const fci::CiSpace& space = ctx_.space();
  XFCI_REQUIRE(c.size() == space.dimension(), "parallel sigma size mismatch");
  XFCI_REQUIRE(sigma.size() == c.size(), "parallel sigma size mismatch");
  std::fill(sigma.begin(), sigma.end(), 0.0);

  const double start = ddi_->elapsed();
  const double comm0 = ddi_->comm_words();
  const double flop0 = ddi_->total_flops();
  const CommEventTotals ev0 = comm_event_totals(*ddi_);

  // Absorb any deaths declared at earlier barriers before handing out
  // column ownership for this sigma (no-op while every rank is alive).
  recovery_.maybe_redistribute();
  if (options_.algorithm == fci::Algorithm::kMoc)
    apply_moc(c, sigma);
  else
    apply_dgemm(c, sigma);
  charge_solver_vector_ops();

  breakdown_.total += ddi_->elapsed() - start;
  breakdown_.comm_words += ddi_->comm_words() - comm0;
  breakdown_.flops += ddi_->total_flops() - flop0;
  breakdown_.count += 1;
  const CommEventTotals ev1 = comm_event_totals(*ddi_);
  breakdown_.dlb_calls += ev1.dlb_calls - ev0.dlb_calls;
  breakdown_.ops_dropped += ev1.ops_dropped - ev0.ops_dropped;
  breakdown_.ops_delayed += ev1.ops_delayed - ev0.ops_delayed;

  obs::Tracer* tr = ddi_->tracer();
  if (tr != nullptr && tr->enabled())
    tr->span(tr->control_track(), "sigma", "sigma", start, ddi_->elapsed(),
             obs::trace_args(
                 {{"n", static_cast<double>(breakdown_.count)},
                  {"comm_words", ddi_->comm_words() - comm0},
                  {"flops", ddi_->total_flops() - flop0}}));
}

}  // namespace xfci::fcp
