#include "fci_parallel/parallel_fci.hpp"

#include <algorithm>

namespace xfci::fcp {

ParallelFciResult run_parallel_fci(const integrals::IntegralTables& ints,
                                   std::size_t nalpha, std::size_t nbeta,
                                   std::size_t target_irrep,
                                   const ParallelOptions& options,
                                   const fci::SolverOptions& solver) {
  XFCI_REQUIRE(options.algorithm != fci::Algorithm::kDense,
               "parallel driver supports dgemm and moc algorithms");
  const auto setup = fci::SolveSetup::create(
      ints, nalpha, nbeta, target_irrep,
      fci::SetupOptions{options.algorithm, options.ms0_transpose});
  return run_parallel_fci(setup, options, solver);
}

ParallelFciResult run_parallel_fci(
    std::shared_ptr<const fci::SolveSetup> setup,
    const ParallelOptions& options, const fci::SolverOptions& solver) {
  XFCI_REQUIRE(setup != nullptr, "run_parallel_fci needs a setup");
  XFCI_REQUIRE(options.algorithm != fci::Algorithm::kDense,
               "parallel driver supports dgemm and moc algorithms");
  XFCI_REQUIRE(setup->algorithm() == options.algorithm,
               "setup was built for a different sigma algorithm");
  XFCI_REQUIRE(setup->ms0_transpose() == options.ms0_transpose,
               "setup was built with a different Ms = 0 transpose choice");
  const fci::CiSpace& space = setup->space();
  ParallelSigma op(setup->context(), options);

  ParallelFciResult res;
  res.dimension = space.dimension();
  fci::SolverOptions sopt = solver;
  if (options.ms0_transpose && space.nalpha() == space.nbeta() &&
      !sopt.purify)
    sopt.purify = fci::make_parity_purifier(space);
  // The solver shares the backend's trace sink and clock domain, so its
  // per-iteration spans interleave correctly with the sigma phase spans.
  if (sopt.tracer == nullptr) sopt.tracer = op.ddi().tracer();
  const auto precond = setup->preconditioner(sopt.model_space);
  res.solve = fci::solve_lowest(op, setup->ints(), sopt, precond.get());
  res.per_sigma = op.breakdown().averaged();
  // Cost-modeling backends report simulated makespan; real backends report
  // the wall time spent inside the sigmas.  Either way the sustained rate
  // divides the recorded flops over the execution width.
  res.total_seconds =
      op.ddi().models_cost() ? op.ddi().elapsed() : op.breakdown().total;
  res.gflops_per_rank = op.ddi().total_flops() /
                        static_cast<double>(op.ddi().num_workers()) /
                        std::max(res.total_seconds, 1e-30) / 1e9;
  res.comm_words_per_sigma = op.breakdown().averaged().comm_words;
  res.metrics = RunMetrics::capture(op);
  res.metrics.add_solve(res.solve);
  return res;
}

}  // namespace xfci::fcp
