#include "fci/solve_setup.hpp"

#include "fci/fci.hpp"

namespace xfci::fci {

std::string algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kDgemm: return "dgemm";
    case Algorithm::kMoc: return "moc";
    case Algorithm::kDense: return "dense";
  }
  return "?";
}

std::shared_ptr<const SolveSetup> SolveSetup::create(
    integrals::IntegralTables ints, std::size_t nalpha, std::size_t nbeta,
    std::size_t target_irrep, const SetupOptions& options) {
  // make_shared needs a public constructor; new + shared_ptr keeps the
  // constructor private so every SolveSetup is heap-pinned from birth.
  return std::shared_ptr<const SolveSetup>(new SolveSetup(
      std::move(ints), nalpha, nbeta, target_irrep, options));
}

SolveSetup::SolveSetup(integrals::IntegralTables ints, std::size_t nalpha,
                       std::size_t nbeta, std::size_t target_irrep,
                       const SetupOptions& options)
    : ints_(std::move(ints)),
      space_(ints_.norb, nalpha, nbeta, ints_.group, ints_.orbital_irreps,
             target_irrep),
      context_(space_, ints_),
      options_(options),
      target_irrep_(target_irrep) {}

std::unique_ptr<SigmaOperator> SolveSetup::make_sigma() const {
  return fci::make_sigma(options_.algorithm, context_,
                         options_.ms0_transpose);
}

std::shared_ptr<const ModelSpacePreconditioner> SolveSetup::preconditioner(
    std::size_t model_space) const {
  sync::MutexLock lock(mu_);
  auto& slot = preconds_[model_space];
  if (!slot)
    slot = std::make_shared<const ModelSpacePreconditioner>(space_, ints_,
                                                            model_space);
  return slot;
}

std::size_t SolveSetup::memory_bytes() const {
  const std::size_t w = sizeof(double);
  std::size_t bytes = ints_.h.size() * w + ints_.eri.packed_size() * w;
  // Both orientations of the space and of the context, each distinct
  // table counted once.
  bytes += space_.bytes() + context_.bytes();
  // CI-dimension state held per setup: the preconditioner diagonal.
  bytes += space_.dimension() * w;
  return bytes;
}

}  // namespace xfci::fci
