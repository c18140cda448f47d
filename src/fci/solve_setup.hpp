#pragma once
// Setup layer of the solve pipeline (DESIGN.md §15).
//
// A SolveSetup is everything about an FCI problem that is immutable during
// a solve: the integral tables, the symmetry-blocked CI space, the
// precomputed SigmaContext (string spaces, creation tables, DGEMM integral
// matrices; built for the DGEMM and MOC sigmas only) and the memoized
// model-space preconditioners.  Construction is the expensive part of a
// small solve — a SolveSetup is built once and then *shared*: any number
// of SolveSessions (solve_session.hpp) borrow it concurrently through
// shared_ptr<const SolveSetup>, which is what the serve::Engine's setup
// cache hands out.
//
// Thread safety: the space and the context build both of their
// orientations in their constructors, so concurrent sessions only ever
// read them.  The one mutable member, the preconditioner memo, is guarded
// by its own mutex.

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/annotations.hpp"
#include "common/sync.hpp"
#include "fci/ci_space.hpp"
#include "fci/sigma.hpp"
#include "fci/solvers.hpp"
#include "integrals/tables.hpp"

namespace xfci::fci {

enum class Algorithm {
  kDgemm,  ///< the paper's DGEMM-based sigma
  kMoc,    ///< minimum-operation-count baseline
  kDense,  ///< explicit Hamiltonian (tiny spaces; validation)
};

std::string algorithm_name(Algorithm a);

/// The immutable per-problem choices baked into a SolveSetup (they select
/// which sigma operator make_sigma() builds, so they are part of the
/// serve-layer cache key).
struct SetupOptions {
  Algorithm algorithm = Algorithm::kDgemm;
  /// Exploit the Ms = 0 transpose symmetry (paper's "Vector Symm."
  /// optimization): valid for nalpha == nbeta, DGEMM algorithm only.
  bool ms0_transpose = false;
};

/// Immutable, shareable solve setup.  Non-copyable and non-movable: the
/// SigmaContext holds references into the owned tables and space, so the
/// object must stay at one address for its whole life — hence the
/// shared_ptr-only factory.
class SolveSetup {
 public:
  /// Builds the full setup (CI space and, unless the algorithm is kDense,
  /// sigma context, both with their transposes).  The integral tables are
  /// taken by value and owned.
  static std::shared_ptr<const SolveSetup> create(
      integrals::IntegralTables ints, std::size_t nalpha, std::size_t nbeta,
      std::size_t target_irrep = 0, const SetupOptions& options = {});

  SolveSetup(const SolveSetup&) = delete;
  SolveSetup& operator=(const SolveSetup&) = delete;

  const integrals::IntegralTables& ints() const { return ints_; }
  const CiSpace& space() const { return space_; }
  /// The sigma context of a kDgemm or kMoc setup; a kDense setup builds
  /// none, and asking for it throws.
  const SigmaContext& context() const;
  const SetupOptions& options() const { return options_; }
  Algorithm algorithm() const { return options_.algorithm; }
  bool ms0_transpose() const { return options_.ms0_transpose; }
  std::size_t nalpha() const { return space_.nalpha(); }
  std::size_t nbeta() const { return space_.nbeta(); }
  std::size_t target_irrep() const { return target_irrep_; }
  std::size_t dimension() const { return space_.dimension(); }

  /// A fresh sigma operator for one session.  The operator borrows this
  /// setup (which must outlive it) but owns its work buffers and stats, so
  /// operators from the same setup may run concurrently.
  std::unique_ptr<SigmaOperator> make_sigma() const;

  /// The model-space preconditioner for the given block size, built on
  /// first request and memoized (sessions sharing a setup share the
  /// preconditioner).  Thread-safe.
  std::shared_ptr<const ModelSpacePreconditioner> preconditioner(
      std::size_t model_space) const;

  /// Resident-memory estimate used by the serve layer's cache eviction
  /// accounting: the integral tables, CiSpace::bytes(), SigmaContext::bytes()
  /// when a context was built (both orientations, each distinct table
  /// once) and one word per determinant.
  std::size_t memory_bytes() const;

 private:
  SolveSetup(integrals::IntegralTables ints, std::size_t nalpha,
             std::size_t nbeta, std::size_t target_irrep,
             const SetupOptions& options);

  integrals::IntegralTables ints_;  // owned; context_ references it
  CiSpace space_;                   // owned; context_ references it
  std::optional<SigmaContext> context_;  // absent for kDense
  SetupOptions options_;
  std::size_t target_irrep_ = 0;

  mutable sync::Mutex mu_;
  mutable std::map<std::size_t, std::shared_ptr<const ModelSpacePreconditioner>>
      preconds_ XFCI_GUARDED_BY(mu_);
};

}  // namespace xfci::fci
