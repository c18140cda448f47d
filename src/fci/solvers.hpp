#pragma once
// Iterative eigensolvers for the lowest FCI state (paper sections 2.2, 4 /
// Table 2):
//
//  * kDavidson     - subspace (Davidson) method; the Olsen correction vector
//                    enters the subspace, Rayleigh-Ritz picks the mixture.
//  * kOlsen        - original Olsen single-vector update C <- C + t.
//  * kModifiedOlsen- fixed step length, C <- C + lambda t (default 0.7).
//  * kAutoAdjusted - the paper's method: lambda(n+1) = lambda_opt(n),
//                    recovered from the previous iteration's 2x2 subspace
//                    via <t|H|t> = (E(n+1)/S^2 - E(n) - 2 lambda <C|H|t>) /
//                    lambda^2 (Eqs. 13-15).
//
// All methods share the Olsen correction vector
//   t = (H0 - E)^-1 (H - E - eps) C,
// where H0 equals the exact Hamiltonian inside a small model space (the
// lowest-diagonal determinants) and diag(H) outside, and eps enforces
// <C|t> = 0 (Eq. 12).

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "fci/sigma.hpp"
#include "fci/slater_condon.hpp"
#include "linalg/eigen.hpp"

namespace xfci::fci {

enum class Method {
  kDavidson,       ///< full Davidson subspace (library extra)
  kSubspace2,      ///< the paper's "subspace" method: 2x2 {C, t} with the
                   ///< exact optimal step each iteration (stores H t --
                   ///< twice the memory of the auto-adjusted method)
  kOlsen,
  kModifiedOlsen,
  kAutoAdjusted,
};

std::string method_name(Method m);

struct SolverOptions {
  Method method = Method::kAutoAdjusted;
  double energy_tolerance = 1e-10;    ///< |dE| between iterations
  double residual_tolerance = 1e-6;   ///< ||sigma - E C||
  std::size_t max_iterations = 120;
  std::size_t model_space = 50;       ///< exact-H preconditioner block size
  std::size_t max_subspace = 20;      ///< Davidson subspace limit
  std::size_t num_roots = 1;          ///< kDavidson only: lowest eigenpairs
  double fixed_lambda = 0.7;          ///< step for kModifiedOlsen
  bool verbose = false;
  /// Optional per-iteration purifier applied to new trial vectors (e.g.
  /// the transpose-parity projection backing the Ms = 0 "Vector Symm."
  /// shortcut).  Must commute with H on the states of interest.
  std::function<void(std::vector<double>&)> purify;
  /// Optional warm start: normalized and used instead of the model-space
  /// guess (every method).  Must have the CI dimension when non-empty.
  std::vector<double> initial_vector;
  /// When non-empty, the solver writes its iteration state here every
  /// `checkpoint_interval` iterations (atomic write-then-rename; see
  /// checkpoint.hpp).  Supported by the single-vector methods and
  /// kSubspace2.
  std::string checkpoint_path;
  std::size_t checkpoint_interval = 1;
  /// When non-empty, the solver resumes from this checkpoint.  For the
  /// single-vector methods the restored run continues the uninterrupted
  /// run's convergence trajectory bitwise (the checkpoint must have been
  /// written by the same method); the subspace methods use the checkpoint
  /// vector as a warm start.
  std::string restart_path;
  /// Span sink for per-iteration solver spans (E(n), lambda, |r| args)
  /// and checkpoint save/load spans, on the control track in the
  /// backend's clock domain.  run_parallel_fci shares the Ddi backend's
  /// tracer automatically; nullptr records nothing.
  obs::Tracer* tracer = nullptr;
  /// Cooperative cancellation: polled at every iteration boundary.  When
  /// it returns true the solver stops, marks the result cancelled, and
  /// returns the best state reached so far (SolveSession::request_cancel
  /// wires this to its cancel flag).  Empty = never cancelled, and the
  /// solver behaves exactly as before the hook existed.
  std::function<bool()> should_stop;
};

struct SolverResult {
  bool converged = false;
  /// True when should_stop() ended the run early; `vector`/`energy` hold
  /// the last completed iteration's state and `converged` is false.
  bool cancelled = false;
  std::size_t iterations = 0;         ///< sigma applications
  double energy = 0.0;                ///< lowest root (electronic + core)
  std::vector<double> vector;         ///< normalized lowest CI vector
  std::vector<double> energy_history; ///< lowest-root energy per iteration
  std::vector<double> residual_history;
  /// All requested roots (size num_roots when kDavidson computed several;
  /// size 1 otherwise).
  std::vector<double> energies;
  std::vector<std::vector<double>> vectors;
};

/// <sigma|t> and <t|t> of a correction vector t, produced by the same
/// passes that write t.
struct OlsenStep {
  double b = 0.0;   ///< <sigma|t> = <C|H|t>
  double tt = 0.0;  ///< <t|t>
};

/// The Olsen preconditioner with an exact model-space block.
///
/// H0 is the exact Hamiltonian H_mm over the model space (the lowest
/// diagonals, closed under the alpha/beta transpose when nalpha == nbeta)
/// and diag(H) outside it.  The build factors H_mm = V diag(w) V^T once,
/// so (H0 - e)^-1 costs O(dim + m^2) at any shift e: a regularized
/// diagonal division outside the model space and V (w - e)^+ V^T inside
/// it, where the pseudo-inverse drops |w_j - e| < 1e-10 (e may equal a
/// model-space eigenvalue).  The guesses are columns of the stored V.
class ModelSpacePreconditioner {
 public:
  /// Picks the `size` lowest-diagonal determinants as the model space,
  /// builds the exact Hamiltonian over them and factors it.
  ModelSpacePreconditioner(const CiSpace& space,
                           const integrals::IntegralTables& ints,
                           std::size_t size);

  const std::vector<double>& diagonal() const { return diag_; }
  /// Flat indices of the model determinants, ascending.
  const std::vector<std::size_t>& model() const { return model_; }
  /// The model-space Hamiltonian's factor: H_mm = V diag(w) V^T over the
  /// rows of model(), eigenvalues ascending.
  const linalg::EigenResult& model_factor() const { return factor_; }

  /// y = (H0 - e)^-1 x:  exact solve inside the model space, diagonal
  /// division outside.  Near-zero denominators are regularized.
  void apply_inverse(double e, std::span<const double> x,
                     std::span<double> y) const;

  /// The Olsen correction vector (Eqs. 11-12) of the normalized vector c
  /// with sigma = H c and e = <c|sigma>, written into t:
  ///   t = -(H0 - e)^-1 (r - eps c),  r = sigma - e c,
  ///   eps = <c|(H0 - e)^-1 r> / <c|(H0 - e)^-1 c>,
  /// with the round-off overlap <c|t> removed.  r, (H0 - e)^-1 r and
  /// (H0 - e)^-1 c are never stored: three passes over c, sigma and t
  /// form them on the fly.
  OlsenStep correction(double e, std::span<const double> c,
                       std::span<const double> sigma,
                       std::span<double> t) const;

  /// Ground eigenvector of the model-space Hamiltonian scattered into a
  /// full CI vector: the solver's initial guess.
  std::vector<double> initial_guess(std::size_t dimension) const;

  /// The `count` lowest model-space eigenvectors (orthonormal), scattered
  /// into full CI vectors: block-Davidson starting guesses.
  std::vector<std::vector<double>> initial_guesses(std::size_t dimension,
                                                   std::size_t count) const;

 private:
  /// y_m = V (w - e)^+ V^T x_m over the model rows (both of size m).
  void model_solve(double e, const double* xm, double* ym) const;

  std::vector<double> diag_;
  std::vector<std::size_t> model_;   // flat indices of model determinants
  linalg::EigenResult factor_;       // H_mm = V diag(w) V^T
};

/// Solves for the lowest eigenpair of the sigma operator.  `precond`, when
/// non-null, supplies a prebuilt model-space preconditioner whose block
/// size must match options.model_space (SolveSetup memoizes one per size
/// so sessions sharing a setup skip the rebuild); null builds a fresh one,
/// which is bitwise-identical.
SolverResult solve_lowest(SigmaOperator& sigma,
                          const integrals::IntegralTables& ints,
                          const SolverOptions& options = {},
                          const ModelSpacePreconditioner* precond = nullptr);

}  // namespace xfci::fci
