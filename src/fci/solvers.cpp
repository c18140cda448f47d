#include "fci/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "common/metric_names.hpp"
#include "common/telemetry.hpp"
#include "fci/checkpoint.hpp"
#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"

namespace xfci::fci {
namespace {

// Model-space eigenvalues within this distance of the shift are dropped
// from (H_mm - e)^+.
constexpr double kPinvCutoff = 1e-10;

// diag - e outside the model space, pushed away from zero to +-1e-6.
double shifted_diagonal(double diag, double e) {
  const double d = diag - e;
  if (std::abs(d) < 1e-6) return d >= 0 ? 1e-6 : -1e-6;
  return d;
}

// Visits every index i < dim in ascending order: outside(i) when i is not
// in the ascending list `model`, inside(k) when i == model[k].  Sums
// accumulated in the visits keep the plain index order of a dot product.
template <typename Outside, typename Inside>
void for_each_index(const std::vector<std::size_t>& model, std::size_t dim,
                    Outside&& outside, Inside&& inside) {
  std::size_t begin = 0;
  for (std::size_t k = 0; k <= model.size(); ++k) {
    const std::size_t end = k < model.size() ? model[k] : dim;
    for (std::size_t i = begin; i < end; ++i) outside(i);
    if (k < model.size()) inside(k);
    begin = end + 1;
  }
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return linalg::dot(std::span<const double>(a), std::span<const double>(b));
}

void normalize(std::vector<double>& v) {
  const double n = std::sqrt(dot(v, v));
  XFCI_REQUIRE(n > 0.0, "cannot normalize zero vector");
  for (auto& x : v) x /= n;
}

// Live telemetry shared by every diagonalization method: an iteration
// counter and a last-residual gauge.  Registration is lazy and only
// reached when telemetry is enabled, so untelemetered solves stay
// bitwise identical (the registry only observes values, never charges).
void note_iteration() {
  obs::Registry& reg = obs::telemetry();
  if (!reg.enabled()) return;
  static obs::Counter iterations =
      reg.counter(obs::metric::kSolverIterations);
  iterations.inc();
}

void note_residual(double rnorm) {
  obs::Registry& reg = obs::telemetry();
  if (!reg.enabled()) return;
  static obs::Gauge residual = reg.gauge(obs::metric::kSolverResidualNorm);
  residual.set(rnorm);
}

}  // namespace

std::string method_name(Method m) {
  switch (m) {
    case Method::kDavidson: return "davidson";
    case Method::kSubspace2: return "subspace-2x2";
    case Method::kOlsen: return "olsen";
    case Method::kModifiedOlsen: return "modified-olsen";
    case Method::kAutoAdjusted: return "auto-adjusted";
  }
  return "?";
}

ModelSpacePreconditioner::ModelSpacePreconditioner(
    const CiSpace& space, const integrals::IntegralTables& ints,
    std::size_t size) {
  diag_ = hamiltonian_diagonal(space, ints);
  const std::size_t dim = diag_.size();
  const std::size_t m = std::min(size, dim);

  std::vector<std::size_t> order(dim);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::partial_sort(order.begin(), order.begin() + m, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return diag_[a] < diag_[b];
                    });
  model_.assign(order.begin(), order.begin() + m);

  // Close the model set under the alpha/beta transpose when it exists:
  // keeps H0 symmetric under P so Ms = 0 parity sectors are preserved by
  // the preconditioner (required for the "Vector Symm." shortcut).
  if (space.nalpha() == space.nbeta()) {
    std::vector<bool> in(dim, false);
    for (auto i : model_) in[i] = true;
    const std::size_t initial = model_.size();
    for (std::size_t k = 0; k < initial; ++k) {
      const Determinant d = determinant_at(space, model_[k]);
      const std::size_t ha = space.alpha().irrep_of(d.beta);
      const CiBlock* blk = space.block_for_alpha(ha);
      XFCI_ASSERT(blk != nullptr, "transpose partner left the space");
      const std::size_t partner =
          blk->offset + space.alpha().address(d.beta) * blk->nb +
          space.beta().address(d.alpha);
      if (!in[partner]) {
        in[partner] = true;
        model_.push_back(partner);
      }
    }
  }
  std::sort(model_.begin(), model_.end());

  const std::size_t mm = model_.size();  // may exceed m after closure
  linalg::Matrix hmm(mm, mm);
  std::vector<Determinant> dets(mm);
  for (std::size_t i = 0; i < mm; ++i)
    dets[i] = determinant_at(space, model_[i]);
  for (std::size_t i = 0; i < mm; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = hamiltonian_element(ints, dets[i], dets[j]);
      hmm(i, j) = v;
      hmm(j, i) = v;
    }
  factor_ = linalg::eigh(hmm);
}

void ModelSpacePreconditioner::model_solve(double e, const double* xm,
                                           double* ym) const {
  // ym = V (w - e)^+ V^T xm.  The block can be exactly singular (e equal
  // to a model-space eigenvalue), so the pseudo-inverse projects the
  // offending direction out.
  const std::size_t m = model_.size();
  const linalg::Matrix& v = factor_.vectors;
  std::vector<double> f(m);
  for (std::size_t j = 0; j < m; ++j) {
    const double d = factor_.values[j] - e;
    if (std::abs(d) < kPinvCutoff) {
      f[j] = 0.0;
      continue;
    }
    double s = 0.0;
    for (std::size_t i = 0; i < m; ++i) s += v(i, j) * xm[i];
    f[j] = s / d;
  }
  for (std::size_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += v(i, j) * f[j];
    ym[i] = s;
  }
}

void ModelSpacePreconditioner::apply_inverse(double e,
                                             std::span<const double> x,
                                             std::span<double> y) const {
  XFCI_REQUIRE(x.size() == diag_.size() && y.size() == x.size(),
               "preconditioner size mismatch");
  const std::size_t m = model_.size();
  std::vector<double> xm(m), ym(m);
  for (std::size_t k = 0; k < m; ++k) xm[k] = x[model_[k]];
  model_solve(e, xm.data(), ym.data());
  for_each_index(
      model_, x.size(),
      [&](std::size_t i) { y[i] = x[i] / shifted_diagonal(diag_[i], e); },
      [&](std::size_t k) { y[model_[k]] = ym[k]; });
}

OlsenStep ModelSpacePreconditioner::correction(double e,
                                               std::span<const double> c,
                                               std::span<const double> sigma,
                                               std::span<double> t) const {
  const std::size_t dim = diag_.size();
  XFCI_REQUIRE(c.size() == dim && sigma.size() == dim && t.size() == dim,
               "correction vector size mismatch");
  // Model rows first: c_m, r_m and their images under (H_mm - e)^+.
  const std::size_t m = model_.size();
  std::vector<double> cm(m), rm(m), pcm(m), prm(m);
  for (std::size_t k = 0; k < m; ++k) {
    cm[k] = c[model_[k]];
    rm[k] = sigma[model_[k]] - e * cm[k];
  }
  model_solve(e, cm.data(), pcm.data());
  model_solve(e, rm.data(), prm.data());

  // Pass 1: eps = <c|(H0 - e)^-1 r> / <c|(H0 - e)^-1 c>.  t holds the
  // reciprocal denominators until pass 2 overwrites them.
  double num = 0.0, den = 0.0;
  for_each_index(
      model_, dim,
      [&](std::size_t i) {
        const double inv = 1.0 / shifted_diagonal(diag_[i], e);
        const double ci = c[i];
        num += ci * ((sigma[i] - e * ci) * inv);
        den += ci * (ci * inv);
        t[i] = inv;
      },
      [&](std::size_t k) {
        num += cm[k] * prm[k];
        den += cm[k] * pcm[k];
      });
  const double eps = std::abs(den) > 1e-300 ? num / den : 0.0;

  // Pass 2: t = -(H0 - e)^-1 (r - eps c), accumulating <c|t>.
  double ov = 0.0;
  for_each_index(
      model_, dim,
      [&](std::size_t i) {
        const double inv = t[i];
        const double ci = c[i];
        t[i] = -((sigma[i] - e * ci) * inv - eps * (ci * inv));
        ov += ci * t[i];
      },
      [&](std::size_t k) {
        t[model_[k]] = -(prm[k] - eps * pcm[k]);
        ov += cm[k] * t[model_[k]];
      });

  // Pass 3: remove the round-off overlap with c; <sigma|t> and <t|t>.
  OlsenStep step;
  for (std::size_t i = 0; i < dim; ++i) {
    t[i] -= ov * c[i];
    step.b += sigma[i] * t[i];
    step.tt += t[i] * t[i];
  }
  return step;
}

std::vector<double> ModelSpacePreconditioner::initial_guess(
    std::size_t dimension) const {
  return initial_guesses(dimension, 1).front();
}

std::vector<std::vector<double>> ModelSpacePreconditioner::initial_guesses(
    std::size_t dimension, std::size_t count) const {
  XFCI_REQUIRE(count >= 1, "need at least one guess");
  std::vector<std::vector<double>> out;
  if (model_.size() <= 1) {
    // Degenerate model space: unit vectors on the lowest diagonals.
    std::vector<std::size_t> order(diag_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::partial_sort(order.begin(),
                      order.begin() +
                          static_cast<std::ptrdiff_t>(
                              std::min<std::size_t>(count, diag_.size())),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        return diag_[a] < diag_[b];
                      });
    for (std::size_t k = 0; k < count && k < diag_.size(); ++k) {
      std::vector<double> g(dimension, 0.0);
      g[order[k]] = 1.0;
      out.push_back(std::move(g));
    }
    return out;
  }
  XFCI_REQUIRE(count <= model_.size(),
               "more roots requested than model-space dimension");
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<double> g(dimension, 0.0);
    for (std::size_t i = 0; i < model_.size(); ++i)
      g[model_[i]] = factor_.vectors(i, k);
    out.push_back(std::move(g));
  }
  return out;
}

namespace {

// ||sigma - e c||, the residual norm, without storing the residual.
double residual_norm(const std::vector<double>& c,
                     const std::vector<double>& sigma, double e) {
  double s = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double r = sigma[i] - e * c[i];
    s += r * r;
  }
  return std::sqrt(s);
}

// Cooperative cancellation poll (iteration boundaries only, so a stopped
// run always holds a complete iteration's state).
bool stop_requested(const SolverOptions& opt) {
  return opt.should_stop && opt.should_stop();
}

// The attached tracer when it is actually recording, else nullptr so each
// emission site costs one predicted branch on untraced runs.
obs::Tracer* solver_tracer(const SolverOptions& opt) {
  return (opt.tracer != nullptr && opt.tracer->enabled()) ? opt.tracer
                                                          : nullptr;
}

// Traced checkpoint I/O: the save/load spans land on the control track in
// the backend's clock domain (zero simulated duration -- file I/O is not
// charged -- but they mark *when* in the run the state was persisted).
void traced_save(const SolverOptions& opt, const Checkpoint& ck) {
  obs::Tracer* tr = solver_tracer(opt);
  const double t0 = tr != nullptr ? tr->now() : 0.0;
  save_checkpoint(opt.checkpoint_path, ck);
  if (tr != nullptr)
    tr->span(tr->control_track(), "io", "checkpoint_save", t0, tr->now(),
             obs::trace_args(
                 {{"iter", static_cast<double>(ck.iteration)}}));
}

// traced_save with `c` lent to the checkpoint for the write instead of
// copied into it.
void save_with_vector(const SolverOptions& opt, Checkpoint& ck,
                      std::vector<double>& c) {
  ck.c.swap(c);
  traced_save(opt, ck);
  ck.c.swap(c);
}

Checkpoint traced_load(const SolverOptions& opt) {
  obs::Tracer* tr = solver_tracer(opt);
  const double t0 = tr != nullptr ? tr->now() : 0.0;
  Checkpoint ck = load_checkpoint(opt.restart_path);
  if (tr != nullptr)
    tr->span(tr->control_track(), "io", "checkpoint_load", t0, tr->now(),
             obs::trace_args(
                 {{"iter", static_cast<double>(ck.iteration)}}));
  return ck;
}

// Warm-start resolution shared by every solver: a restart checkpoint (its
// vector only) beats an explicit initial vector beats the model-space
// guess.  The result is normalized -- callers needing the verbatim
// checkpoint state (bitwise restart) restore it themselves.
std::vector<double> warm_start_vector(const ModelSpacePreconditioner& precond,
                                      std::size_t dim,
                                      const SolverOptions& opt) {
  std::vector<double> c;
  if (!opt.restart_path.empty()) {
    Checkpoint ck = traced_load(opt);
    XFCI_REQUIRE(ck.c.size() == dim,
                 "checkpoint CI dimension does not match this problem");
    c = std::move(ck.c);
  } else if (!opt.initial_vector.empty()) {
    XFCI_REQUIRE(opt.initial_vector.size() == dim,
                 "initial vector dimension does not match this problem");
    c = opt.initial_vector;
  } else {
    c = precond.initial_guess(dim);
  }
  normalize(c);
  return c;
}

// Block Davidson for the `num_roots` lowest eigenpairs.  The subspace is
// seeded with the model-space eigenvectors; each iteration adds the Olsen
// correction vectors of the unconverged roots (paper section 4 uses the
// correction vector as the subspace direction).
SolverResult solve_davidson(SigmaOperator& op,
                            const ModelSpacePreconditioner& precond,
                            double core, const SolverOptions& opt) {
  const std::size_t dim = op.space().dimension();
  const std::size_t nroots = std::max<std::size_t>(1, opt.num_roots);
  XFCI_REQUIRE(nroots <= dim, "more roots than determinants");
  SolverResult res;
  obs::Tracer* tr = solver_tracer(opt);

  std::vector<std::vector<double>> basis = precond.initial_guesses(dim, nroots);
  if (!opt.restart_path.empty() || !opt.initial_vector.empty())
    basis[0] = warm_start_vector(precond, dim, opt);
  for (auto& b : basis) normalize(b);
  // Re-orthogonalize the seeds (unit-vector fallback guesses can overlap
  // after normalization in pathological cases).
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double ov = dot(basis[j], basis[i]);
      for (std::size_t x = 0; x < dim; ++x) basis[i][x] -= ov * basis[j][x];
    }
    normalize(basis[i]);
  }
  std::vector<std::vector<double>> hbasis;

  std::vector<double> last_e(nroots, 0.0);
  std::vector<std::vector<double>> ritz(nroots,
                                        std::vector<double>(dim, 0.0));
  std::vector<std::vector<double>> sigma_ritz(
      nroots, std::vector<double>(dim, 0.0));
  std::vector<double> theta(nroots, 0.0);

  while (res.iterations < opt.max_iterations) {
    if (stop_requested(opt)) {
      res.cancelled = true;
      // Cancelled before the first Rayleigh-Ritz: fall back to the seed so
      // the returned vector is normalizable.
      if (dot(ritz[0], ritz[0]) == 0.0) ritz[0] = basis[0];
      break;
    }
    // Apply H to every not-yet-applied basis vector.
    while (hbasis.size() < basis.size() &&
           res.iterations < opt.max_iterations) {
      const double it0 = tr != nullptr ? tr->now() : 0.0;
      std::vector<double> hb(dim);
      op.apply(basis[hbasis.size()], hb);
      hbasis.push_back(std::move(hb));
      ++res.iterations;
      note_iteration();
      if (tr != nullptr)
        tr->span(tr->control_track(), "solver", "iteration", it0, tr->now(),
                 obs::trace_args(
                     {{"iter", static_cast<double>(res.iterations)}}));
    }
    if (hbasis.size() < basis.size()) break;  // iteration budget exhausted

    // Rayleigh-Ritz.
    const std::size_t k = basis.size();
    linalg::Matrix hk(k, k);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        hk(i, j) = dot(basis[i], hbasis[j]);
    const auto eig = linalg::eigh(hk);

    bool all_converged = k >= nroots;
    double max_rnorm = 0.0;
    std::vector<double> rnorms(nroots, 0.0);
    for (std::size_t root = 0; root < nroots && root < k; ++root) {
      theta[root] = eig.values[root];
      std::fill(ritz[root].begin(), ritz[root].end(), 0.0);
      std::fill(sigma_ritz[root].begin(), sigma_ritz[root].end(), 0.0);
      for (std::size_t i = 0; i < k; ++i) {
        const double w = eig.vectors(i, root);
        linalg::daxpy_n(dim, w, basis[i].data(), ritz[root].data());
        linalg::daxpy_n(dim, w, hbasis[i].data(), sigma_ritz[root].data());
      }
      const double rnorm =
          residual_norm(ritz[root], sigma_ritz[root], theta[root]);
      rnorms[root] = rnorm;
      max_rnorm = std::max(max_rnorm, rnorm);
      const double de = std::abs(theta[root] - last_e[root]);
      last_e[root] = theta[root];
      if (root == 0) {
        res.energy_history.push_back(theta[0] + core);
        res.residual_history.push_back(rnorm);
      }
      const bool root_ok =
          rnorm < opt.residual_tolerance &&
          (res.iterations <= nroots || de < opt.energy_tolerance ||
           rnorm < 0.01 * opt.residual_tolerance);
      all_converged = all_converged && root_ok;
      if (opt.verbose)
        std::printf("  davidson it %2zu root %zu  E = %.12f  |r| = %.3e\n",
                    res.iterations, root, theta[root] + core, rnorm);
    }
    note_residual(max_rnorm);

    if (all_converged) {
      res.converged = true;
      break;
    }

    // Restart: collapse onto the Ritz vectors (their sigma images are
    // linear combinations of the stored ones -- no extra applications).
    if (basis.size() + nroots > opt.max_subspace && basis.size() > nroots) {
      basis.assign(ritz.begin(), ritz.begin() + std::min(nroots, k));
      hbasis.assign(sigma_ritz.begin(),
                    sigma_ritz.begin() + std::min(nroots, k));
      for (std::size_t i = 0; i < basis.size(); ++i) {
        // Ritz vectors are orthonormal; normalize against round-off.
        const double n = std::sqrt(dot(basis[i], basis[i]));
        for (auto& x : basis[i]) x /= n;
        for (auto& x : hbasis[i]) x /= n;
      }
    }

    // New directions: Olsen corrections of the unconverged roots.
    bool added = false;
    for (std::size_t root = 0; root < nroots && root < k; ++root) {
      if (rnorms[root] < opt.residual_tolerance) continue;
      std::vector<double> t(dim);
      precond.correction(theta[root], ritz[root], sigma_ritz[root], t);
      if (opt.purify) opt.purify(t);
      for (int pass = 0; pass < 2; ++pass)
        for (const auto& b : basis) {
          const double ov = dot(b, t);
          for (std::size_t i = 0; i < dim; ++i) t[i] -= ov * b[i];
        }
      const double tn = std::sqrt(dot(t, t));
      if (tn < 1e-10) continue;
      for (auto& x : t) x /= tn;
      basis.push_back(std::move(t));
      added = true;
    }
    if (!added) {
      // Stationary: nothing new to add; accept the current Ritz pairs.
      res.converged = max_rnorm < opt.residual_tolerance;
      break;
    }
  }

  res.energy = theta[0] + core;
  res.vector = ritz[0];
  normalize(res.vector);
  res.energies.resize(nroots);
  res.vectors.resize(nroots);
  for (std::size_t root = 0; root < nroots; ++root) {
    res.energies[root] = theta[root] + core;
    res.vectors[root] = ritz[root];
    const double n = std::sqrt(dot(res.vectors[root], res.vectors[root]));
    if (n > 0) 
      for (auto& x : res.vectors[root]) x /= n;
  }
  return res;
}

// The paper's "subspace" method (Table 2 column "Davidson"): the current
// vector plus the Olsen correction span a 2-dimensional subspace whose 2x2
// generalized eigenproblem is solved exactly every iteration.  Needs H t
// explicitly (one sigma application per iteration, applied to t), so C,
// sigma(C), t and H t are all in memory -- twice the auto-adjusted
// method's footprint, which is the paper's motivation for Eq. 14.
SolverResult solve_subspace2(SigmaOperator& op,
                             const ModelSpacePreconditioner& precond,
                             double core, const SolverOptions& opt) {
  const std::size_t dim = op.space().dimension();
  SolverResult res;
  obs::Tracer* tr = solver_tracer(opt);
  const auto end_iteration = [&](std::size_t iter, double it0, double energy,
                                 double rnorm) {
    note_iteration();
    note_residual(rnorm);
    if (tr != nullptr)
      tr->span(tr->control_track(), "solver", "iteration", it0, tr->now(),
               obs::trace_args({{"iter", static_cast<double>(iter)},
                                {"E", energy},
                                {"rnorm", rnorm}}));
  };

  std::vector<double> c = warm_start_vector(precond, dim, opt);
  std::vector<double> sigma(dim), t(dim), ht(dim);
  const double it_init = tr != nullptr ? tr->now() : 0.0;
  op.apply(c, sigma);
  res.iterations = 1;
  double e = dot(c, sigma);
  double last_e = e;
  end_iteration(1, it_init, e + core, 0.0);

  for (std::size_t iter = 2; iter <= opt.max_iterations; ++iter) {
    if (stop_requested(opt)) {
      res.cancelled = true;
      break;
    }
    const double it0 = tr != nullptr ? tr->now() : 0.0;
    const double rnorm = residual_norm(c, sigma, e);
    const double de = std::abs(e - last_e);
    res.energy_history.push_back(e + core);
    res.residual_history.push_back(rnorm);
    if (opt.verbose)
      std::printf("  subspace-2x2 it %2zu  E = %.12f  |r| = %.3e\n",
                  res.iterations, e + core, rnorm);
    if (rnorm < opt.residual_tolerance &&
        (res.iterations == 1 || de < opt.energy_tolerance ||
         rnorm < 0.01 * opt.residual_tolerance)) {
      res.converged = true;
      res.energy = e + core;
      res.vector = c;
      end_iteration(iter, it0, e + core, rnorm);
      return res;
    }
    last_e = e;

    const double tt = precond.correction(e, c, sigma, t).tt;
    if (tt < 1e-22) {
      res.converged = rnorm < opt.residual_tolerance;
      res.energy = e + core;
      res.vector = c;
      end_iteration(iter, it0, e + core, rnorm);
      return res;
    }

    op.apply(t, ht);
    res.iterations = iter;
    const double b = dot(c, ht);
    const double tht = dot(t, ht);

    const auto g = linalg::lowest_gen_eig_2x2(e, b, tht, 1.0, 0.0, tt);
    double lambda = 1.0;
    if (std::abs(g.x0) > 1e-8 * std::abs(g.x1)) lambda = g.x1 / g.x0;

    const double s = std::sqrt(1.0 / (1.0 + lambda * lambda * tt));
    for (std::size_t i = 0; i < dim; ++i) {
      c[i] = s * (c[i] + lambda * t[i]);
      sigma[i] = s * (sigma[i] + lambda * ht[i]);
    }
    if (opt.purify) {
      // H commutes with the purifier, so project both coherently.
      opt.purify(c);
      opt.purify(sigma);
      const double nn = std::sqrt(dot(c, c));
      for (auto& x : c) x /= nn;
      for (auto& x : sigma) x /= nn;
    }
    e = dot(c, sigma);

    if (!opt.checkpoint_path.empty() && opt.checkpoint_interval != 0 &&
        iter % opt.checkpoint_interval == 0) {
      // Warm-restart checkpoint: the subspace method rebuilds H t after a
      // restart, so only the vector and the histories are persisted.
      Checkpoint ck;
      ck.iteration = iter;
      ck.method = static_cast<std::uint32_t>(opt.method);
      ck.last_e = e;
      ck.energy_history = res.energy_history;
      ck.residual_history = res.residual_history;
      save_with_vector(opt, ck, c);
    }
    end_iteration(iter, it0, e + core, rnorm);
  }

  res.converged = false;
  res.energy = e + core;
  res.vector = c;
  return res;
}

SolverResult solve_single_vector(SigmaOperator& op,
                                 const ModelSpacePreconditioner& precond,
                                 double core, const SolverOptions& opt) {
  const std::size_t dim = op.space().dimension();
  SolverResult res;
  obs::Tracer* tr = solver_tracer(opt);

  // The three CI-length buffers of the method: C, sigma = H C and the
  // correction t.  Each iteration overwrites them in place.
  std::vector<double> c;
  std::vector<double> sigma(dim), t(dim);

  // State carried between iterations for the auto-adjusted step length
  // (Eqs. 13-15).
  double lambda = 1.0;
  bool have_prev = false;
  double e_prev = 0.0, b_prev = 0.0, tt_prev = 0.0, s2_prev = 1.0,
         lambda_prev = 0.0;
  double last_e = 0.0;
  std::size_t first_iter = 1;

  if (!opt.restart_path.empty()) {
    // Full restart: restore every word of the inter-iteration state.  The
    // CI vector is used verbatim -- renormalizing (dividing by a norm of
    // ~1.0) would perturb the bits and break the trajectory guarantee.
    Checkpoint ck = traced_load(opt);
    XFCI_REQUIRE(ck.c.size() == dim,
                 "checkpoint CI dimension does not match this problem");
    XFCI_REQUIRE(ck.method == static_cast<std::uint32_t>(opt.method),
                 "checkpoint was written by a different solver method");
    c = std::move(ck.c);
    lambda = ck.lambda;
    have_prev = ck.have_prev;
    e_prev = ck.e_prev;
    b_prev = ck.b_prev;
    tt_prev = ck.tt_prev;
    s2_prev = ck.s2_prev;
    lambda_prev = ck.lambda_prev;
    last_e = ck.last_e;
    res.energy_history = ck.energy_history;
    res.residual_history = ck.residual_history;
    first_iter = static_cast<std::size_t>(ck.iteration) + 1;
    res.iterations = static_cast<std::size_t>(ck.iteration);
  } else {
    c = warm_start_vector(precond, dim, opt);
  }

  const auto end_iteration = [&](std::size_t iter, double it0, double energy,
                                 double step, double rnorm) {
    note_iteration();
    note_residual(rnorm);
    if (tr != nullptr)
      tr->span(tr->control_track(), "solver", "iteration", it0, tr->now(),
               obs::trace_args({{"iter", static_cast<double>(iter)},
                                {"E", energy},
                                {"lambda", step},
                                {"rnorm", rnorm}}));
  };

  for (std::size_t iter = first_iter; iter <= opt.max_iterations; ++iter) {
    if (stop_requested(opt)) {
      res.cancelled = true;
      break;
    }
    const double it0 = tr != nullptr ? tr->now() : 0.0;
    op.apply(c, sigma);
    res.iterations = iter;
    const double e = dot(c, sigma);

    if (opt.method == Method::kAutoAdjusted && have_prev &&
        std::abs(lambda_prev) > 1e-8 && tt_prev > 1e-20) {
      // Recover <t|H|t> of the previous iteration from the new energy
      // (Eq. 14) and diagonalize the previous 2x2 {C, t} problem; its
      // optimal mixing is this iteration's step length (Eq. 15).
      const double tht = (e / s2_prev - e_prev - 2.0 * lambda_prev * b_prev) /
                         (lambda_prev * lambda_prev);
      if (std::isfinite(tht)) {
        const auto g = linalg::lowest_gen_eig_2x2(e_prev, b_prev, tht, 1.0,
                                                  0.0, tt_prev);
        if (std::abs(g.x0) > 1e-8 * std::abs(g.x1))
          lambda = std::clamp(g.x1 / g.x0, -5.0, 5.0);
      }
    }

    const double rnorm = residual_norm(c, sigma, e);
    const double de = std::abs(e - last_e);
    last_e = e;
    res.energy_history.push_back(e + core);
    res.residual_history.push_back(rnorm);
    if (opt.verbose)
      std::printf("  %s it %2zu  E = %.12f  |r| = %.3e  lambda = %.4f\n",
                  method_name(opt.method).c_str(), iter, e + core, rnorm,
                  lambda);

    // Converged when the residual is small and either the energy has
    // settled or the residual is far below tolerance (the energy-change
    // test is meaningless on the first iteration and can lag the residual
    // by an iteration near machine precision).
    if (rnorm < opt.residual_tolerance &&
        (iter == 1 || de < opt.energy_tolerance ||
         rnorm < 0.01 * opt.residual_tolerance)) {
      res.converged = true;
      res.energy = e + core;
      res.vector = std::move(c);
      end_iteration(iter, it0, e + core, lambda, rnorm);
      return res;
    }

    const OlsenStep step = precond.correction(e, c, sigma, t);
    const double b = step.b;  // <C|H|t>
    const double tt = step.tt;
    if (tt < 1e-22) {
      // The correction vanished: stationary point.  Accept it if the
      // residual is small; otherwise the preconditioner cannot make
      // progress and iterating further would only amplify noise.
      res.converged = rnorm < opt.residual_tolerance;
      res.energy = e + core;
      res.vector = std::move(c);
      end_iteration(iter, it0, e + core, lambda, rnorm);
      return res;
    }

    switch (opt.method) {
      case Method::kOlsen:
        lambda = 1.0;
        break;
      case Method::kModifiedOlsen:
        lambda = opt.fixed_lambda;
        break;
      case Method::kAutoAdjusted:
        if (iter == 1) {
          // First iteration: crude <t|H|t> estimate from the diagonal.
          double tht = 0.0;
          const auto& diag = precond.diagonal();
          for (std::size_t i = 0; i < dim; ++i) tht += t[i] * t[i] * diag[i];
          const auto g =
              linalg::lowest_gen_eig_2x2(e, b, tht, 1.0, 0.0, tt);
          if (std::abs(g.x0) > 1e-12) lambda = g.x1 / g.x0;
        }
        // Otherwise lambda was set from Eq. 15 above.
        break;
      case Method::kDavidson:
      case Method::kSubspace2:
        XFCI_REQUIRE(false, "not a single-vector method");
    }

    // C <- S (C + lambda t), with <C|t> = 0 so S = (1+lambda^2 tt)^-1/2.
    const double s2 = 1.0 / (1.0 + lambda * lambda * tt);
    const double s = std::sqrt(s2);
    for (std::size_t i = 0; i < dim; ++i) c[i] = s * (c[i] + lambda * t[i]);
    if (opt.purify) {
      opt.purify(c);
      normalize(c);
    }

    e_prev = e;
    b_prev = b;
    tt_prev = tt;
    s2_prev = s2;
    lambda_prev = lambda;
    have_prev = true;

    if (!opt.checkpoint_path.empty() && opt.checkpoint_interval != 0 &&
        iter % opt.checkpoint_interval == 0) {
      Checkpoint ck;
      ck.iteration = iter;
      ck.method = static_cast<std::uint32_t>(opt.method);
      ck.have_prev = have_prev;
      ck.lambda = lambda;
      ck.e_prev = e_prev;
      ck.b_prev = b_prev;
      ck.tt_prev = tt_prev;
      ck.s2_prev = s2_prev;
      ck.lambda_prev = lambda_prev;
      ck.last_e = last_e;
      ck.energy_history = res.energy_history;
      ck.residual_history = res.residual_history;
      save_with_vector(opt, ck, c);
    }
    end_iteration(iter, it0, e + core, lambda, rnorm);
  }

  res.converged = false;
  res.energy = last_e + core;
  res.vector = std::move(c);
  return res;
}

}  // namespace

SolverResult solve_lowest(SigmaOperator& op,
                          const integrals::IntegralTables& ints,
                          const SolverOptions& options,
                          const ModelSpacePreconditioner* precond) {
  XFCI_REQUIRE(options.num_roots == 1 || options.method == Method::kDavidson,
               "multiple roots require the Davidson method");
  std::unique_ptr<const ModelSpacePreconditioner> own;
  if (precond == nullptr) {
    own = std::make_unique<const ModelSpacePreconditioner>(
        op.space(), ints, options.model_space);
    precond = own.get();
  }
  SolverResult res;
  if (options.method == Method::kDavidson)
    res = solve_davidson(op, *precond, ints.core_energy, options);
  else if (options.method == Method::kSubspace2)
    res = solve_subspace2(op, *precond, ints.core_energy, options);
  else
    res = solve_single_vector(op, *precond, ints.core_energy, options);
  if (res.energies.empty()) {
    res.energies = {res.energy};
    res.vectors = {res.vector};
  }
  return res;
}

}  // namespace xfci::fci
