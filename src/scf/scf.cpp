#include "scf/scf.hpp"

#include <cmath>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "integrals/one_electron.hpp"
#include "linalg/eigen.hpp"
#include "scf/diis.hpp"
#include "scf/mosym.hpp"

namespace xfci::scf {
namespace {

// X = S^(-1/2) by symmetric (Loewdin) orthogonalization; near-dependent
// directions (eigenvalue < 1e-10) are dropped, shrinking the MO count.
linalg::Matrix orthogonalizer(const linalg::Matrix& s) {
  const auto eig = linalg::eigh(s);
  const std::size_t n = s.rows();
  std::size_t kept = 0;
  for (double w : eig.values)
    if (w > 1e-10) ++kept;
  linalg::Matrix x(n, kept);
  std::size_t col = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (eig.values[j] <= 1e-10) continue;
    const double f = 1.0 / std::sqrt(eig.values[j]);
    for (std::size_t i = 0; i < n; ++i) x(i, col) = eig.vectors(i, j) * f;
    ++col;
  }
  return x;
}

// Density matrix D = C_occ C_occ^T over the first nocc columns.
linalg::Matrix density(const linalg::Matrix& c, std::size_t nocc) {
  const std::size_t n = c.rows();
  linalg::Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double v = 0.0;
      for (std::size_t k = 0; k < nocc; ++k) v += c(i, k) * c(j, k);
      d(i, j) = v;
    }
  return d;
}

// DIIS error e = F D S - S D F in the AO basis.
linalg::Matrix diis_error(const linalg::Matrix& f, const linalg::Matrix& d,
                          const linalg::Matrix& s) {
  const linalg::Matrix fds = f * (d * s);
  const linalg::Matrix sdf = fds.transposed();
  linalg::Matrix e(f.rows(), f.cols());
  for (std::size_t i = 0; i < e.rows(); ++i)
    for (std::size_t j = 0; j < e.cols(); ++j) e(i, j) = fds(i, j) - sdf(i, j);
  return e;
}

// Diagonalizes F in the orthogonal basis X and back-transforms: returns
// (C = X V, eigenvalues).
std::pair<linalg::Matrix, std::vector<double>> solve_fock(
    const linalg::Matrix& f, const linalg::Matrix& x) {
  const linalg::Matrix ft = x.transposed() * (f * x);
  const auto eig = linalg::eigh(ft);
  return {x * eig.vectors, eig.values};
}

// The AO-basis operators that the SCF and the MO transformation share,
// computed once per molecule and basis.
struct AoOperators {
  linalg::Matrix s;
  linalg::Matrix hcore;
  integrals::EriTensor eri;
};

AoOperators ao_operators(const chem::Molecule& mol,
                         const integrals::BasisSet& basis) {
  return {integrals::overlap_matrix(basis),
          integrals::core_hamiltonian(basis, mol),
          integrals::compute_eri(basis)};
}

ScfResult rohf_on(const chem::Molecule& mol, const AoOperators& ao,
                  std::size_t multiplicity, const ScfOptions& options);

}  // namespace

linalg::Matrix coulomb_matrix(const integrals::EriTensor& eri,
                              const linalg::Matrix& d) {
  const std::size_t n = d.rows();
  linalg::Matrix j(n, n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q <= p; ++q) {
      double v = 0.0;
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s) v += d(r, s) * eri(p, q, r, s);
      j(p, q) = v;
      j(q, p) = v;
    }
  return j;
}

linalg::Matrix exchange_matrix(const integrals::EriTensor& eri,
                               const linalg::Matrix& d) {
  const std::size_t n = d.rows();
  linalg::Matrix k(n, n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q <= p; ++q) {
      double v = 0.0;
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t s = 0; s < n; ++s) v += d(r, s) * eri(p, r, q, s);
      k(p, q) = v;
      k(q, p) = v;
    }
  return k;
}

ScfResult rhf(const chem::Molecule& mol, const integrals::BasisSet& basis,
              const ScfOptions& options) {
  const int nelec = mol.num_electrons();
  XFCI_REQUIRE(nelec % 2 == 0, "rhf requires an even electron count");
  return rohf(mol, basis, 1, options);
}

ScfResult rohf(const chem::Molecule& mol, const integrals::BasisSet& basis,
               std::size_t multiplicity, const ScfOptions& options) {
  return rohf_on(mol, ao_operators(mol, basis), multiplicity, options);
}

namespace {

ScfResult rohf_on(const chem::Molecule& mol, const AoOperators& ao,
                  std::size_t multiplicity, const ScfOptions& options) {
  const int nelec = mol.num_electrons();
  XFCI_REQUIRE(multiplicity >= 1, "multiplicity must be >= 1");
  const int nopen = static_cast<int>(multiplicity) - 1;
  XFCI_REQUIRE((nelec - nopen) >= 0 && (nelec - nopen) % 2 == 0,
               "electron count incompatible with multiplicity");
  const std::size_t nbeta = static_cast<std::size_t>((nelec - nopen) / 2);
  const std::size_t nalpha = nbeta + static_cast<std::size_t>(nopen);

  const linalg::Matrix& s = ao.s;
  const linalg::Matrix& hcore = ao.hcore;
  const integrals::EriTensor& eri = ao.eri;
  const linalg::Matrix x = orthogonalizer(s);
  const std::size_t nmo = x.cols();
  XFCI_REQUIRE(nalpha <= nmo, "more electrons than orbitals");

  // Core-Hamiltonian initial guess.
  auto [c, eps] = solve_fock(hcore, x);

  Diis diis(options.diis_history);
  double energy = 0.0;
  double last_energy = 0.0;
  bool converged = false;
  std::size_t iter = 0;
  linalg::Matrix d_alpha_prev;

  for (iter = 1; iter <= options.max_iterations; ++iter) {
    // A closed shell's beta density and exchange equal the alpha ones.
    const linalg::Matrix da = density(c, nalpha);
    const linalg::Matrix db = nopen == 0 ? da : density(c, nbeta);
    linalg::Matrix dt(da.rows(), da.cols());
    for (std::size_t i = 0; i < dt.size(); ++i)
      dt.data()[i] = da.data()[i] + db.data()[i];

    const linalg::Matrix j = coulomb_matrix(eri, dt);
    const linalg::Matrix ka = exchange_matrix(eri, da);
    const linalg::Matrix kb = nopen == 0 ? ka : exchange_matrix(eri, db);

    linalg::Matrix fa(j.rows(), j.cols());
    linalg::Matrix fb(j.rows(), j.cols());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      fa.data()[i] = hcore.data()[i] + j.data()[i] - ka.data()[i];
      fb.data()[i] = hcore.data()[i] + j.data()[i] - kb.data()[i];
    }

    // Electronic energy: E = 1/2 Tr[Da (h + Fa)] + 1/2 Tr[Db (h + Fb)].
    double e_elec = 0.0;
    for (std::size_t p = 0; p < fa.rows(); ++p)
      for (std::size_t q = 0; q < fa.cols(); ++q)
        e_elec += 0.5 * da(p, q) * (hcore(p, q) + fa(p, q)) +
                  0.5 * db(p, q) * (hcore(p, q) + fb(p, q));
    energy = e_elec + mol.nuclear_repulsion();

    // Effective (Guest-Saunders) Fock in the current MO basis.
    // Blocks: cc/oo/vv -> (Fa+Fb)/2, co -> Fb, ov -> Fa.
    linalg::Matrix f_eff;
    if (nopen == 0) {
      f_eff = fa;  // RHF: Fa == Fb
    } else {
      const linalg::Matrix fa_mo = c.transposed() * (fa * c);
      const linalg::Matrix fb_mo = c.transposed() * (fb * c);
      linalg::Matrix r(nmo, nmo);
      auto block = [&](std::size_t m) {
        if (m < nbeta) return 0;      // closed
        if (m < nalpha) return 1;     // open
        return 2;                     // virtual
      };
      for (std::size_t m = 0; m < nmo; ++m) {
        for (std::size_t n2 = 0; n2 < nmo; ++n2) {
          const int bm = block(m), bn = block(n2);
          double v;
          if (bm == bn)
            v = 0.5 * (fa_mo(m, n2) + fb_mo(m, n2));
          else if ((bm == 0 && bn == 1) || (bm == 1 && bn == 0))
            v = fb_mo(m, n2);
          else if ((bm == 1 && bn == 2) || (bm == 2 && bn == 1))
            v = fa_mo(m, n2);
          else
            v = 0.5 * (fa_mo(m, n2) + fb_mo(m, n2));
          r(m, n2) = v;
        }
      }
      // Back-transform to the AO basis: F_ao = S C R C^T S.
      const linalg::Matrix sc = s * c;
      f_eff = sc * (r * sc.transposed());
    }

    if (options.level_shift != 0.0) {
      // Shift virtual orbitals: F += shift * S (1 - D_total S) ... applied
      // in the orthonormal basis via the density projector.
      const linalg::Matrix sd = s * (da * s);
      for (std::size_t p = 0; p < f_eff.rows(); ++p)
        for (std::size_t q = 0; q < f_eff.cols(); ++q)
          f_eff(p, q) += options.level_shift * (s(p, q) - sd(p, q));
    }

    const linalg::Matrix err = diis_error(f_eff, da, s);
    f_eff = diis.extrapolate(f_eff, err);

    std::tie(c, eps) = solve_fock(f_eff, x);

    const double de = std::abs(energy - last_energy);
    double dd = 0.0;
    if (iter > 1) dd = da.max_abs_diff(d_alpha_prev);
    d_alpha_prev = da;
    last_energy = energy;
    if (iter > 2 && de < options.energy_tolerance &&
        dd < options.density_tolerance) {
      converged = true;
      break;
    }
  }

  ScfResult res;
  res.converged = converged;
  res.iterations = iter;
  res.energy = energy;
  res.coefficients = c;
  res.orbital_energies = eps;
  res.num_alpha = nalpha;
  res.num_beta = nbeta;
  return res;
}

}  // namespace

std::array<linalg::Matrix, 3> mo_dipole_matrices(
    const integrals::BasisSet& basis, const linalg::Matrix& c,
    const std::array<double, 3>& origin) {
  const auto d_ao = integrals::dipole_matrices(basis, origin);
  std::array<linalg::Matrix, 3> d_mo;
  for (int d = 0; d < 3; ++d)
    d_mo[d] = c.transposed() * (d_ao[d] * c);
  return d_mo;
}

MoSystem prepare_mo_system(const chem::Molecule& mol,
                           const integrals::BasisSet& basis,
                           std::size_t multiplicity,
                           const std::string& group_name,
                           const ScfOptions& options) {
  MoSystem sys;
  const AoOperators ao = ao_operators(mol, basis);
  sys.scf = rohf_on(mol, ao, multiplicity, options);
  XFCI_REQUIRE(sys.scf.converged, "SCF did not converge");

  const chem::PointGroup group = (group_name == "auto")
                                     ? chem::PointGroup::detect(mol)
                                     : chem::PointGroup::make(group_name);

  // Purify degenerate orbitals and label irreps.
  std::vector<std::size_t> irreps = symmetrize_orbitals(
      sys.scf.coefficients, sys.scf.orbital_energies, ao.s, basis, mol,
      group);

  sys.tables =
      integrals::transform_to_mo(ao.hcore, ao.eri, sys.scf.coefficients);
  sys.tables.core_energy = mol.nuclear_repulsion();
  sys.tables.group = group;
  sys.tables.orbital_irreps = std::move(irreps);
  return sys;
}

}  // namespace xfci::scf
