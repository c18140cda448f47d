#include "inputs.hpp"

#include <algorithm>
#include <cstdio>

#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "integrals/basis.hpp"
#include "scf/scf.hpp"

namespace perfbench {

namespace xc = xfci::chem;

double bond_scale(std::uint64_t seed) {
  if (seed == 0) return 1.0;
  xfci::Rng rng(seed);
  return rng.uniform(0.98, 1.02);
}

xc::Molecule carbon_dimer(double scale) {
  const double z = 0.62125 * scale;
  char xyz[128];
  std::snprintf(xyz, sizeof xyz, "C 0 0 %.15g\nC 0 0 %.15g\n", -z, z);
  return xc::Molecule::from_xyz_angstrom(xyz);
}

xc::Molecule water(double scale) {
  char xyz[256];
  std::snprintf(xyz, sizeof xyz,
                "O 0.0 0.0 %.15g\nH %.15g 0.0 %.15g\nH %.15g 0.0 %.15g\n",
                -0.143225816552 * scale, 1.638036840407 * scale,
                1.136548822547 * scale, -1.638036840407 * scale,
                1.136548822547 * scale);
  return xc::Molecule::from_xyz_bohr(xyz);
}

System prepare(const xc::Molecule& mol, const SpaceSpec& space) {
  const auto basis = xfci::integrals::BasisSet::build(space.basis, mol);
  xfci::scf::ScfOptions opt;
  opt.max_iterations = 400;
  auto mo = xfci::scf::prepare_mo_system(mol, basis, 1, "auto", opt);

  System sys;
  sys.tables = std::move(mo.tables);
  sys.nalpha = mo.scf.num_alpha - space.freeze_core;
  sys.nbeta = mo.scf.num_beta - space.freeze_core;
  sys.scf_energy = mo.scf.energy;
  if (space.freeze_core > 0)
    sys.tables = xfci::integrals::freeze_core(sys.tables, space.freeze_core);
  if (space.max_orbitals > 0 && space.max_orbitals < sys.tables.norb)
    sys.tables = xfci::fci::truncate_orbitals(sys.tables, space.max_orbitals);
  return sys;
}

ServeMix serve_mix(std::uint64_t seed, const std::vector<std::size_t>& copies) {
  xfci::Rng rng(seed ^ 0x5e7e5e7eull);
  ServeMix mix;
  for (std::size_t h = 0; h < copies.size(); ++h) {
    mix.scales.push_back(rng.uniform(0.98, 1.02));
    mix.jobs.insert(mix.jobs.end(), copies[h], ServeJob{h, false});
  }
  // Fisher-Yates with the seeded engine (std::shuffle's algorithm is
  // library-defined, so it would not pin the order across toolchains).
  for (std::size_t i = mix.jobs.size(); i > 1; --i)
    std::swap(mix.jobs[i - 1], mix.jobs[rng.index(i)]);
  for (std::size_t i = 0; i < mix.jobs.size() / 8; ++i)
    mix.jobs[rng.index(mix.jobs.size())].interactive = true;
  return mix;
}

}  // namespace perfbench
