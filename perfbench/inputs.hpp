#pragma once
// Seeded workload inputs.  The seed only moves nuclei: the program sees
// a generated molecule (workload 1) and FCIDUMP files (workload 2).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "integrals/tables.hpp"

namespace perfbench {

/// Bond-length scale of the C2 workload: exactly 1 at seed 0
/// (equilibrium), otherwise a deterministic factor within +-2%.
double bond_scale(std::uint64_t seed);

/// C2 at r_e = 1.2425 A times `scale`.
xfci::chem::Molecule carbon_dimer(double scale);
/// Water at the standard near-equilibrium geometry with every nucleus'
/// distance from the origin times `scale` (bond angle kept).
xfci::chem::Molecule water(double scale);

/// The correlated space cut from the SCF orbitals.
struct SpaceSpec {
  const char* basis;
  std::size_t freeze_core;
  std::size_t max_orbitals;
};

/// A prepared correlated system: what the FCI layers receive.
struct System {
  xfci::integrals::IntegralTables tables;
  std::size_t nalpha = 0;
  std::size_t nbeta = 0;
  double scf_energy = 0.0;
};

/// Basis, closed-shell SCF, MO transform, frozen core, virtual truncation.
System prepare(const xfci::chem::Molecule& mol, const SpaceSpec& space);

/// The serve workload's job list over its distinct Hamiltonians.
struct ServeJob {
  std::size_t hamiltonian;
  bool interactive;
};

/// Workload 2's inputs: bond scales of the distinct water Hamiltonians
/// (within +-2%), the shuffled job order with `copies[h]` jobs of
/// Hamiltonian h, and about one job in eight interactive, all drawn from
/// `seed`.
struct ServeMix {
  std::vector<double> scales;
  std::vector<ServeJob> jobs;
};
ServeMix serve_mix(std::uint64_t seed, const std::vector<std::size_t>& copies);

}  // namespace perfbench
