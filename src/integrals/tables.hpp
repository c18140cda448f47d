#pragma once
// Molecular-orbital integral tables: the (h_pq, (pq|rs), E_core) triplet the
// FCI layer consumes, plus the four-index AO->MO transformation and the
// frozen-core reduction.

#include <vector>

#include "chem/pointgroup.hpp"
#include "integrals/two_electron.hpp"
#include "linalg/matrix.hpp"

namespace xfci::integrals {

/// MO-basis Hamiltonian data for a correlated calculation.
struct IntegralTables {
  std::size_t norb = 0;         ///< number of active orbitals
  linalg::Matrix h;             ///< one-electron integrals h_pq (norb x norb)
  EriTensor eri;                ///< (pq|rs) in chemists' notation
  double core_energy = 0.0;     ///< nuclear repulsion (+ frozen core)
  chem::PointGroup group = chem::PointGroup::make("C1");
  std::vector<std::size_t> orbital_irreps;  ///< irrep index per orbital

  /// All-zero tables for n orbitals in C1 (callers fill h/eri; used by the
  /// model systems in tests).
  static IntegralTables empty(std::size_t n);
};

/// Transforms AO-basis h and ERIs to the MO basis given the coefficient
/// matrix C (AO x MO, columns are orbitals).  Two half-transformations,
/// (pq|rs) -> (ij|rs) -> (ij|kl), each run as GEMMs over slabs of packed
/// pairs; cost O(n^5).
IntegralTables transform_to_mo(const linalg::Matrix& h_ao,
                               const EriTensor& eri_ao,
                               const linalg::Matrix& c);

/// Freezes the first `ncore` orbitals (doubly occupied): returns tables over
/// the remaining orbitals with the effective one-electron operator
///   h'_pq = h_pq + sum_i [2 (pq|ii) - (pi|iq)]
/// and core_energy increased by 2 sum_i h_ii + sum_ij [2(ii|jj) - (ij|ji)].
IntegralTables freeze_core(const IntegralTables& full, std::size_t ncore);

}  // namespace xfci::integrals
