#include "integrals/tables.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/gemm.hpp"

namespace xfci::integrals {

IntegralTables IntegralTables::empty(std::size_t n) {
  IntegralTables t;
  t.norb = n;
  t.h = linalg::Matrix(n, n);
  t.eri = EriTensor(n);
  t.orbital_irreps.assign(n, 0);
  return t;
}

namespace {

// Pairs per slab of the two half-transformations: large enough for GEMMs
// of a few thousand rows, small enough that a slab's buffers stay around
// a megabyte.
constexpr std::size_t kSlab = 128;

// Half transformation of a slab of `count` symmetric nao x nao blocks X_k,
// stored orbital-major: x[(p * count + k) * nao + q] = X_k(p, q).  Two
// GEMMs give z[(i * count + k) * nmo + j] = (C^T X_k C)(i, j): Y = X C over
// the rows (p, k), then Z = C^T Y over the columns (k, j).
void half_transform(const linalg::Matrix& c, std::size_t count,
                    const std::vector<double>& x, std::vector<double>& y,
                    std::vector<double>& z) {
  const std::size_t nao = c.rows();
  const std::size_t nmo = c.cols();
  y.resize(nao * count * nmo);
  z.resize(nmo * count * nmo);
  linalg::gemm(false, false, nao * count, nmo, nao, 1.0, x.data(), nao,
               c.data(), nmo, 0.0, y.data(), nmo);
  linalg::gemm(true, false, nmo, count * nmo, nao, 1.0, c.data(), nmo,
               y.data(), count * nmo, 0.0, z.data(), count * nmo);
}

}  // namespace

IntegralTables transform_to_mo(const linalg::Matrix& h_ao,
                               const EriTensor& eri_ao,
                               const linalg::Matrix& c) {
  const std::size_t nao = h_ao.rows();
  const std::size_t nmo = c.cols();
  XFCI_REQUIRE(h_ao.cols() == nao, "h_ao must be square");
  XFCI_REQUIRE(c.rows() == nao, "C row count must match AO count");
  XFCI_REQUIRE(eri_ao.n() == nao, "eri_ao dimension mismatch");

  IntegralTables t = IntegralTables::empty(nmo);

  // One-electron: h_MO = C^T h C.
  const linalg::Matrix tmp = h_ao * c;
  const linalg::Matrix hmo = c.transposed() * tmp;
  t.h = hmo;

  // Two-electron: (pq|rs) -> (ij|rs) -> (ij|kl), each half over slabs of
  // pairs unpacked once from the packed tensor.  The intermediate holds
  // (ij|rs) for MO pairs ij and AO pairs rs, both packed.
  const std::size_t npair_ao = nao * (nao + 1) / 2;
  const std::size_t npair_mo = nmo * (nmo + 1) / 2;
  const std::vector<double>& ao = eri_ao.raw();
  constexpr auto pair = &EriTensor::pair_index;
  std::vector<double> half(npair_mo * npair_ao);
  std::vector<double> x, y, z;
  for (std::size_t rs0 = 0; rs0 < npair_ao; rs0 += kSlab) {
    const std::size_t count = std::min(kSlab, npair_ao - rs0);
    x.resize(nao * count * nao);
    for (std::size_t p = 0; p < nao; ++p)
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t rs = rs0 + k;
        double* row = x.data() + (p * count + k) * nao;
        for (std::size_t q = 0; q < nao; ++q)
          row[q] = ao[pair(pair(p, q), rs)];
      }
    half_transform(c, count, x, y, z);
    for (std::size_t i = 0; i < nmo; ++i)
      for (std::size_t k = 0; k < count; ++k)
        for (std::size_t j = 0; j <= i; ++j)
          half[pair(i, j) * npair_ao + rs0 + k] =
              z[(i * count + k) * nmo + j];
  }
  std::vector<double>& mo = t.eri.raw();
  for (std::size_t ij0 = 0; ij0 < npair_mo; ij0 += kSlab) {
    const std::size_t count = std::min(kSlab, npair_mo - ij0);
    x.resize(nao * count * nao);
    for (std::size_t r = 0; r < nao; ++r)
      for (std::size_t k = 0; k < count; ++k) {
        const double* row = half.data() + (ij0 + k) * npair_ao;
        double* out = x.data() + (r * count + k) * nao;
        for (std::size_t s = 0; s < nao; ++s) out[s] = row[pair(r, s)];
      }
    half_transform(c, count, x, y, z);
    for (std::size_t a = 0; a < nmo; ++a)
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t ij = ij0 + k;
        for (std::size_t b = 0; b <= a; ++b) {
          const std::size_t kl = pair(a, b);
          if (kl > ij) break;
          mo[pair(ij, kl)] = z[(a * count + k) * nmo + b];
        }
      }
  }
  return t;
}

IntegralTables freeze_core(const IntegralTables& full, std::size_t ncore) {
  XFCI_REQUIRE(ncore <= full.norb, "freeze_core: too many core orbitals");
  const std::size_t nact = full.norb - ncore;
  IntegralTables t = IntegralTables::empty(nact);
  t.group = full.group;
  t.orbital_irreps.resize(nact);
  for (std::size_t p = 0; p < nact; ++p)
    t.orbital_irreps[p] = full.orbital_irreps.empty()
                              ? 0
                              : full.orbital_irreps[ncore + p];

  // Core energy: E_core += 2 sum_i h_ii + sum_ij [2 (ii|jj) - (ij|ji)].
  double ecore = full.core_energy;
  for (std::size_t i = 0; i < ncore; ++i) {
    ecore += 2.0 * full.h(i, i);
    for (std::size_t j = 0; j < ncore; ++j)
      ecore += 2.0 * full.eri(i, i, j, j) - full.eri(i, j, j, i);
  }
  t.core_energy = ecore;

  // Effective one-electron operator and copied active-space ERIs.
  for (std::size_t p = 0; p < nact; ++p) {
    for (std::size_t q = 0; q < nact; ++q) {
      double v = full.h(ncore + p, ncore + q);
      for (std::size_t i = 0; i < ncore; ++i)
        v += 2.0 * full.eri(ncore + p, ncore + q, i, i) -
             full.eri(ncore + p, i, i, ncore + q);
      t.h(p, q) = v;
    }
  }
  for (std::size_t p = 0; p < nact; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          t.eri.set(p, q, r, s,
                    full.eri(ncore + p, ncore + q, ncore + r, ncore + s));
        }
  return t;
}

}  // namespace xfci::integrals
