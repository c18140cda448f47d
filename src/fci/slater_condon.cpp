#include "fci/slater_condon.hpp"

#include <bit>

namespace xfci::fci {
namespace {

int popcount(StringMask m) { return std::popcount(m); }

// Occupied orbital list of a mask.
void occupied(StringMask m, std::vector<int>& out) {
  out.clear();
  while (m) {
    out.push_back(__builtin_ctzll(m));
    m &= m - 1;
  }
}

// Sign and orbitals of the single excitation turning `from` into `to`
// (masks differing in exactly one orbital each way): |to> = sign a^+_p a_q
// |from>.
struct Single {
  int p, q, sign;
};
Single single_excitation(StringMask from, StringMask to) {
  const StringMask removed = from & ~to;
  const StringMask added = to & ~from;
  const int q = __builtin_ctzll(removed);
  const int p = __builtin_ctzll(added);
  const int s1 = annihilate_sign(from, q);
  const StringMask mid = from & ~(StringMask{1} << q);
  const int s2 = create_sign(mid, p);
  return {p, q, s1 * s2};
}

// Same-spin double excitation: |to> = sign a^+_p a^+_r a_s a_q |from> with
// p > r created, q > s annihilated.
struct Double {
  int p, r, q, s, sign;
};
Double double_excitation(StringMask from, StringMask to) {
  const StringMask removed = from & ~to;
  const StringMask added = to & ~from;
  const int s = __builtin_ctzll(removed);
  const int q = __builtin_ctzll(removed & (removed - 1));  // q > s
  const int r = __builtin_ctzll(added);
  const int p = __builtin_ctzll(added & (added - 1));  // p > r
  // <to| a+p a+r a_s a_q |from> = <K|a_s a_q|from> <to|a+p a+r|K> with
  // K = from - q - s.  <K|a_s a_q|from> equals the sign of a+q a+s K.
  StringMask k = from & ~removed;
  const int sign_ann = create_sign(k, s) *
                       create_sign(k | (StringMask{1} << s), q);
  const int sign_cre = create_sign(k, r) *
                       create_sign(k | (StringMask{1} << r), p);
  return {p, r, q, s, sign_ann * sign_cre};
}

}  // namespace

double hamiltonian_element(const integrals::IntegralTables& ints,
                           const Determinant& bra, const Determinant& ket) {
  const int da = popcount(bra.alpha ^ ket.alpha) / 2;
  const int db = popcount(bra.beta ^ ket.beta) / 2;
  if (da + db > 2) return 0.0;

  const auto& h = ints.h;
  const auto& eri = ints.eri;
  thread_local std::vector<int> occ_a, occ_b;

  if (da == 0 && db == 0) {
    // Diagonal.
    occupied(ket.alpha, occ_a);
    occupied(ket.beta, occ_b);
    double e = 0.0;
    for (int p : occ_a) e += h(p, p);
    for (int p : occ_b) e += h(p, p);
    for (int p : occ_a)
      for (int q : occ_a)
        e += 0.5 * (eri(p, p, q, q) - eri(p, q, q, p));
    for (int p : occ_b)
      for (int q : occ_b)
        e += 0.5 * (eri(p, p, q, q) - eri(p, q, q, p));
    for (int p : occ_a)
      for (int q : occ_b) e += eri(p, p, q, q);
    return e;
  }

  if (da == 1 && db == 0) {
    const Single ex = single_excitation(ket.alpha, bra.alpha);
    occupied(ket.alpha & bra.alpha, occ_a);  // common alpha occupation
    occupied(ket.beta, occ_b);
    double e = h(ex.p, ex.q);
    for (int r : occ_a) e += eri(ex.p, ex.q, r, r) - eri(ex.p, r, r, ex.q);
    for (int r : occ_b) e += eri(ex.p, ex.q, r, r);
    return ex.sign * e;
  }
  if (da == 0 && db == 1) {
    const Single ex = single_excitation(ket.beta, bra.beta);
    occupied(ket.beta & bra.beta, occ_b);
    occupied(ket.alpha, occ_a);
    double e = h(ex.p, ex.q);
    for (int r : occ_b) e += eri(ex.p, ex.q, r, r) - eri(ex.p, r, r, ex.q);
    for (int r : occ_a) e += eri(ex.p, ex.q, r, r);
    return ex.sign * e;
  }

  if (da == 1 && db == 1) {
    const Single ea = single_excitation(ket.alpha, bra.alpha);
    const Single eb = single_excitation(ket.beta, bra.beta);
    return ea.sign * eb.sign * eri(ea.p, ea.q, eb.p, eb.q);
  }

  if (da == 2 && db == 0) {
    const Double ex = double_excitation(ket.alpha, bra.alpha);
    return ex.sign *
           (eri(ex.p, ex.q, ex.r, ex.s) - eri(ex.p, ex.s, ex.r, ex.q));
  }
  // da == 0 && db == 2
  const Double ex = double_excitation(ket.beta, bra.beta);
  return ex.sign *
         (eri(ex.p, ex.q, ex.r, ex.s) - eri(ex.p, ex.s, ex.r, ex.q));
}

Determinant determinant_at(const CiSpace& space, std::size_t i) {
  for (const CiBlock& blk : space.blocks()) {
    if (i < blk.offset || i >= blk.offset + blk.na * blk.nb) continue;
    const std::size_t rel = i - blk.offset;
    const std::size_t ia = rel / blk.nb;
    const std::size_t ib = rel % blk.nb;
    return Determinant{space.alpha().mask(blk.halpha, ia),
                       space.beta().mask(blk.hbeta, ib)};
  }
  XFCI_REQUIRE(false, "determinant index out of range");
  return {};
}

std::vector<double> hamiltonian_diagonal(
    const CiSpace& space, const integrals::IntegralTables& ints) {
  std::vector<double> diag(space.dimension());
  const auto& eri = ints.eri;
  const std::size_t norb = space.norb();
  // Diagonal = E(alpha) + E(beta) + cross(alpha, beta), where
  // E(s) = sum_p h_pp + 1/2 sum_pq [(pp|qq) - (pq|qp)] over the string's
  // orbitals and cross = sum_{p in alpha} v_beta(p) with the per-beta-string
  // partial sums v_beta(p) = sum_{q in beta} (pp|qq).
  std::vector<double> coulomb(norb * norb);  // (pp|qq)
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q < norb; ++q)
      coulomb[p * norb + q] = eri(p, p, q, q);
  const auto string_energy = [&](StringMask m, std::vector<int>& occ) {
    occupied(m, occ);
    double e = 0.0;
    for (int p : occ) {
      e += ints.h(p, p);
      for (int q : occ) e += 0.5 * (eri(p, p, q, q) - eri(p, q, q, p));
    }
    return e;
  };
  std::vector<int> occ;
  std::vector<double> ea, eb, vb;
  std::vector<std::vector<int>> occs_a;
  for (const CiBlock& blk : space.blocks()) {
    const std::size_t na = blk.na, nb = blk.nb;
    ea.resize(na);
    occs_a.resize(na);
    for (std::size_t ia = 0; ia < na; ++ia) {
      ea[ia] = string_energy(space.alpha().mask(blk.halpha, ia), occ);
      occs_a[ia] = occ;
    }
    // vb(p, ib) = v_beta(p) of beta string ib, orbital-major so the cross
    // term streams over the block's beta strings.
    eb.resize(nb);
    vb.assign(norb * nb, 0.0);
    for (std::size_t ib = 0; ib < nb; ++ib) {
      eb[ib] = string_energy(space.beta().mask(blk.hbeta, ib), occ);
      for (std::size_t p = 0; p < norb; ++p) {
        double v = 0.0;
        for (int q : occ) v += coulomb[p * norb + static_cast<std::size_t>(q)];
        vb[p * nb + ib] = v;
      }
    }
    for (std::size_t ia = 0; ia < na; ++ia) {
      double* row = diag.data() + blk.offset + ia * nb;
      for (std::size_t ib = 0; ib < nb; ++ib) row[ib] = ea[ia] + eb[ib];
      for (int p : occs_a[ia]) {
        const double* v = vb.data() + static_cast<std::size_t>(p) * nb;
        for (std::size_t ib = 0; ib < nb; ++ib) row[ib] += v[ib];
      }
    }
  }
  return diag;
}

linalg::Matrix build_dense_hamiltonian(const CiSpace& space,
                                       const integrals::IntegralTables& ints,
                                       std::size_t max_dimension) {
  const std::size_t dim = space.dimension();
  XFCI_REQUIRE(dim <= max_dimension,
               "CI dimension too large for a dense Hamiltonian");
  linalg::Matrix hmat(dim, dim);
  std::vector<Determinant> dets(dim);
  for (std::size_t i = 0; i < dim; ++i) dets[i] = determinant_at(space, i);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = hamiltonian_element(ints, dets[i], dets[j]);
      hmat(i, j) = v;
      hmat(j, i) = v;
    }
  }
  return hmat;
}

}  // namespace xfci::fci
