// Minimum-operation-count (MOC) sigma routines: the classical baseline the
// paper measures against (Table 1, Fig. 4).  Hamiltonian contributions are
// applied excitation-by-excitation with indexed multiply-add updates; no
// dense matrix multiplications are formed.

#include "fci/sigma.hpp"
#include "linalg/kernels.hpp"

namespace xfci::fci {

void moc_same_spin_columns(const SigmaContext& ctx,
                           std::span<const ColumnView> views,
                           SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  XFCI_REQUIRE(views.size() == space.group().num_irreps(),
               "MOC same-spin sigma: one view per irrep required");
  if (space.nalpha() < 2) return;
  const auto& group = space.group();
  const StringSpace& m2 = *ctx.alpha().m2;
  const auto& pair_table = *ctx.alpha().pair;

  // For each intermediate K, every (annihilated pair, created pair)
  // combination is one Hamiltonian element applied as a column AXPY:
  //   sigma(:, I) += sign * [(pq|rs) - (ps|rq)] * C(:, J).
  for (std::size_t hk = 0; hk < m2.num_irreps(); ++hk) {
    for (std::size_t ik = 0; ik < m2.count(hk); ++ik) {
      const auto& list = pair_table.list(hk, ik);
      for (const PairCreation& ann : list) {  // (q > s): J = K + q + s
        const ColumnView& view = views[ann.irrep];
        if (view.c == nullptr || view.nrows == 0) continue;
        const double* ccol = view.c + ann.address * view.ld;
        const std::size_t hp_ann =
            group.product(ctx.orbital_irrep(ann.hi), ctx.orbital_irrep(ann.lo));
        const linalg::Matrix& g = ctx.ss_integrals(hp_ann);
        const std::size_t col = ctx.ss_pair_position(ann.hi, ann.lo);
        XFCI_DCHECK(col < g.cols(),
                    "MOC annihilated pair outside the integral block");
        for (const PairCreation& cre : list) {  // (p > r): I = K + p + r
          if (cre.irrep != ann.irrep) continue;  // different row space
          XFCI_DCHECK(ctx.ss_pair_position(cre.hi, cre.lo) < g.rows(),
                      "MOC created pair outside the integral block");
          // Element generation happens regardless of who applies it -- the
          // replicated-work cost of the historical MOC parallelization.
          stats.element_count += 1.0;
          if (cre.address < view.write_begin || cre.address >= view.write_end)
            continue;
          const double val =
              g(ctx.ss_pair_position(cre.hi, cre.lo), col) * ann.sign *
              cre.sign;
          if (val == 0.0) continue;
          double* scol = view.sigma + cre.address * view.ld;
          linalg::daxpy_n(view.nrows, val, ccol, scol);
          stats.indexed_ops += static_cast<double>(view.nrows);
        }
      }
    }
  }
}

void moc_mixed_spin_columns(
    const SigmaContext& ctx, std::size_t b, std::size_t col_begin,
    std::size_t col_end, std::span<const double> c, std::span<double> sigma,
    const std::function<void(std::size_t, std::size_t)>& gather,
    SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  XFCI_REQUIRE(c.size() == space.dimension() && sigma.size() == c.size(),
               "MOC mixed-spin sigma: c/sigma size must equal the CI "
               "dimension");
  XFCI_REQUIRE(b < space.blocks().size() &&
                   col_end <= space.blocks()[b].na && col_begin <= col_end,
               "MOC mixed-spin sigma: column range outside the block");
  if (space.nalpha() < 1 || space.nbeta() < 1) return;
  const StringSpace& sa = space.alpha();
  const StringSpace& bm1 = *ctx.beta().m1;
  const auto& btable = *ctx.beta().create;
  const auto& eri = ctx.ints().eri;
  const std::size_t n = space.norb();
  const CiBlock& blk = space.blocks()[b];

  for (std::size_t col = col_begin; col < col_end; ++col) {
    const StringMask ia = sa.mask(blk.halpha, col);
    double* scol = sigma.data() + blk.offset + col * blk.nb;
    stats.gather_words +=
        static_cast<double>(space.nalpha()) * static_cast<double>(blk.nb);
    // Enumerate E_pq with p occupied in I_a.
    StringMask occ = ia;
    while (occ) {
      const int p = __builtin_ctzll(occ);
      occ &= occ - 1;
      const int s1 = annihilate_sign(ia, p);
      const StringMask mid = ia & ~(StringMask{1} << p);
      for (std::size_t q = 0; q < n; ++q) {
        if (mid & (StringMask{1} << q)) continue;
        const int s2 = create_sign(mid, static_cast<int>(q));
        const StringMask ja = mid | (StringMask{1} << q);
        const std::size_t bj = space.block_index_for_alpha(sa.irrep_of(ja));
        if (bj == CiSpace::kNone) continue;
        const CiBlock& blkj = space.blocks()[bj];
        const std::size_t colj = sa.address(ja);
        gather(bj, colj);
        const double* ccol = c.data() + blkj.offset + colj * blkj.nb;
        const double sa_sign = s1 * s2;
        // Beta part: sigma(I_b) += (pq|rs) * signs * C(J_b).
        for (std::size_t hkb = 0; hkb < bm1.num_irreps(); ++hkb) {
          for (std::size_t ikb = 0; ikb < bm1.count(hkb); ++ikb) {
            const auto& blist = btable.list(hkb, ikb);
            for (const Creation& cs : blist) {
              if (cs.irrep != blkj.hbeta) continue;
              XFCI_DCHECK(cs.address < blkj.nb,
                          "MOC gather row outside the source block");
              const double cj = ccol[cs.address];
              if (cj == 0.0) continue;
              for (const Creation& cr : blist) {
                if (cr.irrep != blk.hbeta) continue;
                XFCI_DCHECK(cr.address < blk.nb,
                            "MOC scatter row outside the target block");
                scol[cr.address] += sa_sign * cr.sign * cs.sign *
                                    eri(static_cast<std::size_t>(p), q,
                                        cr.orbital, cs.orbital) *
                                    cj;
                stats.indexed_ops += 1.0;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace xfci::fci
