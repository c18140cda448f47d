// DGEMM-based sigma routines (paper section 2.1, Eqs. 4-9).
//
// All three building blocks are column-oriented: excitations act on the
// column string index, so gathers and scatters touch contiguous columns.
// The same-spin / one-electron kernels run over ColumnViews so the sigma
// driver (parallel_sigma.hpp) can hand them locally transposed blocks
// (paper section 3.3: "In the same-spin routine the transposed local C and
// sigma coefficients matrices are used to facilitate the gather and
// scatter operations"); the mixed-spin core receives explicit per-column
// pointers so the driver can route them through one-sided DDI
// gather/accumulate.

#include <cmath>

#include "fci/sigma.hpp"
#include "fci/slater_condon.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernels.hpp"

namespace xfci::fci {

void sigma_one_electron_columns(const SigmaContext& ctx,
                                std::span<const ColumnView> views,
                                SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  XFCI_REQUIRE(views.size() == space.group().num_irreps(),
               "one-electron sigma: one view per irrep required");
  if (space.nalpha() == 0) return;
  const auto& table = *ctx.alpha_create();
  const auto& h = ctx.ints().h;
  const StringSpace& m1 = *ctx.alpha_m1();

  for (std::size_t hk = 0; hk < m1.num_irreps(); ++hk) {
    for (std::size_t ik = 0; ik < m1.count(hk); ++ik) {
      const auto& list = table.list(hk, ik);
      for (const Creation& cq : list) {
        const ColumnView& vj = views[cq.irrep];
        if (vj.c == nullptr) continue;
        const double* ccol = vj.c + cq.address * vj.ld;
        for (const Creation& cp : list) {
          // h_pq vanishes between different orbital irreps.
          if (ctx.orbital_irrep(cp.orbital) != ctx.orbital_irrep(cq.orbital))
            continue;
          if (cp.address < vj.write_begin || cp.address >= vj.write_end)
            continue;
          const double hpq = h(cp.orbital, cq.orbital);
          if (hpq == 0.0) continue;
          // Same target irrep, hence the same view.
          double* scol = vj.sigma + cp.address * vj.ld;
          linalg::daxpy_n(vj.nrows, cp.sign * cq.sign * hpq, ccol, scol);
          stats.indexed_ops += static_cast<double>(vj.nrows);
        }
      }
    }
  }
}

void sigma_same_spin_columns(const SigmaContext& ctx,
                             std::span<const ColumnView> views,
                             SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  XFCI_REQUIRE(views.size() == space.group().num_irreps(),
               "same-spin sigma: one view per irrep required");
  if (space.nalpha() < 2) return;
  const auto& group = space.group();
  const std::size_t nh = group.num_irreps();
  const StringSpace& m2 = *ctx.alpha_m2();
  const auto& pair_table = *ctx.alpha_pair();

  linalg::Matrix d, e;
  for (std::size_t hk = 0; hk < nh; ++hk) {
    for (std::size_t ik = 0; ik < m2.count(hk); ++ik) {
      const auto& list = pair_table.list(hk, ik);
      for (std::size_t hp = 0; hp < nh; ++hp) {
        const std::size_t npairs = ctx.ss_num_pairs(hp);
        if (npairs == 0) continue;
        const std::size_t hj = group.product(hk, hp);
        const ColumnView& view = views[hj];
        if (view.c == nullptr) continue;
        const std::size_t nr = view.nrows;
        if (nr == 0) continue;

        // Step 1 (Eq. 7): gather columns into D[(q>s), spectator rows].
        d.resize(npairs, nr);
        for (const PairCreation& pc : list) {
          if (pc.irrep != hj) continue;  // pair of a different irrep
          const std::size_t row = ctx.ss_pair_position(pc.hi, pc.lo);
          XFCI_DCHECK(row < npairs,
                      "same-spin gather row outside the pair block");
          const double* ccol = view.c + pc.address * view.ld;
          double* drow = d.data() + row * nr;
          for (std::size_t i = 0; i < nr; ++i) drow[i] = pc.sign * ccol[i];
          stats.gather_words += static_cast<double>(nr);
        }

        // Step 2 (Eq. 8): E = G * D, one dense DGEMM.
        e.resize(npairs, nr);
        const linalg::Matrix& g = ctx.ss_integrals(hp);
        linalg::gemm(false, false, npairs, nr, npairs, 1.0, g.data(), npairs,
                     d.data(), nr, 0.0, e.data(), nr);
        stats.dgemm_flops += linalg::gemm_flops(npairs, nr, npairs);
        stats.dgemm_shapes.push_back({npairs, nr, npairs});

        // Step 3 (Eq. 9): scatter-accumulate E rows into sigma columns.
        for (const PairCreation& pc : list) {
          if (pc.irrep != hj) continue;
          const std::size_t row = ctx.ss_pair_position(pc.hi, pc.lo);
          XFCI_DCHECK(row < npairs,
                      "same-spin scatter row outside the pair block");
          double* scol = view.sigma + pc.address * view.ld;
          linalg::daxpy_n(nr, pc.sign, e.data() + row * nr, scol);
          stats.scatter_words += static_cast<double>(nr);
        }
      }
    }
  }
}

void sigma_mixed_spin_core(const SigmaContext& ctx, std::size_t hk,
                           std::size_t ik,
                           std::span<const double* const> ccols,
                           std::span<double* const> scols,
                           SigmaStats& stats) {
  const CiSpace& space = ctx.space();
  const auto& group = space.group();
  const std::size_t nh = group.num_irreps();
  const auto& alist = ctx.alpha_create()->list(hk, ik);
  XFCI_ASSERT(ccols.size() == alist.size() && scols.size() == alist.size(),
              "mixed-spin column pointer count mismatch");
  const StringSpace& bm1 = *ctx.beta_m1();
  const auto& btable = *ctx.beta_create();

  thread_local linalg::Matrix d, e;
  for (std::size_t hkb = 0; hkb < nh; ++hkb) {
    const std::size_t nkb = bm1.count(hkb);
    if (nkb == 0) continue;
    const std::size_t hx =
        group.product(group.product(space.target_irrep(), hk), hkb);
    const std::size_t ncols = ctx.ab_num_cols(hx);
    if (ncols == 0) continue;

    // Step 1 (Eq. 4): build D[K'beta, (s,q)] from the gathered C columns.
    d.resize(nkb, ncols);
    bool any = false;
    for (std::size_t ai = 0; ai < alist.size(); ++ai) {
      const Creation& cq = alist[ai];
      const double* ccol = ccols[ai];
      if (ccol == nullptr) continue;
      const std::size_t colbase = ctx.ab_col_base(hx, cq.orbital);
      const std::size_t hs = group.product(hx, ctx.orbital_irrep(cq.orbital));
      for (std::size_t ikb = 0; ikb < nkb; ++ikb) {
        double* drow = d.data() + ikb * ncols;
        for (const Creation& cs : btable.list(hkb, ikb)) {
          if (ctx.orbital_irrep(cs.orbital) != hs) continue;
          XFCI_DCHECK(colbase + ctx.orbital_position(cs.orbital) < ncols,
                      "mixed-spin gather column outside the D block");
          drow[colbase + ctx.orbital_position(cs.orbital)] =
              cq.sign * cs.sign * ccol[cs.address];
        }
      }
      any = true;
    }
    if (!any) continue;

    // Step 2 (Eq. 5): E = D * INT, one dense DGEMM.
    e.resize(nkb, ncols);
    const linalg::Matrix& g = ctx.ab_integrals(hx);
    linalg::gemm(false, false, nkb, ncols, ncols, 1.0, d.data(), ncols,
                 g.data(), ncols, 0.0, e.data(), ncols);
    stats.dgemm_flops += linalg::gemm_flops(nkb, ncols, ncols);
    stats.dgemm_shapes.push_back({nkb, ncols, ncols});

    // Step 3 (Eq. 6): scatter E back through beta creations into the local
    // sigma column buffers.
    for (std::size_t ai = 0; ai < alist.size(); ++ai) {
      const Creation& cp = alist[ai];
      double* scol = scols[ai];
      if (scol == nullptr) continue;
      const std::size_t colbase = ctx.ab_col_base(hx, cp.orbital);
      const std::size_t hr = group.product(hx, ctx.orbital_irrep(cp.orbital));
      for (std::size_t ikb = 0; ikb < nkb; ++ikb) {
        const double* erow = e.data() + ikb * ncols;
        for (const Creation& cr : btable.list(hkb, ikb)) {
          if (ctx.orbital_irrep(cr.orbital) != hr) continue;
          XFCI_DCHECK(colbase + ctx.orbital_position(cr.orbital) < ncols,
                      "mixed-spin scatter column outside the E block");
          scol[cr.address] +=
              cp.sign * cr.sign *
              erow[colbase + ctx.orbital_position(cr.orbital)];
        }
      }
    }
  }
}

int transpose_parity(const CiSpace& space, std::span<const double> c,
                     double tol) {
  XFCI_REQUIRE(c.size() == space.dimension(),
               "transpose parity: c size must equal the CI dimension");
  if (space.nalpha() != space.nbeta()) return 0;
  std::vector<double> pc;
  space.transpose_vector(std::vector<double>(c.begin(), c.end()), pc);
  // With nalpha == nbeta the transposed space has the identical block
  // layout, so pc is a vector over the same index set.
  double cc = 0.0, cpc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    cc += c[i] * c[i];
    cpc += c[i] * pc[i];
  }
  if (cc <= 0.0) return 0;
  const double ratio = cpc / cc;
  // Iterates of a parity-pure solve accumulate small odd-sector noise
  // through the regularized preconditioner, so the elementwise check is
  // looser than the overlap check; callers purify the vector before using
  // the shortcut.
  const double elem_tol = std::max(tol, 1e-4) * std::sqrt(cc);
  if (std::abs(ratio - 1.0) < tol) {
    for (std::size_t i = 0; i < c.size(); ++i)
      if (std::abs(pc[i] - c[i]) > elem_tol) return 0;
    return 1;
  }
  if (std::abs(ratio + 1.0) < tol) {
    for (std::size_t i = 0; i < c.size(); ++i)
      if (std::abs(pc[i] + c[i]) > elem_tol) return 0;
    return -1;
  }
  return 0;
}

SigmaDense::SigmaDense(const CiSpace& space,
                       const integrals::IntegralTables& ints,
                       std::size_t max_dimension)
    : space_(space) {
  h_ = build_dense_hamiltonian(space, ints, max_dimension);
}

void SigmaDense::apply(std::span<const double> c, std::span<double> sigma) {
  XFCI_REQUIRE(c.size() == space_.dimension() && sigma.size() == c.size(),
               "dense sigma size mismatch");
  linalg::gemm(false, false, h_.rows(), 1, h_.cols(), 1.0, h_.data(),
               h_.cols(), c.data(), 1, 0.0, sigma.data(), 1);
  stats_.dgemm_flops += linalg::gemm_flops(h_.rows(), 1, h_.cols());
}

}  // namespace xfci::fci
