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
  const auto& group = space.group();
  const std::size_t nh = group.num_irreps();
  const IndexStreams& streams = ctx.alpha().create_streams;
  const auto& h = ctx.ints().h;
  const StringSpace& m1 = *ctx.alpha().m1;

  for (std::size_t hk = 0; hk < nh; ++hk) {
    for (std::size_t ik = 0; ik < m1.count(hk); ++ik) {
      // h_pq vanishes between different orbital irreps, so p and q come
      // from the same stream row and land in the same target irrep (view).
      for (std::size_t ho = 0; ho < nh; ++ho) {
        const ColumnView& vj = views[group.product(hk, ho)];
        if (vj.c == nullptr) continue;
        const auto& orbs = ctx.orbitals_of(ho);
        const auto row = streams.row(hk, ik, ho);
        for (const StreamEntry& eq : row) {
          const double* ccol = vj.c + eq.address * vj.ld;
          const std::size_t q = orbs[eq.column];
          for (const StreamEntry& ep : row) {
            if (ep.address < vj.write_begin || ep.address >= vj.write_end)
              continue;
            const double hpq = h(orbs[ep.column], q);
            if (hpq == 0.0) continue;
            double* scol = vj.sigma + ep.address * vj.ld;
            linalg::daxpy_n(vj.nrows, ep.sign * eq.sign * hpq, ccol, scol);
            stats.indexed_ops += static_cast<double>(vj.nrows);
          }
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
  const StringSpace& m2 = *ctx.alpha().m2;
  const IndexStreams& streams = ctx.alpha().pair_streams;

  linalg::Matrix d, e;
  for (std::size_t hk = 0; hk < nh; ++hk) {
    for (std::size_t ik = 0; ik < m2.count(hk); ++ik) {
      for (std::size_t hp = 0; hp < nh; ++hp) {
        const std::size_t npairs = ctx.ss_num_pairs(hp);
        if (npairs == 0) continue;
        const ColumnView& view = views[group.product(hk, hp)];
        if (view.c == nullptr) continue;
        const std::size_t nr = view.nrows;
        if (nr == 0) continue;
        const auto row = streams.row(hk, ik, hp);

        // Step 1 (Eq. 7): gather columns into D[(q>s), spectator rows].
        d.resize(npairs, nr);
        for (const StreamEntry& pc : row) {
          XFCI_DCHECK(pc.column < npairs,
                      "same-spin gather row outside the pair block");
          const double* ccol = view.c + pc.address * view.ld;
          double* drow = d.data() + pc.column * nr;
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
        for (const StreamEntry& pc : row) {
          XFCI_DCHECK(pc.column < npairs,
                      "same-spin scatter row outside the pair block");
          double* scol = view.sigma + pc.address * view.ld;
          linalg::daxpy_n(nr, pc.sign, e.data() + pc.column * nr, scol);
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
  const auto& alist = ctx.alpha().create->list(hk, ik);
  XFCI_ASSERT(ccols.size() == alist.size() && scols.size() == alist.size(),
              "mixed-spin column pointer count mismatch");
  const StringSpace& bm1 = *ctx.beta().m1;
  const IndexStreams& bstreams = ctx.beta().create_streams;

  thread_local linalg::Matrix d, e;
  for (std::size_t hkb = 0; hkb < nh; ++hkb) {
    const std::size_t nkb = bm1.count(hkb);
    if (nkb == 0) continue;
    const std::size_t hx =
        group.product(group.product(space.target_irrep(), hk), hkb);
    const std::size_t ncols = ctx.ab_num_cols(hx);
    if (ncols == 0) continue;
    // An alpha creation a+_q K' reaches the alpha irrep hk x irrep(q), so
    // the beta orbitals s it pairs with have irrep hx x irrep(q) =
    // (hx x hk) x (target irrep of the creation).
    const std::size_t hxk = group.product(hx, hk);

    // Step 1 (Eq. 4): build D[K'beta, (s,q)] from the gathered C columns.
    d.resize(nkb, ncols);
    bool any = false;
    for (std::size_t ai = 0; ai < alist.size(); ++ai) {
      const Creation& cq = alist[ai];
      const double* ccol = ccols[ai];
      if (ccol == nullptr) continue;
      const std::size_t colbase = ctx.ab_col_base(hx, cq.orbital);
      for (const StreamEntry& cs :
           bstreams.stream(hkb, group.product(hxk, cq.irrep))) {
        XFCI_DCHECK(colbase + cs.column < ncols,
                    "mixed-spin gather column outside the D block");
        d.data()[cs.row * ncols + colbase + cs.column] =
            cq.sign * cs.sign * ccol[cs.address];
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
    // sigma column buffers, in (K'beta row, table) order.
    for (std::size_t ai = 0; ai < alist.size(); ++ai) {
      const Creation& cp = alist[ai];
      double* scol = scols[ai];
      if (scol == nullptr) continue;
      const std::size_t colbase = ctx.ab_col_base(hx, cp.orbital);
      for (const StreamEntry& cr :
           bstreams.stream(hkb, group.product(hxk, cp.irrep))) {
        XFCI_DCHECK(colbase + cr.column < ncols,
                    "mixed-spin scatter column outside the E block");
        scol[cr.address] +=
            cp.sign * cr.sign * e.data()[cr.row * ncols + colbase + cr.column];
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
  space.transpose_vector(c, pc);
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
