#include "integrals/two_electron.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "integrals/md.hpp"

namespace xfci::integrals {
namespace {

using std::numbers::pi;

double double_factorial(int n) {
  double r = 1.0;
  for (int k = n; k > 1; k -= 2) r *= k;
  return r;
}

double component_norm(int l, const std::array<int, 3>& lmn) {
  return std::sqrt(double_factorial(2 * l - 1) /
                   (double_factorial(2 * lmn[0] - 1) *
                    double_factorial(2 * lmn[1] - 1) *
                    double_factorial(2 * lmn[2] - 1)));
}

// Computes the full Cartesian block of (ab|cd) for one shell quartet into
// `out`, dimensioned na*nb*nc*nd (a-major).
void shell_quartet(const Shell& sa, const Shell& sb, const Shell& sc,
                   const Shell& sd, std::vector<double>& out) {
  const std::size_t na = sa.num_components(), nb = sb.num_components();
  const std::size_t nc = sc.num_components(), nd = sd.num_components();
  out.assign(na * nb * nc * nd, 0.0);

  const int lab = sa.l + sb.l;
  const int lcd = sc.l + sd.l;

  for (const auto& p1 : sa.primitives) {
    for (const auto& p2 : sb.primitives) {
      const double p = p1.exponent + p2.exponent;
      HermiteE exab, eyab, ezab;
      exab.build(sa.l, sb.l, p1.exponent, p2.exponent,
                 sa.center[0] - sb.center[0]);
      eyab.build(sa.l, sb.l, p1.exponent, p2.exponent,
                 sa.center[1] - sb.center[1]);
      ezab.build(sa.l, sb.l, p1.exponent, p2.exponent,
                 sa.center[2] - sb.center[2]);
      std::array<double, 3> cp;
      for (int d = 0; d < 3; ++d)
        cp[d] = (p1.exponent * sa.center[d] + p2.exponent * sb.center[d]) / p;

      for (const auto& p3 : sc.primitives) {
        for (const auto& p4 : sd.primitives) {
          const double q = p3.exponent + p4.exponent;
          HermiteE excd, eycd, ezcd;
          excd.build(sc.l, sd.l, p3.exponent, p4.exponent,
                     sc.center[0] - sd.center[0]);
          eycd.build(sc.l, sd.l, p3.exponent, p4.exponent,
                     sc.center[1] - sd.center[1]);
          ezcd.build(sc.l, sd.l, p3.exponent, p4.exponent,
                     sc.center[2] - sd.center[2]);
          std::array<double, 3> cq;
          for (int d = 0; d < 3; ++d)
            cq[d] =
                (p3.exponent * sc.center[d] + p4.exponent * sd.center[d]) / q;

          const double alpha = p * q / (p + q);
          HermiteR r;
          r.build(lab + lcd, alpha,
                  {cp[0] - cq[0], cp[1] - cq[1], cp[2] - cq[2]});

          const double pref = 2.0 * std::pow(pi, 2.5) /
                              (p * q * std::sqrt(p + q)) * p1.coefficient *
                              p2.coefficient * p3.coefficient *
                              p4.coefficient;

          std::size_t idx = 0;
          for (std::size_t ca = 0; ca < na; ++ca) {
            const auto la = cartesian_component(sa.l, ca);
            for (std::size_t cb = 0; cb < nb; ++cb) {
              const auto lb = cartesian_component(sb.l, cb);
              for (std::size_t cc = 0; cc < nc; ++cc) {
                const auto lc = cartesian_component(sc.l, cc);
                for (std::size_t cd = 0; cd < nd; ++cd, ++idx) {
                  const auto ld = cartesian_component(sd.l, cd);
                  double sum = 0.0;
                  for (int t = 0; t <= la[0] + lb[0]; ++t) {
                    const double ext = exab(la[0], lb[0], t);
                    if (ext == 0.0) continue;
                    for (int u = 0; u <= la[1] + lb[1]; ++u) {
                      const double eyu = eyab(la[1], lb[1], u);
                      if (eyu == 0.0) continue;
                      for (int v = 0; v <= la[2] + lb[2]; ++v) {
                        const double ezv = ezab(la[2], lb[2], v);
                        if (ezv == 0.0) continue;
                        const double eab = ext * eyu * ezv;
                        for (int tt = 0; tt <= lc[0] + ld[0]; ++tt) {
                          const double ex2 = excd(lc[0], ld[0], tt);
                          if (ex2 == 0.0) continue;
                          for (int uu = 0; uu <= lc[1] + ld[1]; ++uu) {
                            const double ey2 = eycd(lc[1], ld[1], uu);
                            if (ey2 == 0.0) continue;
                            for (int vv = 0; vv <= lc[2] + ld[2]; ++vv) {
                              const double ez2 = ezcd(lc[2], ld[2], vv);
                              if (ez2 == 0.0) continue;
                              const double sgn =
                                  ((tt + uu + vv) % 2 == 0) ? 1.0 : -1.0;
                              sum += eab * ex2 * ey2 * ez2 * sgn *
                                     r(t + tt, u + uu, v + vv);
                            }
                          }
                        }
                      }
                    }
                  }
                  out[idx] += pref * sum * component_norm(sa.l, la) *
                              component_norm(sb.l, lb) *
                              component_norm(sc.l, lc) *
                              component_norm(sd.l, ld);
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

EriTensor::EriTensor(std::size_t n) : n_(n) {
  const std::size_t npair = n * (n + 1) / 2;
  data_.assign(npair * (npair + 1) / 2, 0.0);
}

std::size_t EriTensor::packed_index(std::size_t p, std::size_t q,
                                    std::size_t r, std::size_t s) const {
  XFCI_ASSERT(p < n_ && q < n_ && r < n_ && s < n_,
              "eri index out of range");
  return pair_index(pair_index(p, q), pair_index(r, s));
}

std::vector<double> schwarz_factors(const BasisSet& basis) {
  const auto& shells = basis.shells();
  const std::size_t ns = shells.size();
  std::vector<double> qf(ns * ns, 0.0);
  std::vector<double> block;
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      shell_quartet(shells[i], shells[j], shells[i], shells[j], block);
      const std::size_t ni = shells[i].num_components();
      const std::size_t nj = shells[j].num_components();
      double qmax = 0.0;
      for (std::size_t a = 0; a < ni; ++a)
        for (std::size_t b = 0; b < nj; ++b) {
          const double diag = block[((a * nj + b) * ni + a) * nj + b];
          qmax = std::max(qmax, std::abs(diag));
        }
      qf[i * ns + j] = qf[j * ns + i] = std::sqrt(qmax);
    }
  }
  return qf;
}

EriTensor compute_eri(const BasisSet& basis, double screen_threshold) {
  EriTensor eri(basis.num_ao());
  const auto& shells = basis.shells();
  const std::size_t ns = shells.size();
  const auto qf = schwarz_factors(basis);

  std::vector<double> block;
  for (std::size_t si = 0; si < ns; ++si) {
    for (std::size_t sj = 0; sj <= si; ++sj) {
      const std::size_t ij = si * (si + 1) / 2 + sj;
      for (std::size_t sk = 0; sk <= si; ++sk) {
        for (std::size_t sl = 0; sl <= sk; ++sl) {
          const std::size_t kl = sk * (sk + 1) / 2 + sl;
          if (kl > ij) continue;
          if (qf[si * ns + sj] * qf[sk * ns + sl] < screen_threshold)
            continue;
          shell_quartet(shells[si], shells[sj], shells[sk], shells[sl],
                        block);
          const std::size_t nb = shells[sj].num_components();
          const std::size_t ncc = shells[sk].num_components();
          const std::size_t nd = shells[sl].num_components();
          std::size_t idx = 0;
          for (std::size_t a = 0; a < shells[si].num_components(); ++a)
            for (std::size_t b = 0; b < nb; ++b)
              for (std::size_t c = 0; c < ncc; ++c)
                for (std::size_t d = 0; d < nd; ++d, ++idx)
                  eri.set(shells[si].ao_offset + a, shells[sj].ao_offset + b,
                          shells[sk].ao_offset + c, shells[sl].ao_offset + d,
                          block[idx]);
        }
      }
    }
  }
  return eri;
}

}  // namespace xfci::integrals
