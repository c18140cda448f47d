#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace xfci::linalg {

EigenResult eigh(const Matrix& a_in) {
  XFCI_REQUIRE(a_in.rows() == a_in.cols(), "eigh requires a square matrix");
  const std::size_t n = a_in.rows();

  // Work on a symmetrized copy.  The sweeps index raw row-major storage
  // (every index is below n by construction) and keep the eigenvectors
  // transposed, vt(j, k) = V(k, j), so the eigenvector update of a
  // rotation streams over two contiguous rows.
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = 0.5 * (a_in(i, j) + a_in(j, i));
  Matrix vt = Matrix::identity(n);
  double* const ad = a.data();
  double* const vd = vt.data();

  const int max_sweeps = 100;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        off += ad[i * n + j] * ad[i * n + j];
    if (off < 1e-30 * std::max(1.0, a.frobenius_norm())) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = ad[p * n + q];
        if (std::abs(apq) < 1e-300) continue;
        const double theta = (ad[q * n + q] - ad[p * n + p]) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation to columns p and q, then to rows p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = ad[k * n + p];
          const double akq = ad[k * n + q];
          ad[k * n + p] = c * akp - s * akq;
          ad[k * n + q] = s * akp + c * akq;
        }
        double* const ap = ad + p * n;
        double* const aq = ad + q * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = ap[k];
          const double aqk = aq[k];
          ap[k] = c * apk - s * aqk;
          aq[k] = s * apk + c * aqk;
        }
        double* const vp = vd + p * n;
        double* const vq = vd + q * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = vp[k];
          const double vkq = vq[k];
          vp[k] = c * vkp - s * vkq;
          vq[k] = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort ascending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return a(i, i) < a(j, j); });

  EigenResult res;
  res.values.resize(n);
  res.vectors.resize(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    res.values[j] = a(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) res.vectors(i, j) = vt(order[j], i);
  }
  return res;
}

Gen2x2Result lowest_gen_eig_2x2(double h00, double h01, double h11, double s00,
                                double s01, double s11) {
  // Solve det(H - E S) = 0:
  //   (s00*s11 - s01^2) E^2 - (h00*s11 + h11*s00 - 2 h01*s01) E
  //   + (h00*h11 - h01^2) = 0
  const double a = s00 * s11 - s01 * s01;
  const double b = -(h00 * s11 + h11 * s00 - 2.0 * h01 * s01);
  const double c = h00 * h11 - h01 * h01;
  XFCI_REQUIRE(a > 0.0, "2x2 metric is not positive definite");
  const double disc = std::max(0.0, b * b - 4.0 * a * c);
  const double sq = std::sqrt(disc);
  // Lower root; use the numerically stable form.
  const double e =
      (b >= 0.0) ? (-b - sq) / (2.0 * a) : (2.0 * c) / (-b + sq);
  const double e_low = std::min(e, (-b - sq) / (2.0 * a));

  // Eigenvector of (H - E S) x = 0.  Pick the better-conditioned row.
  const double r0a = h00 - e_low * s00;
  const double r0b = h01 - e_low * s01;
  const double r1a = h01 - e_low * s01;
  const double r1b = h11 - e_low * s11;
  Gen2x2Result res;
  res.eigenvalue = e_low;
  if (std::abs(r0b) + std::abs(r0a) >= std::abs(r1b) + std::abs(r1a)) {
    // r0a * x0 + r0b * x1 = 0.
    if (std::abs(r0b) > 1e-300) {
      res.x0 = 1.0;
      res.x1 = -r0a / r0b;
    } else {
      res.x0 = 0.0;
      res.x1 = 1.0;
    }
  } else {
    if (std::abs(r1b) > 1e-300) {
      res.x0 = 1.0;
      res.x1 = -r1a / r1b;
    } else {
      res.x0 = 0.0;
      res.x1 = 1.0;
    }
  }
  return res;
}

}  // namespace xfci::linalg
