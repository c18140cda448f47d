#pragma once
// Two-electron repulsion integrals (chemists' notation) with 8-fold
// permutational symmetry storage and Cauchy-Schwarz screening.

#include <cstddef>
#include <vector>

#include "integrals/basis.hpp"

namespace xfci::integrals {

/// Packed storage of (pq|rs) exploiting the full 8-fold symmetry
///   (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq) = ...
/// of real orbitals.  Also used for the MO-basis integrals after the
/// four-index transformation.
class EriTensor {
 public:
  EriTensor() = default;
  explicit EriTensor(std::size_t n);

  std::size_t n() const { return n_; }
  std::size_t packed_size() const { return data_.size(); }

  double operator()(std::size_t p, std::size_t q, std::size_t r,
                    std::size_t s) const {
    return data_[packed_index(p, q, r, s)];
  }
  void set(std::size_t p, std::size_t q, std::size_t r, std::size_t s,
           double value) {
    data_[packed_index(p, q, r, s)] = value;
  }
  void add(std::size_t p, std::size_t q, std::size_t r, std::size_t s,
           double value) {
    data_[packed_index(p, q, r, s)] += value;
  }

  /// Canonical packed index of (pq|rs):
  /// pair_index(pair_index(p, q), pair_index(r, s)).
  std::size_t packed_index(std::size_t p, std::size_t q, std::size_t r,
                           std::size_t s) const;

  /// Index of the unordered pair {p, q} among the pairs of its range,
  /// lower-triangular row-major.  Applied to two orbital pairs it gives
  /// the packed (pq|rs) index.
  static std::size_t pair_index(std::size_t p, std::size_t q) {
    return p >= q ? p * (p + 1) / 2 + q : q * (q + 1) / 2 + p;
  }

  const std::vector<double>& raw() const { return data_; }
  std::vector<double>& raw() { return data_; }

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// Computes all AO-basis ERIs for the basis, screening shell quartets whose
/// Cauchy-Schwarz bound falls below `screen_threshold`.
EriTensor compute_eri(const BasisSet& basis, double screen_threshold = 1e-14);

/// Schwarz factors Q_ab = sqrt((ab|ab)) maximized over the components of
/// each shell pair; used by compute_eri and exposed for testing the
/// screening bound.
std::vector<double> schwarz_factors(const BasisSet& basis);

}  // namespace xfci::integrals
