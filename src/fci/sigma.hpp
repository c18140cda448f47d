#pragma once
// Sigma kernels: the matrix-vector product sigma = H * C evaluated
// without ever forming H.
//
// Two families are provided, mirroring the paper's comparison:
//  * DGEMM (sigma_dgemm.cpp) - the paper's contribution: the sparse
//    product is reorganized into dense matrix-matrix multiplications
//    through (N-1)- and (N-2)-electron intermediate string spaces
//    (Eqs. 4-9).
//  * MOC (sigma_moc.cpp) - the classical "minimum operation count"
//    baseline: excitation lists driving indexed multiply-add updates.
//
// One driver orchestrates both: fcp::ParallelSigma (parallel_sigma.hpp),
// which fci::make_sigma returns for either algorithm.  Both decompose H as
//   H = H1(alpha) + H1(beta) + Hss(alpha) + Hss(beta) + Hab
// with
//   Hss(s) = sum_{p>r, q>s} [(pq|rs) - (ps|rq)] a+p a+r a_s a_q   (spin s)
//   Hab    = sum_{pqrs} (pq|rs) E^alpha_pq E^beta_rs.

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fci/ci_space.hpp"
#include "fci/strings.hpp"
#include "integrals/tables.hpp"
#include "linalg/matrix.hpp"

namespace xfci::fci {

/// Counters describing the work of one sigma application; the X1 cost model
/// and the Table-1 benchmark consume these.
struct SigmaStats {
  double dgemm_flops = 0.0;      ///< flops spent in dense DGEMMs
  double indexed_ops = 0.0;      ///< indexed multiply-add operations
  double gather_words = 0.0;     ///< words gathered from C columns
  double scatter_words = 0.0;    ///< words accumulated into sigma columns
  double element_count = 0.0;    ///< Hamiltonian elements generated (MOC)
  /// Shapes (m, n, k) of every DGEMM issued since the last reset; the X1
  /// cost model charges by shape (small/skinny multiplies starve the
  /// vector pipes).
  std::vector<std::array<std::size_t, 3>> dgemm_shapes;
  void reset() { *this = SigmaStats{}; }
  /// Adds `o`'s counters and appends its shapes (the sigma driver folds
  /// per-rank and per-task counters in a fixed order).
  SigmaStats& operator+=(const SigmaStats& o) {
    dgemm_flops += o.dgemm_flops;
    indexed_ops += o.indexed_ops;
    gather_words += o.gather_words;
    scatter_words += o.scatter_words;
    element_count += o.element_count;
    dgemm_shapes.insert(dgemm_shapes.end(), o.dgemm_shapes.begin(),
                        o.dgemm_shapes.end());
    return *this;
  }
};

/// One coupling of a creation or pair-creation table, recoded for the DGEMM
/// kernels: string `row` of an intermediate irrep block couples, through
/// the orbital (or pair) at position `column` of its irrep block, to the
/// N-electron string `address` with the given sign.
struct StreamEntry {
  std::uint32_t row;      ///< index of K' within its irrep
  std::uint32_t address;  ///< local index of the N-electron target
  std::uint16_t column;   ///< position of the orbital (pair) within its irrep
  std::int16_t sign;      ///< +1 or -1
};

/// A creation or pair-creation table partitioned by the irrep of what it
/// creates (the orbital irrep, or the pair irrep): the entries of
/// (K' irrep hk, created irrep h) form one stream, ordered by K' row and,
/// within a row, by table order.  The sigma kernels loop over a whole
/// stream or over one row's sub-range, with no symmetry test.
class IndexStreams {
 public:
  IndexStreams() = default;
  /// Partitions `table`, which couples the strings of `from` to those of
  /// `to`; `classify(item)` returns {created irrep, column, width of that
  /// irrep's block}.  Each entry is validated here: column < width and
  /// address < the row count of its target irrep.  Defined in
  /// sigma_context.cpp, which builds every IndexStreams.
  template <class Table, class Classify>
  IndexStreams(const Table& table, const StringSpace& from,
               const StringSpace& to, Classify classify);

  /// Every entry of (hk, h).
  std::span<const StreamEntry> stream(std::size_t hk, std::size_t h) const {
    const std::size_t s = slot(hk, h, 0);
    return span(s, s + count_[hk]);
  }
  /// The entries of (hk, h) whose row is ik.
  std::span<const StreamEntry> row(std::size_t hk, std::size_t ik,
                                   std::size_t h) const {
    const std::size_t s = slot(hk, h, ik);
    return span(s, s + 1);
  }
  std::size_t size() const { return entries_.size(); }
  std::size_t bytes() const;

 private:
  std::size_t slot(std::size_t hk, std::size_t h, std::size_t ik) const {
    return slot_base_[hk] + h * count_[hk] + ik;
  }
  std::span<const StreamEntry> span(std::size_t s, std::size_t e) const {
    return {entries_.data() + starts_[s], starts_[e] - starts_[s]};
  }

  std::vector<std::size_t> count_;      // per K' irrep: number of strings
  std::vector<std::size_t> slot_base_;  // per K' irrep: slot of (hk, 0, 0)
  std::vector<std::size_t> starts_;     // per (hk, h, ik) slot, + 1 end
  std::vector<StreamEntry> entries_;
};

/// The string tables of one spin over its N-electron strings: the
/// (N-1)- and (N-2)-electron intermediate string spaces, the creation and
/// pair-creation tables into the N-electron strings, and their index
/// streams.  They depend only on the electron count, so a context holds
/// one set per distinct count and both orientations share them.  With
/// fewer than one (m1, create) or two (m2, pair) electrons the tables are
/// null and their streams empty.
struct SpinTables {
  std::unique_ptr<const StringSpace> m1, m2;
  std::unique_ptr<const CreationTable> create;
  std::unique_ptr<const PairCreationTable> pair;
  /// `create` partitioned by orbital irrep; the column is the orbital's
  /// position within orbitals_of (one-electron phase; mixed-spin D build
  /// and E scatter on the beta side).
  IndexStreams create_streams;
  /// `pair` partitioned by pair irrep; the column is ss_pair_position
  /// (same-spin phase).
  IndexStreams pair_streams;

  std::size_t bytes() const;
};

/// Shared precomputed data for the sigma routines over one CI space and
/// its transpose: the orbital lists and symmetry-blocked integral matrices
/// used as DGEMM operands, built once, and one SpinTables per distinct
/// electron count.  The transposed context, built with this one, shares
/// all of them with the alpha and beta tables swapped.  Non-copyable and
/// non-movable: the two orientations point at each other.
class SigmaContext {
 public:
  SigmaContext(const CiSpace& space, const integrals::IntegralTables& ints);
  SigmaContext(const SigmaContext&) = delete;
  SigmaContext& operator=(const SigmaContext&) = delete;

  const CiSpace& space() const { return space_; }
  const integrals::IntegralTables& ints() const { return ints_; }

  // --- orbital symmetry helpers -------------------------------------------
  std::size_t orbital_irrep(std::size_t p) const {
    return space_.orbital_irreps()[p];
  }
  /// Orbitals of irrep h (ascending).
  const std::vector<std::uint16_t>& orbitals_of(std::size_t h) const {
    return ops_->orbs_of_irrep[h];
  }

  // --- mixed-spin (alpha-beta) DGEMM operands ------------------------------
  // For each "cross irrep" hX the column list enumerates pairs (s, q) with
  // irrep(s) = hX x irrep(q), q-major; INT_hX[(s,q), (r,p)] = (pq|rs).
  std::size_t ab_num_cols(std::size_t hx) const { return ops_->ab_cols[hx]; }
  /// Column base of orbital q within the hX list.
  std::size_t ab_col_base(std::size_t hx, std::size_t q) const {
    return ops_->ab_col_base[hx * space_.norb() + q];
  }
  const linalg::Matrix& ab_integrals(std::size_t hx) const {
    return ops_->ab_int[hx];
  }

  // --- same-spin DGEMM operands --------------------------------------------
  // Ordered pairs (hi > lo) grouped by pair irrep hP;
  // G_hP[(p,r),(q,s)] = (pq|rs) - (ps|rq).
  std::size_t ss_num_pairs(std::size_t hp) const {
    return ops_->ss_pairs[hp].size();
  }
  /// Index of the pair (hi, lo) within its irrep block.
  std::size_t ss_pair_position(std::size_t hi, std::size_t lo) const {
    return ops_->ss_pair_pos[hi * space_.norb() + lo];
  }
  const linalg::Matrix& ss_integrals(std::size_t hp) const {
    return ops_->ss_g[hp];
  }

  // --- string tables --------------------------------------------------------
  // Over the space's alpha and beta strings; the same object when
  // nalpha == nbeta.  The column-oriented routines use alpha(); the
  // mixed-spin core reads beta() as well.
  const SpinTables& alpha() const { return *alpha_; }
  const SpinTables& beta() const { return *beta_; }

  /// Bytes held by both orientations: the operands once and each distinct
  /// SpinTables once.
  std::size_t bytes() const;

  /// Context over the transposed space (alpha/beta swapped).
  /// transposed().transposed() is this context.
  const SigmaContext& transposed() const { return *transposed_; }

 private:
  /// The orientation-independent operands.
  struct Operands {
    Operands(const CiSpace& space, const integrals::IntegralTables& ints);
    std::size_t bytes() const;

    std::vector<std::vector<std::uint16_t>> orbs_of_irrep;
    std::vector<std::size_t> orb_pos;

    std::vector<std::size_t> ab_cols;
    std::vector<std::size_t> ab_col_base;
    std::vector<linalg::Matrix> ab_int;

    struct Pair {
      std::uint16_t hi, lo;
    };
    std::vector<std::vector<Pair>> ss_pairs;
    std::vector<std::size_t> ss_pair_pos;
    std::vector<linalg::Matrix> ss_g;
  };

  /// The transposed partner of `partner`, sharing all of its tables.
  explicit SigmaContext(const SigmaContext* partner);
  /// The tables of one spin whose N-electron strings are `full`.
  std::shared_ptr<const SpinTables> build_spin_tables(
      const StringSpace& full) const;

  const CiSpace& space_;
  const integrals::IntegralTables& ints_;
  std::shared_ptr<const Operands> ops_;
  std::shared_ptr<const SpinTables> alpha_;
  std::shared_ptr<const SpinTables> beta_;  // == alpha_ when nalpha == nbeta
  std::unique_ptr<const SigmaContext> owned_transposed_;  // null in partner
  const SigmaContext* transposed_ = nullptr;
};

/// Abstract sigma = H c (core energy excluded).
class SigmaOperator {
 public:
  virtual ~SigmaOperator() = default;

  /// sigma = H c; both vectors are flat blocked CI vectors of
  /// space().dimension() elements.  sigma is overwritten.
  virtual void apply(std::span<const double> c, std::span<double> sigma) = 0;

  virtual const CiSpace& space() const = 0;

  /// Work counters accumulated since the last reset.
  const SigmaStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 protected:
  SigmaStats stats_;
};

/// Transpose parity of a CI vector when nalpha == nbeta: +1 if P c = +c,
/// -1 if P c = -c, 0 if neither (P exchanges the alpha and beta string
/// indices).  Tolerance is relative to |c|.
int transpose_parity(const CiSpace& space, std::span<const double> c,
                     double tol = 1e-8);

/// Dense reference sigma built from the explicit Hamiltonian (tiny spaces).
class SigmaDense : public SigmaOperator {
 public:
  SigmaDense(const CiSpace& space, const integrals::IntegralTables& ints,
             std::size_t max_dimension = 20000);
  void apply(std::span<const double> c, std::span<double> sigma) override;
  const CiSpace& space() const override { return space_; }

 private:
  const CiSpace& space_;
  linalg::Matrix h_;
};

// --- kernels of the sigma driver (parallel_sigma.hpp) ----------------------

/// A view of the CI block whose columns are the strings of irrep h (one
/// entry per irrep): column j holds nrows entries at c + j*ld.  The driver
/// passes locally transposed blocks whose rows are the rank's share of the
/// spectator index (paper Fig. 2a), or a row range of the blocks in place
/// (ld = the block's full row count).
struct ColumnView {
  const double* c = nullptr;  ///< input block (null if the block is absent)
  double* sigma = nullptr;    ///< output block
  std::size_t nrows = 0;
  std::size_t ld = 0;  ///< distance between columns, >= nrows
  /// Writable column range (alpha addresses); the MOC kernels honour this
  /// so the replicated parallel variant can read every column of a
  /// replicated C while updating only the rank's own sigma columns.
  std::size_t write_begin = 0;
  std::size_t write_end = static_cast<std::size_t>(-1);
};

/// Column-oriented one-electron sigma over views: excitations act on the
/// column string index of ctx.space().alpha().  sigma += H1(column) c.
void sigma_one_electron_columns(const SigmaContext& ctx,
                                std::span<const ColumnView> views,
                                SigmaStats& stats);

/// Column-oriented same-spin sigma over views (Eqs. 7-9).
void sigma_same_spin_columns(const SigmaContext& ctx,
                             std::span<const ColumnView> views,
                             SigmaStats& stats);

/// Mixed-spin sigma core (Eqs. 4-6) for one alpha (N-1)-string task
/// K' = (irrep hk, index ik).  `ccols` and `scols` hold one pointer per
/// entry of alpha().create->list(hk, ik): the gathered C column for that
/// orbital and the local accumulation buffer for the sigma column (null
/// when the corresponding block is absent).  Column lengths are the beta
/// row counts of the target blocks.  The caller owns gathering/accumulating
/// (one-sided DDI gather/accumulate in the sigma driver).
void sigma_mixed_spin_core(const SigmaContext& ctx, std::size_t hk,
                           std::size_t ik,
                           std::span<const double* const> ccols,
                           std::span<double* const> scols, SigmaStats& stats);

/// MOC variants of the same decomposition (same operator, indexed kernels).
void moc_same_spin_columns(const SigmaContext& ctx,
                           std::span<const ColumnView> views,
                           SigmaStats& stats);

/// MOC mixed-spin sigma (Table 1's indexed multiply-add kernel) into the
/// alpha columns [col_begin, col_end) of block `b` of the flat vectors:
/// for every alpha single excitation J_a -> I_a and every beta single
/// excitation J_b -> I_b,
///   sigma(I_b, I_a) += (pq|rs) * signs * C(J_b, J_a).
/// `gather(block, column)` runs once per alpha excitation, before source
/// column J_a is read (the parallel driver charges the remote get there).
/// gather_words books nalpha * nb words per target column -- each C column
/// read once per (N-1)-string it contains -- so over any column split the
/// total is nalpha * dimension.
void moc_mixed_spin_columns(
    const SigmaContext& ctx, std::size_t b, std::size_t col_begin,
    std::size_t col_end, std::span<const double> c, std::span<double> sigma,
    const std::function<void(std::size_t, std::size_t)>& gather,
    SigmaStats& stats);

}  // namespace xfci::fci
