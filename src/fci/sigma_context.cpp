#include "fci/sigma.hpp"

#include <limits>

namespace xfci::fci {

template <class Table, class Classify>
IndexStreams::IndexStreams(const Table& table, const StringSpace& from,
                           const StringSpace& to, Classify classify) {
  const std::size_t nh = from.num_irreps();
  count_.resize(nh);
  slot_base_.resize(nh);
  std::size_t slots = 0;
  for (std::size_t hk = 0; hk < nh; ++hk) {
    count_[hk] = from.count(hk);
    slot_base_[hk] = slots;
    slots += nh * count_[hk];
  }
  // A stable counting sort of the table items into their (hk, h, ik)
  // slots: count, prefix-sum, then place in table order.
  starts_.assign(slots + 1, 0);
  for (std::size_t hk = 0; hk < nh; ++hk)
    for (std::size_t ik = 0; ik < count_[hk]; ++ik)
      for (const auto& item : table.list(hk, ik))
        ++starts_[slot(hk, classify(item).irrep, ik) + 1];
  for (std::size_t s = 0; s < slots; ++s) starts_[s + 1] += starts_[s];
  entries_.resize(starts_[slots]);
  std::vector<std::size_t> next(starts_.begin(), starts_.end() - 1);
  for (std::size_t hk = 0; hk < nh; ++hk) {
    for (std::size_t ik = 0; ik < count_[hk]; ++ik) {
      for (const auto& item : table.list(hk, ik)) {
        const auto [part, column, width] = classify(item);
        XFCI_ASSERT(column < width &&
                        width <= std::numeric_limits<std::uint16_t>::max(),
                    "index stream column outside its irrep block");
        XFCI_ASSERT(item.address < to.count(item.irrep),
                    "index stream address outside its target block");
        entries_[next[slot(hk, part, ik)]++] = StreamEntry{
            static_cast<std::uint32_t>(ik), item.address,
            static_cast<std::uint16_t>(column),
            static_cast<std::int16_t>(item.sign)};
      }
    }
  }
}

std::size_t IndexStreams::bytes() const {
  return vector_bytes(count_) + vector_bytes(slot_base_) +
         vector_bytes(starts_) + vector_bytes(entries_);
}

SigmaContext::SigmaContext(const CiSpace& space,
                           const integrals::IntegralTables& ints)
    : space_(space), ints_(ints) {
  const std::size_t n = space.norb();
  const auto& group = space.group();
  const std::size_t nh = group.num_irreps();
  XFCI_REQUIRE(ints.norb == n, "integral tables orbital count mismatch");

  // Orbital lists per irrep.
  orbs_of_irrep_.resize(nh);
  orb_pos_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t h = orbital_irrep(p);
    orb_pos_[p] = orbs_of_irrep_[h].size();
    orbs_of_irrep_[h].push_back(static_cast<std::uint16_t>(p));
  }

  // Mixed-spin column lists and integral blocks.  For cross irrep hX the
  // columns are (s, q) with irrep(s) = hX x irrep(q), q-major:
  //   INT_hX[(s,q), (r,p)] = (pq|rs).
  ab_cols_.assign(nh, 0);
  ab_col_base_.assign(nh * n, 0);
  ab_int_.resize(nh);
  for (std::size_t hx = 0; hx < nh; ++hx) {
    std::size_t ncols = 0;
    for (std::size_t q = 0; q < n; ++q) {
      ab_col_base_[hx * n + q] = ncols;
      ncols += orbs_of_irrep_[group.product(hx, orbital_irrep(q))].size();
    }
    ab_cols_[hx] = ncols;
    linalg::Matrix m(ncols, ncols);
    for (std::size_t q = 0; q < n; ++q) {
      const auto& s_list = orbs_of_irrep_[group.product(hx, orbital_irrep(q))];
      for (std::size_t si = 0; si < s_list.size(); ++si) {
        const std::size_t row = ab_col_base_[hx * n + q] + si;
        const std::size_t s = s_list[si];
        for (std::size_t p = 0; p < n; ++p) {
          const auto& r_list =
              orbs_of_irrep_[group.product(hx, orbital_irrep(p))];
          for (std::size_t ri = 0; ri < r_list.size(); ++ri) {
            const std::size_t col = ab_col_base_[hx * n + p] + ri;
            const std::size_t r = r_list[ri];
            m(row, col) = ints.eri(p, q, r, s);
          }
        }
      }
    }
    ab_int_[hx] = std::move(m);
  }

  // Same-spin pair lists and antisymmetrized integral blocks:
  //   G_hP[(p>r), (q>s)] = (pq|rs) - (ps|rq).
  ss_pairs_.resize(nh);
  ss_pair_pos_.assign(n * n, 0);
  for (std::size_t lo = 0; lo < n; ++lo) {
    for (std::size_t hi = lo + 1; hi < n; ++hi) {
      const std::size_t hp =
          group.product(orbital_irrep(hi), orbital_irrep(lo));
      ss_pair_pos_[hi * n + lo] = ss_pairs_[hp].size();
      ss_pairs_[hp].push_back(
          Pair{static_cast<std::uint16_t>(hi), static_cast<std::uint16_t>(lo)});
    }
  }
  ss_g_.resize(nh);
  for (std::size_t hp = 0; hp < nh; ++hp) {
    const auto& pairs = ss_pairs_[hp];
    linalg::Matrix g(pairs.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const std::size_t p = pairs[i].hi, r = pairs[i].lo;
      for (std::size_t j = 0; j < pairs.size(); ++j) {
        const std::size_t q = pairs[j].hi, s = pairs[j].lo;
        g(i, j) = ints.eri(p, q, r, s) - ints.eri(p, s, r, q);
      }
    }
    ss_g_[hp] = std::move(g);
  }

  // Intermediate string spaces and coupling tables.
  const auto& oi = space.orbital_irreps();
  if (space.nalpha() >= 1) {
    alpha_m1_ = std::make_unique<StringSpace>(n, space.nalpha() - 1, group, oi);
    alpha_create_ =
        std::make_unique<CreationTable>(*alpha_m1_, space.alpha(), oi);
  }
  if (space.nbeta() >= 1) {
    beta_m1_ = std::make_unique<StringSpace>(n, space.nbeta() - 1, group, oi);
    beta_create_ = std::make_unique<CreationTable>(*beta_m1_, space.beta(), oi);
  }
  if (space.nalpha() >= 2) {
    alpha_m2_ = std::make_unique<StringSpace>(n, space.nalpha() - 2, group, oi);
    alpha_pair_ =
        std::make_unique<PairCreationTable>(*alpha_m2_, space.alpha(), oi);
  }

  // Index streams of the DGEMM kernels.
  struct Part {
    std::size_t irrep, column, width;
  };
  const auto by_orbital = [&](const Creation& c) {
    const std::size_t h = orbital_irrep(c.orbital);
    return Part{h, orb_pos_[c.orbital], orbs_of_irrep_[h].size()};
  };
  const auto by_pair = [&](const PairCreation& c) {
    const std::size_t h =
        group.product(orbital_irrep(c.hi), orbital_irrep(c.lo));
    return Part{h, ss_pair_position(c.hi, c.lo), ss_pairs_[h].size()};
  };
  if (alpha_create_)
    alpha_streams_ =
        IndexStreams(*alpha_create_, *alpha_m1_, space.alpha(), by_orbital);
  if (beta_create_)
    beta_streams_ =
        IndexStreams(*beta_create_, *beta_m1_, space.beta(), by_orbital);
  if (alpha_pair_)
    pair_streams_ =
        IndexStreams(*alpha_pair_, *alpha_m2_, space.alpha(), by_pair);
}

std::size_t SigmaContext::bytes() const {
  std::size_t b = vector_bytes(orb_pos_) + vector_bytes(ab_cols_) +
                  vector_bytes(ab_col_base_) + vector_bytes(ss_pair_pos_);
  for (const auto& orbs : orbs_of_irrep_) b += vector_bytes(orbs);
  for (const auto& pairs : ss_pairs_) b += vector_bytes(pairs);
  for (const auto& m : ab_int_) b += m.size() * sizeof(double);
  for (const auto& m : ss_g_) b += m.size() * sizeof(double);
  for (const StringSpace* s : {alpha_m1(), beta_m1(), alpha_m2()})
    if (s != nullptr) b += s->bytes();
  for (const CreationTable* t : {alpha_create(), beta_create()})
    if (t != nullptr) b += t->bytes();
  if (alpha_pair_) b += alpha_pair_->bytes();
  return b + alpha_streams_.bytes() + beta_streams_.bytes() +
         pair_streams_.bytes();
}

const SigmaContext& SigmaContext::transposed() const {
  if (!transposed_) {
    transposed_ =
        std::unique_ptr<SigmaContext>(new SigmaContext(space_.transposed(),
                                                       ints_));
  }
  return *transposed_;
}

}  // namespace xfci::fci
