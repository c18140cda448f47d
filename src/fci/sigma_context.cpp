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

SigmaContext::Operands::Operands(const CiSpace& space,
                                 const integrals::IntegralTables& ints) {
  const std::size_t n = space.norb();
  const auto& group = space.group();
  const std::size_t nh = group.num_irreps();
  const auto& oi = space.orbital_irreps();
  XFCI_REQUIRE(ints.norb == n, "integral tables orbital count mismatch");

  // Orbital lists per irrep.
  orbs_of_irrep.resize(nh);
  orb_pos.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t h = oi[p];
    orb_pos[p] = orbs_of_irrep[h].size();
    orbs_of_irrep[h].push_back(static_cast<std::uint16_t>(p));
  }

  // Mixed-spin column lists and integral blocks.  For cross irrep hX the
  // columns are (s, q) with irrep(s) = hX x irrep(q), q-major:
  //   INT_hX[(s,q), (r,p)] = (pq|rs).
  ab_cols.assign(nh, 0);
  ab_col_base.assign(nh * n, 0);
  ab_int.resize(nh);
  for (std::size_t hx = 0; hx < nh; ++hx) {
    std::size_t ncols = 0;
    for (std::size_t q = 0; q < n; ++q) {
      ab_col_base[hx * n + q] = ncols;
      ncols += orbs_of_irrep[group.product(hx, oi[q])].size();
    }
    ab_cols[hx] = ncols;
    linalg::Matrix m(ncols, ncols);
    for (std::size_t q = 0; q < n; ++q) {
      const auto& s_list = orbs_of_irrep[group.product(hx, oi[q])];
      for (std::size_t si = 0; si < s_list.size(); ++si) {
        const std::size_t row = ab_col_base[hx * n + q] + si;
        const std::size_t s = s_list[si];
        for (std::size_t p = 0; p < n; ++p) {
          const auto& r_list = orbs_of_irrep[group.product(hx, oi[p])];
          for (std::size_t ri = 0; ri < r_list.size(); ++ri) {
            const std::size_t col = ab_col_base[hx * n + p] + ri;
            const std::size_t r = r_list[ri];
            m(row, col) = ints.eri(p, q, r, s);
          }
        }
      }
    }
    ab_int[hx] = std::move(m);
  }

  // Same-spin pair lists and antisymmetrized integral blocks:
  //   G_hP[(p>r), (q>s)] = (pq|rs) - (ps|rq).
  ss_pairs.resize(nh);
  ss_pair_pos.assign(n * n, 0);
  for (std::size_t lo = 0; lo < n; ++lo) {
    for (std::size_t hi = lo + 1; hi < n; ++hi) {
      const std::size_t hp = group.product(oi[hi], oi[lo]);
      ss_pair_pos[hi * n + lo] = ss_pairs[hp].size();
      ss_pairs[hp].push_back(
          Pair{static_cast<std::uint16_t>(hi), static_cast<std::uint16_t>(lo)});
    }
  }
  ss_g.resize(nh);
  for (std::size_t hp = 0; hp < nh; ++hp) {
    const auto& pairs = ss_pairs[hp];
    linalg::Matrix g(pairs.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const std::size_t p = pairs[i].hi, r = pairs[i].lo;
      for (std::size_t j = 0; j < pairs.size(); ++j) {
        const std::size_t q = pairs[j].hi, s = pairs[j].lo;
        g(i, j) = ints.eri(p, q, r, s) - ints.eri(p, s, r, q);
      }
    }
    ss_g[hp] = std::move(g);
  }
}

std::size_t SigmaContext::Operands::bytes() const {
  std::size_t b = vector_bytes(orb_pos) + vector_bytes(ab_cols) +
                  vector_bytes(ab_col_base) + vector_bytes(ss_pair_pos);
  for (const auto& orbs : orbs_of_irrep) b += vector_bytes(orbs);
  for (const auto& pairs : ss_pairs) b += vector_bytes(pairs);
  for (const auto& m : ab_int) b += m.size() * sizeof(double);
  for (const auto& m : ss_g) b += m.size() * sizeof(double);
  return b;
}

std::size_t SpinTables::bytes() const {
  std::size_t b = create_streams.bytes() + pair_streams.bytes();
  for (const StringSpace* s : {m1.get(), m2.get()})
    if (s != nullptr) b += s->bytes();
  if (create) b += create->bytes();
  if (pair) b += pair->bytes();
  return b;
}

SigmaContext::SigmaContext(const CiSpace& space,
                           const integrals::IntegralTables& ints)
    : space_(space),
      ints_(ints),
      ops_(std::make_shared<const Operands>(space, ints)),
      alpha_(build_spin_tables(space.alpha())),
      beta_(&space.beta() == &space.alpha() ? alpha_
                                            : build_spin_tables(space.beta())) {
  owned_transposed_.reset(new SigmaContext(this));
  transposed_ = owned_transposed_.get();
}

SigmaContext::SigmaContext(const SigmaContext* partner)
    : space_(partner->space_.transposed()),
      ints_(partner->ints_),
      ops_(partner->ops_),
      alpha_(partner->beta_),
      beta_(partner->alpha_),
      transposed_(partner) {}

std::shared_ptr<const SpinTables> SigmaContext::build_spin_tables(
    const StringSpace& full) const {
  const std::size_t n = space_.norb();
  const std::size_t nelec = full.nelec();
  const auto& group = space_.group();
  const auto& oi = space_.orbital_irreps();
  auto t = std::make_shared<SpinTables>();

  // Intermediate string spaces and coupling tables.
  if (nelec >= 1) {
    t->m1 = std::make_unique<const StringSpace>(n, nelec - 1, group, oi);
    t->create = std::make_unique<const CreationTable>(*t->m1, full, oi);
  }
  if (nelec >= 2) {
    t->m2 = std::make_unique<const StringSpace>(n, nelec - 2, group, oi);
    t->pair = std::make_unique<const PairCreationTable>(*t->m2, full, oi);
  }

  // Index streams of the DGEMM kernels.
  struct Part {
    std::size_t irrep, column, width;
  };
  const auto by_orbital = [&](const Creation& c) {
    const std::size_t h = orbital_irrep(c.orbital);
    return Part{h, ops_->orb_pos[c.orbital], orbitals_of(h).size()};
  };
  const auto by_pair = [&](const PairCreation& c) {
    const std::size_t h =
        group.product(orbital_irrep(c.hi), orbital_irrep(c.lo));
    return Part{h, ss_pair_position(c.hi, c.lo), ss_num_pairs(h)};
  };
  if (t->create)
    t->create_streams = IndexStreams(*t->create, *t->m1, full, by_orbital);
  if (t->pair) t->pair_streams = IndexStreams(*t->pair, *t->m2, full, by_pair);
  return t;
}

std::size_t SigmaContext::bytes() const {
  std::size_t b = ops_->bytes() + alpha_->bytes();
  if (beta_ != alpha_) b += beta_->bytes();
  return b;
}

}  // namespace xfci::fci
