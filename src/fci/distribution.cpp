#include "fci/distribution.hpp"

namespace xfci::fcp {
namespace {

// Split points of `na` columns over the alive ranks: the j-th surviving
// rank gets columns [na*j/A, na*(j+1)/A); dead ranks get empty ranges.
// With every rank alive this reduces to the even split of Fig. 1.
void build_splits(std::size_t na, const std::vector<std::uint8_t>& alive,
                  std::size_t num_alive, std::vector<std::size_t>& splits) {
  splits.resize(alive.size() + 1);
  splits[0] = 0;
  std::size_t j = 0;
  for (std::size_t r = 0; r < alive.size(); ++r) {
    if (alive[r] != 0) ++j;
    splits[r + 1] = na * j / num_alive;
  }
}

}  // namespace

ColumnDistribution::ColumnDistribution(const fci::CiSpace& space,
                                       std::size_t num_ranks)
    : space_(&space), num_ranks_(num_ranks) {
  XFCI_REQUIRE(num_ranks >= 1, "distribution needs at least one rank");
  redistribute(std::vector<std::uint8_t>(num_ranks, 1));
}

void ColumnDistribution::redistribute(
    const std::vector<std::uint8_t>& alive) {
  XFCI_REQUIRE(alive.size() == num_ranks_,
               "alive mask must have one entry per rank");
  std::size_t num_alive = 0;
  for (const auto a : alive) num_alive += (a != 0);
  XFCI_REQUIRE(num_alive >= 1, "redistribute needs a surviving rank");
  const auto& blocks = space_->blocks();
  begins_.resize(blocks.size());
  words_.assign(num_ranks_, 0);
  cols_.assign(num_ranks_, 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    build_splits(blocks[b].na, alive, num_alive, begins_[b]);
    for (std::size_t r = 0; r < num_ranks_; ++r) {
      const std::size_t ncols = begins_[b][r + 1] - begins_[b][r];
      cols_[r] += ncols;
      words_[r] += ncols * blocks[b].nb;
    }
  }
}

std::size_t ColumnDistribution::owner(std::size_t b, std::size_t col) const {
  const auto& splits = begins_.at(b);
  XFCI_ASSERT(col < splits.back(), "column out of range");
  // Start from the even-split inverse, then walk to the owning range; the
  // walk also handles the empty ranges a redistribution leaves on dead
  // ranks (splits stay monotone).
  std::size_t r = (splits.back() > 0)
                      ? col * num_ranks_ / splits.back()
                      : 0;
  while (col < splits[r]) --r;
  while (col >= splits[r + 1]) ++r;
  return r;
}

std::pair<std::size_t, std::size_t> ColumnDistribution::columns(
    std::size_t b, std::size_t r) const {
  const auto& splits = begins_.at(b);
  return {splits.at(r), splits.at(r + 1)};
}

}  // namespace xfci::fcp
