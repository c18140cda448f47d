#include "fci/phase_engines.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/metric_names.hpp"
#include "common/telemetry.hpp"
#include "fci/fci.hpp"
#include "parallel/task_pool.hpp"

namespace xfci::fcp {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Retransmissions allowed per one-sided op before the run aborts.
constexpr std::size_t kMaxOpRetries = 8;

// Transposed local copies of one rank's column range of every block:
// tc[b] is an (nb x width) matrix (column j = beta string j, rows = the
// rank's alpha columns); ts[b] is the matching sigma buffer.
struct TransposedLocal {
  std::vector<std::vector<double>> tc, ts;
  std::vector<fci::ColumnView> views;  // indexed by beta irrep
  std::size_t words = 0;
};

TransposedLocal build_beta_local(const fci::CiSpace& space,
                                 const ColumnDistribution& dist,
                                 std::size_t rank,
                                 std::span<const double> c) {
  const auto& blocks = space.blocks();
  TransposedLocal t;
  t.tc.resize(blocks.size());
  t.ts.resize(blocks.size());
  t.views.assign(space.group().num_irreps(), fci::ColumnView{});
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto [c0, c1] = dist.columns(b, rank);
    const std::size_t w = c1 - c0;
    if (w == 0) continue;
    const std::size_t nb = blocks[b].nb;
    auto& tc = t.tc[b];
    tc.resize(nb * w);
    const double* src = c.data() + blocks[b].offset + c0 * nb;
    for (std::size_t i = 0; i < w; ++i)
      for (std::size_t j = 0; j < nb; ++j) tc[j * w + i] = src[i * nb + j];
    t.ts[b].assign(nb * w, 0.0);
    t.views[blocks[b].hbeta] =
        fci::ColumnView{tc.data(), t.ts[b].data(), w, w};
    t.words += nb * w;
  }
  return t;
}

void writeback_beta_local(const fci::CiSpace& space,
                          const ColumnDistribution& dist, std::size_t rank,
                          const TransposedLocal& t, std::span<double> sigma) {
  const auto& blocks = space.blocks();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto [c0, c1] = dist.columns(b, rank);
    const std::size_t w = c1 - c0;
    if (w == 0 || t.ts[b].empty()) continue;
    const std::size_t nb = blocks[b].nb;
    double* dst = sigma.data() + blocks[b].offset + c0 * nb;
    const auto& ts = t.ts[b];
    for (std::size_t i = 0; i < w; ++i)
      for (std::size_t j = 0; j < nb; ++j) dst[i * nb + j] += ts[j * w + i];
  }
}

// One static kernel invocation's charges: DGEMM shapes, the gather/scatter
// word traffic, the indexed multiply-adds, and the MOC element generation.
// On a cost-modeling backend this advances the rank's clock; on a real
// backend only the (exact, integer-valued) flop counts register.
void charge_kernel_stats(const PhaseState& s, std::size_t rank,
                         const fci::SigmaStats& stats) {
  for (const auto& sh : stats.dgemm_shapes)
    s.ddi.charge_dgemm(rank, sh[0], sh[1], sh[2]);
  s.ddi.charge_indexed(rank, stats.gather_words + stats.scatter_words);
  s.ddi.charge_daxpy_flops(rank, 2.0 * stats.indexed_ops);
  s.ddi.charge_seconds(rank,
                       s.options.cost.moc_element * stats.element_count);
}

// Folds per-rank kernel counters into the operator's, in rank order.
void fold_rank_stats(const PhaseState& s,
                     const std::vector<fci::SigmaStats>& per_rank) {
  for (const fci::SigmaStats& st : per_rank) s.stats += st;
}

// Flat form of one mixed-spin item's SigmaStats, appended to its packed
// accumulate payload so the counters cross the process backend's address
// spaces with the sums: five counters, the shape count, then (m, n, k) per
// shape.  An item issues at most one DGEMM per beta irrep.
constexpr std::size_t kStatsHead = 6;

std::size_t pack_stats(const fci::SigmaStats& st, double* dst) {
  const double head[kStatsHead] = {
      st.dgemm_flops,   st.indexed_ops,   st.gather_words,
      st.scatter_words, st.element_count,
      static_cast<double>(st.dgemm_shapes.size())};
  double* p = std::copy(head, head + kStatsHead, dst);
  for (const auto& sh : st.dgemm_shapes)
    p = std::copy(sh.begin(), sh.end(), p);
  return static_cast<std::size_t>(p - dst);
}

fci::SigmaStats unpack_stats(const double* src, std::size_t words) {
  XFCI_ASSERT(words >= kStatsHead, "packed mixed-spin stats are truncated");
  const auto nshapes = static_cast<std::size_t>(src[kStatsHead - 1]);
  XFCI_ASSERT(words == kStatsHead + 3 * nshapes,
              "packed mixed-spin stats do not match their shape count");
  fci::SigmaStats st{src[0], src[1], src[2], src[3], src[4], {}};
  for (const double* sh = src + kStatsHead; sh < src + words; sh += 3)
    st.dgemm_shapes.push_back({static_cast<std::size_t>(sh[0]),
                               static_cast<std::size_t>(sh[1]),
                               static_cast<std::size_t>(sh[2])});
  return st;
}

// The attached tracer when it is actually recording, else nullptr so the
// emission sites below stay one predicted branch on untraced runs.
obs::Tracer* tracer_of(const PhaseState& s) {
  obs::Tracer* tr = s.ddi.tracer();
  return (tr != nullptr && tr->enabled()) ? tr : nullptr;
}

// Per-rank phase span on the rank's own clock domain; call at the end of
// a for_ranks body with the entry timestamp.
void rank_span(const PhaseState& s, const char* name, std::size_t r,
               double t0) {
  if (obs::Tracer* tr = tracer_of(s))
    tr->span(r, "phase", name, t0, s.ddi.now(r));
}

// Control-track phase span covering a barrier-to-barrier window (the same
// deltas that feed the Table-3 rows).
void control_span(const PhaseState& s, const char* name, double t0,
                  double t1, std::string args = {}) {
  if (obs::Tracer* tr = tracer_of(s))
    tr->span(tr->control_track(), "phase", name, t0, t1, std::move(args));
}

// Backend-agnostic failure-domain telemetry: every backend's recovery
// funnels through these two sites, so the counters live here rather than
// per backend (no series is double-counted).  Lazy registration is only
// reached while telemetry is enabled.
void note_retransmit() {
  obs::Registry& reg = obs::telemetry();
  if (!reg.enabled()) return;
  static obs::Counter retransmits =
      reg.counter(obs::metric::kDdiRetransmits);
  retransmits.inc();
}

void note_ranks_lost(std::size_t newly_dead) {
  obs::Registry& reg = obs::telemetry();
  if (!reg.enabled()) return;
  static obs::Counter lost = reg.counter(obs::metric::kDdiRanksLost);
  lost.inc(newly_dead);
}

}  // namespace

// ---------------------------------------------------------------------------
// RecoveryEngine
// ---------------------------------------------------------------------------

pv::OpOutcome RecoveryEngine::robust_one_sided(bool accumulate,
                                               std::size_t rank,
                                               std::size_t owner,
                                               double words) {
  for (std::size_t attempt = 0;; ++attempt) {
    if (!s_.ddi.alive(rank) || !s_.ddi.alive(owner))
      return pv::OpOutcome::kDropped;
    const pv::OpOutcome out = accumulate
                                  ? s_.ddi.acc(rank, owner, words)
                                  : s_.ddi.get(rank, owner, words);
    if (out == pv::OpOutcome::kDelivered) return out;
    // The drop is terminal if either end just died (op-count triggers fire
    // mid-op); otherwise it is transient: the requester waits out the ack
    // timeout and retransmits.  Dropped ops are lost before the target
    // applies their payload, so a retransmit lands exactly once.
    if (!s_.ddi.alive(rank) || !s_.ddi.alive(owner))
      return pv::OpOutcome::kDropped;
    XFCI_REQUIRE(attempt < kMaxOpRetries,
                 "one-sided op exceeded its retransmission budget");
    s_.ddi.charge_seconds(rank, s_.options.cost.ack_timeout);
    s_.breakdown.recovery += s_.options.cost.ack_timeout;
    s_.breakdown.ops_retried += 1;
    note_retransmit();
    if (obs::Tracer* tr = tracer_of(s_))
      tr->instant(rank, "recovery", "retransmit", s_.ddi.now(rank),
                  obs::trace_args({{"owner", static_cast<double>(owner)},
                                   {"words", words}}));
  }
}

void RecoveryEngine::maybe_redistribute() {
  // Loop: the recovery barriers below may declare further (time-triggered)
  // deaths, which then need their own redistribution pass.
  for (;;) {
    const std::vector<std::uint8_t> alive = s_.ddi.alive_mask();
    if (alive == s_.dist_alive) return;
    std::size_t newly_dead = 0;
    double lost_words = 0.0;
    for (std::size_t r = 0; r < alive.size(); ++r) {
      if (alive[r] == 0 && s_.dist_alive[r] != 0) {
        ++newly_dead;
        lost_words += static_cast<double>(s_.dist.local_words(r));
      }
    }
    const double t0 = s_.ddi.barrier();
    if (obs::Tracer* tr = tracer_of(s_)) {
      for (std::size_t r = 0; r < alive.size(); ++r)
        if (alive[r] == 0 && s_.dist_alive[r] != 0)
          tr->instant(tr->control_track(), "recovery", "rank_lost", t0,
                      obs::trace_args({{"rank", static_cast<double>(r)}}));
    }
    s_.dist.redistribute(alive);
    s_.dist_alive = alive;
    if (newly_dead > 0) {
      s_.breakdown.ranks_lost += newly_dead;
      note_ranks_lost(newly_dead);
      // Graceful degradation: each survivor refetches its share of the
      // dead ranks' coefficient blocks (from the lowest surviving rank,
      // which serves the recovery copy) and installs it locally.
      const std::size_t num_alive = s_.ddi.num_alive();
      const double share = lost_words / static_cast<double>(num_alive);
      std::size_t root = 0;
      while (root < alive.size() && alive[root] == 0) ++root;
      for (std::size_t r = 0; r < alive.size(); ++r) {
        if (alive[r] == 0) continue;
        robust_one_sided(false, r, root, share);
        s_.ddi.charge_indexed(r, share);
      }
    }
    const double t1 = s_.ddi.barrier();
    s_.breakdown.recovery += t1 - t0;
    control_span(s_, "redistribute", t0, t1,
                 obs::trace_args(
                     {{"ranks_lost", static_cast<double>(newly_dead)}}));
  }
}

// ---------------------------------------------------------------------------
// SameSpinEngine
// ---------------------------------------------------------------------------

void SameSpinEngine::beta_side(const fci::SigmaContext& tctx,
                               std::span<const double> c,
                               std::span<double> sigma, bool moc_kernel) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = s_.ctx.space();
  const std::size_t nranks = s_.ddi.num_ranks();

  // Phase: local transposes in ("Vector Symm.").  Each rank touches only
  // its own column range, so the region runs concurrently where workers
  // are real.
  const double t0 = s_.ddi.barrier();
  std::vector<TransposedLocal> locals(nranks);
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    locals[r] = build_beta_local(space, s_.dist, r, c);
    s_.ddi.charge_indexed(r, static_cast<double>(locals[r].words));
    rank_span(s_, "transpose_in", r, tr0);
  });
  const double t1 = s_.ddi.barrier();
  s_.breakdown.transpose += t1 - t0;
  control_span(s_, "transpose_in", t0, t1);

  // Phase: beta-index same-spin + one-electron, zero communication
  // (paper Fig. 2a, the "Beta-beta" row of Table 3).
  std::vector<fci::SigmaStats> rank_stats(nranks);
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    fci::SigmaStats& stats = rank_stats[r];
    if (moc_kernel)
      fci::moc_same_spin_columns(tctx, locals[r].views, stats);
    else
      fci::sigma_same_spin_columns(tctx, locals[r].views, stats);
    fci::sigma_one_electron_columns(tctx, locals[r].views, stats);
    charge_kernel_stats(s_, r, stats);
    rank_span(s_, "beta_side", r, tr0);
  });
  fold_rank_stats(s_, rank_stats);
  const double t2 = s_.ddi.barrier();
  s_.breakdown.beta_side += t2 - t1;
  control_span(s_, "beta_side", t1, t2);

  // Phase: transpose back (rank-disjoint sigma writes).
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    writeback_beta_local(space, s_.dist, r, locals[r], sigma);
    s_.ddi.charge_indexed(r, static_cast<double>(locals[r].words));
    rank_span(s_, "transpose_out", r, tr0);
  });
  const double t3 = s_.ddi.barrier();
  s_.breakdown.transpose += t3 - t2;
  control_span(s_, "transpose_out", t2, t3);
}

void SameSpinEngine::alpha_side(std::span<const double> c,
                                std::span<double> sigma, bool moc_kernel) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = s_.ctx.space();
  const std::size_t nranks = s_.ddi.num_ranks();

  if (moc_kernel) {
    // MOC: the whole vector is gathered onto every rank (collective
    // gather) and the alpha-side element generation is replicated; each
    // rank updates only its own sigma columns.
    const double t0 = s_.ddi.barrier();
    const double remote =
        static_cast<double>(space.dimension()) *
        static_cast<double>(nranks - 1) / static_cast<double>(nranks);
    for (std::size_t r = 0; r < nranks; ++r)
      s_.ddi.alltoall(r, nranks - 1, remote);
    const double t1 = s_.ddi.barrier();
    s_.breakdown.transpose += t1 - t0;
    control_span(s_, "moc_gather", t0, t1);

    std::vector<fci::SigmaStats> rank_stats(nranks);
    s_.ddi.for_ranks([&](std::size_t r) {
      const double tr0 = s_.ddi.now(r);
      std::vector<fci::ColumnView> views(space.group().num_irreps());
      for (std::size_t b = 0; b < space.blocks().size(); ++b) {
        const auto& blk = space.blocks()[b];
        const auto [c0, c1] = s_.dist.columns(b, r);
        views[blk.halpha] =
            fci::ColumnView{c.data() + blk.offset, sigma.data() + blk.offset,
                            blk.nb, blk.nb, c0, c1};
      }
      fci::SigmaStats& stats = rank_stats[r];
      fci::moc_same_spin_columns(s_.ctx, views, stats);
      fci::sigma_one_electron_columns(s_.ctx, views, stats);
      charge_kernel_stats(s_, r, stats);
      rank_span(s_, "alpha_side", r, tr0);
    });
    fold_rank_stats(s_, rank_stats);
    const double t2 = s_.ddi.barrier();
    s_.breakdown.alpha_side += t2 - t1;
    control_span(s_, "alpha_side", t1, t2);
    return;
  }

  // DGEMM path: the same static routine on the other spin, over the
  // beta-column layout of the paper's all-to-all transpose: rank r owns a
  // range of beta strings in every block, so it holds every alpha string
  // of its rows.  Every backend keeps C and sigma in one address space, so
  // a rank addresses its rows in place (column stride nb) and its sigma
  // writes stay row-disjoint; the two transposes are charged, not copied.
  const fci::CiSpace& tspace = space.transposed();
  ColumnDistribution tdist(tspace, nranks);
  if (s_.ddi.num_alive() < nranks) tdist.redistribute(s_.ddi.alive_mask());

  const double t0 = s_.ddi.barrier();
  for (std::size_t r = 0; r < nranks; ++r) {
    const double remote = static_cast<double>(tdist.local_words(r)) *
                          static_cast<double>(nranks - 1) /
                          static_cast<double>(nranks);
    s_.ddi.alltoall(r, nranks - 1, remote);
    s_.ddi.charge_indexed(r, static_cast<double>(tdist.local_words(r)));
  }
  const double t1 = s_.ddi.barrier();
  s_.breakdown.transpose += t1 - t0;
  control_span(s_, "transpose_fwd", t0, t1);

  std::vector<fci::SigmaStats> rank_stats(nranks);
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    const double words = static_cast<double>(tdist.local_words(r));
    s_.ddi.charge_indexed(r, words);  // local transpose in
    std::vector<fci::ColumnView> views(space.group().num_irreps());
    for (const fci::CiBlock& blk : space.blocks()) {
      const auto [r0, r1] =
          tdist.columns(tspace.block_index_for_alpha(blk.hbeta), r);
      if (r0 == r1) continue;
      views[blk.halpha] =
          fci::ColumnView{c.data() + blk.offset + r0,
                          sigma.data() + blk.offset + r0, r1 - r0, blk.nb};
    }
    fci::SigmaStats& stats = rank_stats[r];
    fci::sigma_same_spin_columns(s_.ctx, views, stats);
    fci::sigma_one_electron_columns(s_.ctx, views, stats);
    charge_kernel_stats(s_, r, stats);
    s_.ddi.charge_indexed(r, words);  // local transpose out
    rank_span(s_, "alpha_side", r, tr0);
  });
  fold_rank_stats(s_, rank_stats);
  const double t2 = s_.ddi.barrier();
  s_.breakdown.alpha_side += t2 - t1;
  control_span(s_, "alpha_side", t1, t2);

  for (std::size_t r = 0; r < nranks; ++r) {
    const double remote = static_cast<double>(s_.dist.local_words(r)) *
                          static_cast<double>(nranks - 1) /
                          static_cast<double>(nranks);
    s_.ddi.alltoall(r, nranks - 1, remote);
    s_.ddi.charge_indexed(r, static_cast<double>(s_.dist.local_words(r)));
  }
  const double t3 = s_.ddi.barrier();
  s_.breakdown.transpose += t3 - t2;
  control_span(s_, "transpose_back", t2, t3);
}

void SameSpinEngine::parity_fold(std::span<double> sigma,
                                 const std::vector<double>& z, int parity) {
  XFCI_DCHECK(sigma.size() == z.size() && parity != 0,
              "parity fold needs a definite parity and a matching scratch");
  const fci::CiSpace& space = s_.ctx.space();
  const std::size_t nranks = s_.ddi.num_ranks();

  const double t0 = s_.ddi.barrier();
  std::vector<double> pz;
  space.transpose_vector(z, pz);
  for (std::size_t r = 0; r < nranks; ++r) {
    const double remote = static_cast<double>(s_.dist.local_words(r)) *
                          static_cast<double>(nranks - 1) /
                          static_cast<double>(nranks);
    s_.ddi.alltoall(r, nranks - 1, remote);
    s_.ddi.charge_indexed(
        r, 2.0 * static_cast<double>(s_.dist.local_words(r)));
  }
  const double eps = static_cast<double>(parity);
  s_.ddi.for_range(sigma.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sigma[i] += z[i] + eps * pz[i];
  });
  s_.stats.gather_words += static_cast<double>(z.size());  // reading P z
  const double t1 = s_.ddi.barrier();
  s_.breakdown.transpose += t1 - t0;
  control_span(s_, "parity_fold", t0, t1);
}

// ---------------------------------------------------------------------------
// MixedSpinEngine
// ---------------------------------------------------------------------------

std::size_t MixedSpinEngine::layout_stage(std::size_t hk, std::size_t ik,
                                          ItemStage& stage) const {
  const fci::CiSpace& space = s_.ctx.space();
  const auto& alist = s_.ctx.alpha().create->list(hk, ik);
  std::size_t total = 0;
  stage.offs.assign(alist.size(), kNone);
  for (std::size_t ai = 0; ai < alist.size(); ++ai) {
    const std::size_t b = space.block_index_for_alpha(alist[ai].irrep);
    if (b == kNone) continue;
    stage.offs[ai] = total;
    total += space.blocks()[b].nb;
  }
  return total;
}

bool MixedSpinEngine::stage_item(std::size_t worker, std::size_t hk,
                                 std::size_t ik, std::span<const double> c,
                                 ItemStage& stage, WorkerScratch& scratch) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension(),
              "staged C vector must span the CI dimension");
  const fci::CiSpace& space = s_.ctx.space();
  const auto& alist = s_.ctx.alpha().create->list(hk, ik);

  // Layout of the accumulation buffer.
  const std::size_t total = layout_stage(hk, ik, stage);
  stage.acc.assign(total, 0.0);
  stage.stats.reset();
  scratch.ccols.assign(alist.size(), nullptr);
  scratch.scols.assign(alist.size(), nullptr);

  // One-sided gather of the reachable C columns (DDI_GET).  Every backend
  // keeps C readable in the worker's address space, so the kernel reads
  // the delivered columns in place.
  for (std::size_t ai = 0; ai < alist.size(); ++ai) {
    if (stage.offs[ai] == kNone) continue;
    const std::size_t b = space.block_index_for_alpha(alist[ai].irrep);
    const auto& blk = space.blocks()[b];
    const std::size_t col = alist[ai].address;
    for (;;) {
      std::size_t owner = s_.dist.owner(b, col);
      if (!s_.ddi.alive(owner)) {
        // The column's owner died: redistribute, then retarget.
        recovery_.maybe_redistribute();
        owner = s_.dist.owner(b, col);
      }
      if (recovery_.robust_one_sided(false, worker, owner,
                                     double(blk.nb)) ==
          pv::OpOutcome::kDelivered)
        break;
      if (!s_.ddi.alive(worker)) return false;  // the worker itself died
    }
    scratch.ccols[ai] = c.data() + blk.offset + col * blk.nb;
    scratch.scols[ai] = stage.acc.data() + stage.offs[ai];
    stage.stats.gather_words += static_cast<double>(blk.nb);
    stage.stats.scatter_words += static_cast<double>(blk.nb);
  }

  // Local dense work (Eqs. 4-6).
  fci::sigma_mixed_spin_core(s_.ctx, hk, ik, scratch.ccols, scratch.scols,
                             stage.stats);
  for (const auto& sh : stage.stats.dgemm_shapes) {
    s_.ddi.charge_dgemm(worker, sh[0], sh[1], sh[2]);
    // D build + E scatter: one gather and one scatter pass over each
    // intermediate matrix.
    s_.ddi.charge_indexed(worker,
                          2.0 * static_cast<double>(sh[0] * sh[1]));
  }

  // One-sided accumulate of the sigma columns (DDI_ACC).  Two-phase
  // commit: the payloads stay staged and are applied only once every
  // accumulate of the item has been delivered, so a worker death mid-item
  // leaves sigma untouched and the reassigned item re-sends everything.
  for (std::size_t ai = 0; ai < alist.size(); ++ai) {
    if (stage.offs[ai] == kNone) continue;
    const std::size_t b = space.block_index_for_alpha(alist[ai].irrep);
    const auto& blk = space.blocks()[b];
    const std::size_t col = alist[ai].address;
    for (;;) {
      std::size_t owner = s_.dist.owner(b, col);
      if (!s_.ddi.alive(owner)) {
        recovery_.maybe_redistribute();
        owner = s_.dist.owner(b, col);
      }
      if (recovery_.robust_one_sided(true, worker, owner,
                                     double(blk.nb)) ==
          pv::OpOutcome::kDelivered)
        break;
      if (!s_.ddi.alive(worker)) return false;
    }
  }
  return true;
}

void MixedSpinEngine::commit_item(std::size_t hk, std::size_t ik,
                                  const ItemStage& stage,
                                  std::span<double> sigma) {
  XFCI_DCHECK(sigma.size() == s_.ctx.space().dimension(),
              "committed sigma must span the CI dimension");
  const fci::CiSpace& space = s_.ctx.space();
  const auto& alist = s_.ctx.alpha().create->list(hk, ik);
  for (std::size_t ai = 0; ai < alist.size(); ++ai) {
    if (stage.offs[ai] == kNone) continue;
    const std::size_t b = space.block_index_for_alpha(alist[ai].irrep);
    const auto& blk = space.blocks()[b];
    const std::size_t col = alist[ai].address;
    double* dst = sigma.data() + blk.offset + col * blk.nb;
    const double* src = stage.acc.data() + stage.offs[ai];
    for (std::size_t j = 0; j < blk.nb; ++j) dst[j] += src[j];
  }
  s_.stats += stage.stats;
}

void MixedSpinEngine::dgemm(std::span<const double> c,
                            std::span<double> sigma) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = s_.ctx.space();
  if (space.nalpha() < 1 || space.nbeta() < 1) return;
  const fci::StringSpace& am1 = *s_.ctx.alpha().m1;

  // Flatten the alpha (N-1)-string tasks.
  std::vector<std::pair<std::size_t, std::size_t>> items;
  for (std::size_t hk = 0; hk < am1.num_irreps(); ++hk)
    for (std::size_t ik = 0; ik < am1.count(hk); ++ik)
      items.emplace_back(hk, ik);

  recovery_.maybe_redistribute();
  const pv::TaskPool pool(items.size(), s_.ddi.num_workers(), s_.options.lb);

  const double t0 = s_.ddi.barrier();
  const double comm0 = s_.ddi.comm_words();

  stages_.assign(items.size(), ItemStage{});
  scratch_.assign(s_.ddi.num_workers(), WorkerScratch{});

  pv::Ddi::PoolHooks hooks;
  hooks.stage = [&](std::size_t it, std::size_t worker) {
    const auto [hk, ik] = items[it];
    return stage_item(worker, hk, ik, c, stages_[it], scratch_[worker]);
  };
  hooks.commit = [&](std::size_t it) {
    const auto [hk, ik] = items[it];
    commit_item(hk, ik, stages_[it], sigma);
    stages_[it] = ItemStage{};  // release the staged payload
  };
  hooks.on_worker_death = [&] { recovery_.maybe_redistribute(); };
  // Address-space-crossing hooks (the process backend): an item's staged
  // payload is its accumulation buffer, whose layout is a pure function
  // of the CI space (layout_stage), followed by its packed counters.
  const std::size_t stats_words =
      kStatsHead + 3 * space.group().num_irreps();
  hooks.stage_words = [&](std::size_t it) {
    const auto [hk, ik] = items[it];
    ItemStage probe;
    return layout_stage(hk, ik, probe) + stats_words;
  };
  hooks.pack = [&](std::size_t it, double* dst) {
    const ItemStage& stage = stages_[it];
    std::copy(stage.acc.begin(), stage.acc.end(), dst);
    return stage.acc.size() +
           pack_stats(stage.stats, dst + stage.acc.size());
  };
  hooks.unpack = [&](std::size_t it, const double* src, std::size_t words) {
    const auto [hk, ik] = items[it];
    ItemStage& stage = stages_[it];
    const std::size_t total = layout_stage(hk, ik, stage);
    XFCI_ASSERT(words > total,
                "unpacked mixed-spin payload does not match its layout");
    stage.acc.assign(src, src + total);
    stage.stats = unpack_stats(src + total, words - total);
  };

  const pv::Ddi::PoolStats st = s_.ddi.run_pool(pool, hooks);
  s_.breakdown.tasks_reassigned += st.tasks_reassigned;
  s_.breakdown.recovery += st.recovery_seconds;

  const double t1 = s_.ddi.barrier();
  s_.breakdown.mixed += t1 - t0;
  s_.breakdown.load_imbalance += s_.ddi.imbalance();
  s_.breakdown.mixed_comm_words += s_.ddi.comm_words() - comm0;
  control_span(s_, "mixed", t0, t1,
               obs::trace_args(
                   {{"tasks", static_cast<double>(pool.num_chunks())},
                    {"items", static_cast<double>(items.size())},
                    {"reassigned",
                     static_cast<double>(st.tasks_reassigned)}}));
  stages_.clear();
  scratch_.clear();
}

void MixedSpinEngine::moc(std::span<const double> c,
                          std::span<double> sigma) {
  XFCI_DCHECK(c.size() == s_.ctx.space().dimension() &&
                  sigma.size() == c.size(),
              "phase vectors must span the CI dimension (checked in apply)");
  const fci::CiSpace& space = s_.ctx.space();
  if (space.nalpha() < 1 || space.nbeta() < 1) return;

  // Deaths declared earlier shrink the column split before the phase; the
  // MOC baseline implements no task-level recovery beyond that (it is the
  // historical practice the paper eliminates), so mid-phase faults only
  // show up in the accounting (dropped-op counters, frozen clocks).
  recovery_.maybe_redistribute();

  // Each rank computes its local sigma columns: for every alpha single
  // excitation J_a -> I_a it gathers the remote J_a column (no reuse across
  // excitations -- the Table-1 communication count Nci * Na * (n - Na)),
  // then applies every beta single excitation as an indexed multiply-add.
  // Sigma writes are confined to the rank's own columns, so real backends
  // run ranks concurrently with no synchronization.
  const double t0 = s_.ddi.barrier();
  const double comm0 = s_.ddi.comm_words();
  std::vector<fci::SigmaStats> rank_stats(s_.ddi.num_ranks());
  s_.ddi.for_ranks([&](std::size_t r) {
    const double tr0 = s_.ddi.now(r);
    fci::SigmaStats& stats = rank_stats[r];
    for (std::size_t b = 0; b < space.blocks().size(); ++b) {
      const auto [c0, c1] = s_.dist.columns(b, r);
      fci::moc_mixed_spin_columns(
          s_.ctx, b, c0, c1, c, sigma,
          [&](std::size_t bj, std::size_t colj) {
            // Remote gather of the J_a column; the outcome is ignored by
            // design (no retransmission in the MOC baseline).
            (void)s_.ddi.get(r, s_.dist.owner(bj, colj),
                             double(space.blocks()[bj].nb));
          },
          stats);
    }
    s_.ddi.charge_indexed(r, stats.indexed_ops);
    rank_span(s_, "mixed_moc", r, tr0);
  });
  fold_rank_stats(s_, rank_stats);
  const double t1 = s_.ddi.barrier();
  s_.breakdown.mixed += t1 - t0;
  s_.breakdown.load_imbalance += s_.ddi.imbalance();
  s_.breakdown.mixed_comm_words += s_.ddi.comm_words() - comm0;
  control_span(s_, "mixed", t0, t1);
}

}  // namespace xfci::fcp
