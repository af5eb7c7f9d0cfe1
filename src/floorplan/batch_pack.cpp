#include "floorplan/batch_pack.hpp"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace wp::fplan {

namespace {

/// pack/batch/* counters. Candidates run millions of times per anneal, so
/// the record path is one relaxed fetch_add per event — no locks, no
/// registry lookups after the first call.
struct BatchMetrics {
  obs::Counter& candidates;
  obs::Counter& commits;
  obs::Counter& prime_evals;
  obs::Counter& full_packs;

  static BatchMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static BatchMetrics metrics{registry.counter("pack/batch/candidates"),
                                registry.counter("pack/batch/commits"),
                                registry.counter("pack/batch/prime_evals"),
                                registry.counter("pack/batch/full_packs")};
    return metrics;
  }
};

}  // namespace

BatchedMoveEvaluator::BatchedMoveEvaluator(const Instance& inst,
                                           const SequencePair& sp)
    : n_(inst.blocks.size()) {
  widths_.resize(n_);
  heights_.resize(n_);
  for (std::size_t b = 0; b < n_; ++b) {
    widths_[b] = inst.blocks[b].width;
    heights_[b] = inst.blocks[b].height;
  }
  reset(sp);
}

void BatchedMoveEvaluator::reset(const SequencePair& sp) {
  WP_REQUIRE(sp.valid(n_), "invalid sequence pair for this instance");
  sp_ = sp;
  pos_p_.resize(n_);
  pos_n_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    pos_p_[static_cast<std::size_t>(sp_.positive[k])] = k;
    pos_n_[static_cast<std::size_t>(sp_.negative[k])] = k;
  }
  placement_.x.assign(n_, 0.0);
  placement_.y.assign(n_, 0.0);
  parked_.x.assign(n_, 0.0);
  parked_.y.assign(n_, 0.0);
  pending_ = false;
  parked_valid_ = false;
  pass_from(0);
}

std::size_t BatchedMoveEvaluator::first_dirty_position(
    const AppliedMove& move) const {
  if (move.i == move.j) return n_;
  // Tighter than a Γ+ span scan. Packing processes blocks
  // in Γ− order, each with key pos_p[block]; a Γ+ swap changes the keys of
  // exactly the two swapped blocks, so every Γ− position before the
  // earlier of THEIR Γ− positions processes an unchanged (block, key)
  // stream over an unchanged prefix state — by induction its coordinate
  // is unchanged. (Blocks between the swapped Γ+ positions can still move,
  // but only at Γ− positions after that bound.) A Γ− swap changes the
  // processing order itself from the earlier swapped position. O(1),
  // where the span scan paid O(|i − j|) and returned a far smaller `from`
  // (the min over the whole span) than necessary.
  const std::size_t lo = std::min(move.i, move.j);
  const std::size_t hi = std::max(move.i, move.j);
  const auto swapped_negative_min = [&] {
    // Valid on either side of the mirror swap: the two swapped blocks sit
    // at Γ+ positions lo and hi regardless, and for kSwapBoth a swapped
    // block's Γ− position changes only if it is one of the Γ−-swapped
    // slots i/j — both ≥ lo, so the min(lo, ·) below is unaffected.
    const auto a = static_cast<std::size_t>(sp_.positive[lo]);
    const auto b = static_cast<std::size_t>(sp_.positive[hi]);
    return std::min(pos_n_[a], pos_n_[b]);
  };
  switch (move.kind) {
    case SpMove::kSwapPositive: return swapped_negative_min();
    case SpMove::kSwapNegative: return lo;
    case SpMove::kSwapBoth: return std::min(lo, swapped_negative_min());
    case SpMove::kCount: break;
  }
  return n_;
}

void BatchedMoveEvaluator::apply_to_mirror(const AppliedMove& move) {
  apply_move(sp_, move);
  // Re-derive the inverse entries at the two touched positions; those of
  // a sequence the move left alone are rewritten with their own values.
  for (const std::size_t k : {move.i, move.j}) {
    pos_p_[static_cast<std::size_t>(sp_.positive[k])] = k;
    pos_n_[static_cast<std::size_t>(sp_.negative[k])] = k;
  }
}

/// The annealer's single hottest kernel: one walk over Γ− drives both
/// axis trees (the per-position block/key lookups are shared), and the
/// bounding box falls out of the same coord+extent reaches the trees are
/// fed — over the clean prefix too, since the prefix may hold the extreme
/// block. Parks the current placement in parked_ and rewrites every
/// coordinate of placement_.
void BatchedMoveEvaluator::pass_from(std::size_t from) {
  std::swap(placement_, parked_);
  fx_.reset(n_);
  fy_.reset(n_);
  double width = 0.0;
  double height = 0.0;
  const auto place = [&](std::size_t b, std::size_t kx, double x, double y) {
    placement_.x[b] = x;
    placement_.y[b] = y;
    const double x_reach = x + widths_[b];
    const double y_reach = y + heights_[b];
    fx_.update(kx, x_reach);
    fy_.update(n_ - 1 - kx, y_reach);
    width = std::max(width, x_reach);
    height = std::max(height, y_reach);
  };
  for (std::size_t k = 0; k < from; ++k) {
    const auto b = static_cast<std::size_t>(sp_.negative[k]);
    place(b, pos_p_[b], parked_.x[b], parked_.y[b]);
  }
  for (std::size_t k = from; k < n_; ++k) {
    const auto b = static_cast<std::size_t>(sp_.negative[k]);
    const std::size_t kx = pos_p_[b];
    place(b, kx, fx_.prefix_max(kx), fy_.prefix_max(n_ - 1 - kx));
  }
  placement_.width = width;
  placement_.height = height;
}

const Placement& BatchedMoveEvaluator::apply(const AppliedMove& move) {
  WP_REQUIRE(move.i < n_ && move.j < n_, "move indices out of range");
  if (pending_) commit();  // the annealer moving on *is* acceptance
  BatchMetrics& metrics = BatchMetrics::get();
  ++stats_.candidates;
  metrics.candidates.inc();
  // Computed before the mirror swap; it answers the same either side
  // (see its comment).
  const std::size_t from = first_dirty_position(move);
  apply_to_mirror(move);
  pending_move_ = move;
  pending_ = true;
  parked_valid_ = from < n_;  // from == n: degenerate i == j move
  if (from == 0) {
    ++stats_.full_packs;
    metrics.full_packs.inc();
  } else if (from < n_) {
    ++stats_.prime_evals;
    metrics.prime_evals.inc();
  }
  if (parked_valid_) pass_from(from);
  return placement_;
}

void BatchedMoveEvaluator::commit() {
  WP_REQUIRE(pending_, "commit() without a pending candidate");
  pending_ = false;
  ++stats_.commits;
  BatchMetrics::get().commits.inc();
}

void BatchedMoveEvaluator::revert() {
  WP_REQUIRE(pending_, "revert() without a pending candidate");
  pending_ = false;
  if (parked_valid_) std::swap(placement_, parked_);
  apply_to_mirror(pending_move_);  // moves are involutions
}

}  // namespace wp::fplan
