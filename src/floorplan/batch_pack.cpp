#include "floorplan/batch_pack.hpp"

#include <algorithm>
#include <limits>

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
  obs::Counter& windows;
  obs::Counter& persistent_evals;
  obs::Counter& prime_evals;
  obs::Counter& full_packs;
  obs::Counter& index_rebuilds;
  obs::Counter& reprime_positions_saved;
  obs::Histogram& window_len;

  static BatchMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static BatchMetrics metrics{
        registry.counter("pack/batch/candidates"),
        registry.counter("pack/batch/commits"),
        registry.counter("pack/batch/windows"),
        registry.counter("pack/batch/persistent_evals"),
        registry.counter("pack/batch/prime_evals"),
        registry.counter("pack/batch/full_packs"),
        registry.counter("pack/batch/index_rebuilds"),
        registry.counter("pack/batch/reprime_positions_saved"),
        registry.histogram("pack/batch/window_len")};
    return metrics;
  }
};

/// Fused two-axis full relaxation — the O(n log n) weighted-LCS
/// evaluation (blocks in Γ− order, a Fenwick tree of prefix maxima keyed by
/// Γ+ position answering the max-over-predecessors query), used for
/// baselines and the fallback full repack. One walk over Γ− drives both axis trees (the per-position
/// block/key lookups are shared), `widths`/`heights` are flat per-block
/// extent arrays (Block structs carry a name string, so walking them
/// trashes the hot loop's locality), and the bounding box falls out of
/// the same coord+extent reaches the trees are fed — no separate O(n)
/// bbox loop. This loop is the annealer's single hottest kernel: under
/// uniform global swaps most candidates dirty most of the suffix, so the
/// full repack is the common case, not the fallback.
void full_pass_xy(const std::vector<int>& negative,
                  const std::vector<std::size_t>& pos_p,
                  const std::vector<double>& widths,
                  const std::vector<double>& heights,
                  wp::fplan::detail::MaxFenwick& fx,
                  wp::fplan::detail::MaxFenwick& fy, Placement& placement) {
  const std::size_t n = negative.size();
  fx.reset(n);
  fy.reset(n);
  double width = 0.0;
  double height = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto b = static_cast<std::size_t>(negative[k]);
    const std::size_t kx = pos_p[b];
    const std::size_t ky = n - 1 - kx;
    const double x = fx.prefix_max(kx);
    const double y = fy.prefix_max(ky);
    placement.x[b] = x;
    placement.y[b] = y;
    const double x_reach = x + widths[b];
    const double y_reach = y + heights[b];
    fx.update(kx, x_reach);
    fy.update(ky, y_reach);
    width = std::max(width, x_reach);
    height = std::max(height, y_reach);
  }
  placement.width = width;
  placement.height = height;
}

}  // namespace

namespace detail {

void DominanceIndex::build(const std::vector<std::uint32_t>& leaf_keys,
                           const std::vector<double>& leaf_values) {
  WP_REQUIRE(leaf_keys.size() == leaf_values.size(),
             "dominance index: key/value length mismatch");
  n_ = leaf_keys.size();
  padded_ = 1;
  while (padded_ < std::max<std::size_t>(n_, 1)) padded_ <<= 1;
  levels_ = 1;
  for (std::size_t m = padded_; m > 1; m >>= 1) ++levels_;
  const std::size_t total = levels_ * padded_;
  if (keys_.size() < total) {
    keys_.resize(total);
    vals_.resize(total);
    pmax_.resize(total);
  }

  // Level 0: one leaf per slab (trivially key-sorted), padded with a
  // sentinel key no real query bound can reach and the identity value.
  for (std::size_t i = 0; i < n_; ++i) {
    WP_REQUIRE(leaf_keys[i] < std::numeric_limits<std::uint32_t>::max(),
               "dominance index: key collides with the padding sentinel");
    keys_[i] = leaf_keys[i];
    vals_[i] = leaf_values[i];
  }
  for (std::size_t i = n_; i < padded_; ++i) {
    keys_[i] = std::numeric_limits<std::uint32_t>::max();
    vals_[i] = 0.0;
  }

  // Merge children pairwise: the slab of 2^ℓ leaves at level ℓ is the
  // key-sorted merge of its two level ℓ−1 halves.
  for (std::size_t lvl = 1; lvl < levels_; ++lvl) {
    const std::size_t width = std::size_t{1} << lvl;
    const std::size_t child = (lvl - 1) * padded_;
    const std::size_t cur = lvl * padded_;
    for (std::size_t slab = 0; slab < padded_; slab += width) {
      std::size_t a = child + slab;
      const std::size_t a_end = a + width / 2;
      std::size_t b = a_end;
      const std::size_t b_end = child + slab + width;
      std::size_t out = cur + slab;
      while (a < a_end && b < b_end) {
        const std::size_t pick = keys_[a] <= keys_[b] ? a++ : b++;
        keys_[out] = keys_[pick];
        vals_[out] = vals_[pick];
        ++out;
      }
      for (; a < a_end; ++a, ++out) {
        keys_[out] = keys_[a];
        vals_[out] = vals_[a];
      }
      for (; b < b_end; ++b, ++out) {
        keys_[out] = keys_[b];
        vals_[out] = vals_[b];
      }
    }
  }

  // Running prefix maxima within every slab of every level; 0.0 is the
  // identity (values are non-negative coordinates plus positive extents).
  for (std::size_t lvl = 0; lvl < levels_; ++lvl) {
    const std::size_t width = std::size_t{1} << lvl;
    const std::size_t base = lvl * padded_;
    for (std::size_t slab = 0; slab < padded_; slab += width) {
      double run = 0.0;
      for (std::size_t i = base + slab; i < base + slab + width; ++i) {
        run = std::max(run, vals_[i]);
        pmax_[i] = run;
      }
    }
  }
}

double DominanceIndex::query(std::size_t prefix,
                             std::uint32_t key_bound) const {
  WP_REQUIRE(prefix <= n_, "dominance index: prefix out of range");
  double best = 0.0;
  std::size_t offset = 0;
  std::size_t remaining = prefix;
  // Decompose [0, prefix) into left-aligned power-of-two slabs (the set
  // bits of `prefix`, high to low so offsets stay slab-aligned), answer
  // each with one binary search over its key-sorted entries.
  for (std::size_t lvl = levels_; lvl-- > 0;) {
    const std::size_t width = std::size_t{1} << lvl;
    if (remaining < width) continue;
    remaining -= width;
    const auto begin = keys_.begin() + static_cast<std::ptrdiff_t>(
                                           lvl * padded_ + offset);
    const auto split = std::lower_bound(begin,
                                        begin + static_cast<std::ptrdiff_t>(
                                                    width),
                                        key_bound);
    if (split != begin) {
      const std::size_t idx =
          lvl * padded_ + offset +
          static_cast<std::size_t>(split - begin) - 1;
      best = std::max(best, pmax_[idx]);
    }
    offset += width;
  }
  return best;
}

}  // namespace detail

BatchedMoveEvaluator::BatchedMoveEvaluator(const Instance& inst,
                                           const SequencePair& sp,
                                           const BatchOptions& options)
    : inst_(&inst), n_(inst.blocks.size()), options_(options) {
  WP_REQUIRE(options.batch_size >= 1, "batch_size must be at least 1");
  WP_REQUIRE(
      options.fallback_fraction >= 0.0 && options.fallback_fraction <= 1.0,
      "fallback_fraction must lie in [0, 1]");
  WP_REQUIRE(options.persistent_fraction >= 0.0 &&
                 options.persistent_fraction <= 1.0,
             "persistent_fraction must lie in [0, 1]");
  prime_mark_x_.resize(n_);
  prime_mark_y_.resize(n_);
  prefix_bbox_x_.resize(n_ + 1);
  prefix_bbox_y_.resize(n_ + 1);
  dirty_stamp_.assign(n_, 0);
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
  full_pass_xy(sp_.negative, pos_p_, widths_, heights_, local_x_, local_y_,
               placement_);
  // Pre-size the trail's parking arrays: the full-repack path swaps the
  // live coordinate arrays into them before overwriting every entry.
  trail_.x_full.assign(n_, 0.0);
  trail_.y_full.assign(n_, 0.0);
  pending_ = false;
  full_diff_pending_ = false;
  window_len_ = 0;
  last_was_full_ = false;
  dirty_blocks_.clear();
  rebuild_prefix_bbox();
  invalidate_prime();
  rebuild_index();
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
  std::size_t from = n_;
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
    case SpMove::kSwapPositive:
      from = swapped_negative_min();
      break;
    case SpMove::kSwapNegative:
      from = lo;
      break;
    case SpMove::kSwapBoth:
      from = std::min(lo, swapped_negative_min());
      break;
    case SpMove::kCount:
      break;
  }
  return from;
}

void BatchedMoveEvaluator::apply_to_mirror(const AppliedMove& move) {
  auto swap_in = [&](std::vector<int>& seq, std::vector<std::size_t>& pos) {
    std::swap(seq[move.i], seq[move.j]);
    pos[static_cast<std::size_t>(seq[move.i])] = move.i;
    pos[static_cast<std::size_t>(seq[move.j])] = move.j;
  };
  switch (move.kind) {
    case SpMove::kSwapPositive:
      swap_in(sp_.positive, pos_p_);
      break;
    case SpMove::kSwapNegative:
      swap_in(sp_.negative, pos_n_);
      break;
    case SpMove::kSwapBoth:
      swap_in(sp_.positive, pos_p_);
      swap_in(sp_.negative, pos_n_);
      break;
    case SpMove::kCount:
      break;
  }
}

const std::vector<std::uint32_t>& BatchedMoveEvaluator::dirty_blocks() {
  if (full_diff_pending_) {
    // The full-repack path deferred its baseline diff to here. Whether
    // the candidate is still pending, committed or reverted, one of
    // {placement_, trail_.x_full/y_full} holds the candidate and the
    // other the baseline (revert swaps them back), and membership in the
    // diff is symmetric — so the same compare works in every state.
    full_diff_pending_ = false;
    for (std::size_t b = 0; b < n_; ++b) {
      if (placement_.x[b] != trail_.x_full[b] ||
          placement_.y[b] != trail_.y_full[b]) {
        mark_dirty(b);
      }
    }
  }
  return dirty_blocks_;
}

void BatchedMoveEvaluator::mark_dirty(std::size_t block) {
  if (dirty_stamp_[block] != stamp_) {
    dirty_stamp_[block] = stamp_;
    dirty_blocks_.push_back(static_cast<std::uint32_t>(block));
  }
}

void BatchedMoveEvaluator::rebuild_prefix_bbox() {
  prefix_bbox_stale_ = false;
  prefix_bbox_x_[0] = 0.0;
  prefix_bbox_y_[0] = 0.0;
  for (std::size_t k = 0; k < n_; ++k) {
    const auto b = static_cast<std::size_t>(sp_.negative[k]);
    prefix_bbox_x_[k + 1] =
        std::max(prefix_bbox_x_[k], placement_.x[b] + widths_[b]);
    prefix_bbox_y_[k + 1] =
        std::max(prefix_bbox_y_[k], placement_.y[b] + heights_[b]);
  }
}

void BatchedMoveEvaluator::invalidate_prime() {
  shared_x_.reset(n_);
  shared_y_.reset(n_);
  primed_to_ = 0;
}

void BatchedMoveEvaluator::rebuild_index() {
  leaf_keys_.resize(n_);
  leaf_vals_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const auto b = static_cast<std::size_t>(sp_.negative[k]);
    leaf_keys_[k] = static_cast<std::uint32_t>(pos_p_[b]);
    leaf_vals_[k] = placement_.x[b] + widths_[b];
  }
  dom_x_.build(leaf_keys_, leaf_vals_);
  for (std::size_t k = 0; k < n_; ++k) {
    const auto b = static_cast<std::size_t>(sp_.negative[k]);
    leaf_keys_[k] = static_cast<std::uint32_t>(n_ - 1 - pos_p_[b]);
    leaf_vals_[k] = placement_.y[b] + heights_[b];
  }
  dom_y_.build(leaf_keys_, leaf_vals_);
  index_stale_ = false;
  ++stats_.index_rebuilds;
  BatchMetrics::get().index_rebuilds.inc();
}

void BatchedMoveEvaluator::ensure_primed(std::size_t from) {
  // Cost to compare against: a one-move packer primes [0, from) from
  // scratch for every candidate. Here the shared trees stay primed
  // across the window and only the |primed_to_ − from| delta is paid.
  if (primed_to_ >= from) {
    if (primed_to_ > from) {
      shared_x_.rewind(prime_mark_x_[from]);
      shared_y_.rewind(prime_mark_y_[from]);
    }
    const std::size_t rewound = primed_to_ - from;
    const std::size_t saved = from > rewound ? from - rewound : 0;
    stats_.reprime_positions_saved += saved;
    BatchMetrics::get().reprime_positions_saved.add(saved);
    primed_to_ = from;
    return;
  }
  stats_.reprime_positions_saved += primed_to_;
  BatchMetrics::get().reprime_positions_saved.add(primed_to_);
  while (primed_to_ < from) {
    const auto a = static_cast<std::size_t>(sp_.negative[primed_to_]);
    const std::size_t kx = pos_p_[a];
    prime_mark_x_[primed_to_] = shared_x_.mark();
    prime_mark_y_[primed_to_] = shared_y_.mark();
    shared_x_.update_logged(kx, placement_.x[a] + widths_[a]);
    shared_y_.update_logged(n_ - 1 - kx, placement_.y[a] + heights_[a]);
    ++primed_to_;
  }
}

void BatchedMoveEvaluator::evaluate_suffix(std::size_t from, bool use_index) {
  trail_.kind = Trail::kEval;
  trail_.x_full = placement_.x;
  trail_.y_full = placement_.y;
  local_x_.reset(n_);
  local_y_.reset(n_);
  double width_dirty = 0.0;
  double height_dirty = 0.0;
  for (std::size_t k = from; k < n_; ++k) {
    const auto b = static_cast<std::size_t>(sp_.negative[k]);
    const std::size_t kx = pos_p_[b];
    const std::size_t ky = n_ - 1 - kx;
    // Clean-prefix answer from the baseline-scoped structure, dirty-region
    // answer from the local overlay tree; their max ranges over exactly
    // the naive packer's candidate set, so the split is bitwise exact.
    const double prefix_x =
        use_index ? dom_x_.query(from, static_cast<std::uint32_t>(kx))
                  : shared_x_.prefix_max(kx);
    const double prefix_y =
        use_index ? dom_y_.query(from, static_cast<std::uint32_t>(ky))
                  : shared_y_.prefix_max(ky);
    const double xv = std::max(prefix_x, local_x_.prefix_max(kx));
    const double yv = std::max(prefix_y, local_y_.prefix_max(ky));
    if (xv != placement_.x[b]) {
      placement_.x[b] = xv;
      mark_dirty(b);
    }
    if (yv != placement_.y[b]) {
      placement_.y[b] = yv;
      mark_dirty(b);
    }
    const double x_reach = xv + widths_[b];
    const double y_reach = yv + heights_[b];
    local_x_.update(kx, x_reach);
    local_y_.update(ky, y_reach);
    width_dirty = std::max(width_dirty, x_reach);
    height_dirty = std::max(height_dirty, y_reach);
  }
  placement_.width = std::max(prefix_bbox_x_[from], width_dirty);
  placement_.height = std::max(prefix_bbox_y_[from], height_dirty);
}

void BatchedMoveEvaluator::evaluate_full_candidate() {
  trail_.kind = Trail::kEval;
  // Park the baseline by swapping, not copying: the fused pass rewrites
  // every coordinate anyway, so the stale contents never get read.
  placement_.x.swap(trail_.x_full);
  placement_.y.swap(trail_.y_full);
  full_pass_xy(sp_.negative, pos_p_, widths_, heights_, local_x_, local_y_,
               placement_);
  // Even a full repack usually moves only a subset of blocks; diffing
  // against the parked baseline keeps dirty_blocks() exact, so the report
  // means the same thing on every path — but the diff is deferred to
  // dirty_blocks() itself, so callers that never ask (the annealer) never
  // pay for it.
  full_diff_pending_ = true;
  last_was_full_ = true;
  ++stats_.full_packs;
  BatchMetrics::get().full_packs.inc();
}

void BatchedMoveEvaluator::close_window(bool accepted) {
  if (window_len_ == 0) return;
  ++stats_.windows;
  BatchMetrics::get().windows.inc();
  BatchMetrics::get().window_len.record(window_len_);
  window_len_ = 0;
  // A window that closed without a single accept is the rejection-heavy
  // regime the dominance index exists for — rebuild it now so the next
  // window's candidates take the persistent path. Demand-gated: only
  // after a qualifying candidate (dirty small enough for the persistent
  // path) actually found the index stale. Workloads whose moves never
  // produce small dirty suffixes — uniform global swaps at the tuned
  // default thresholds, most of the time — never pay a build nothing
  // would read; local-move workloads re-arm the build every time.
  if (!accepted && index_stale_ && index_demand_) {
    rebuild_index();
    index_demand_ = false;
  }
}

const Placement& BatchedMoveEvaluator::apply(const AppliedMove& move) {
  WP_REQUIRE(move.i < n_ && move.j < n_, "move indices out of range");
  BatchMetrics& metrics = BatchMetrics::get();
  if (pending_) commit();  // the annealer moving on *is* acceptance
  if (window_len_ >= options_.batch_size) close_window(false);
  ++window_len_;
  ++stats_.candidates;
  metrics.candidates.inc();

  trail_.move = move;
  trail_.kind = Trail::kNone;
  trail_.width = placement_.width;
  trail_.height = placement_.height;
  ++stamp_;
  dirty_blocks_.clear();
  full_diff_pending_ = false;
  last_was_full_ = false;
  pending_ = true;

  // Path selection and the baseline-scoped prep (bbox rebuild, shared
  // prime) happen *before* the mirror swap: they walk the baseline Γ−
  // prefix, and first_dirty_position answers the same either side of the
  // mirror (see its comment).
  const std::size_t from = first_dirty_position(move);
  const std::size_t dirty = n_ - std::min(from, n_);
  if (dirty == 0) {  // degenerate i == j move
    apply_to_mirror(move);
    return placement_;
  }
  if (static_cast<double>(dirty) >
      options_.fallback_fraction * static_cast<double>(n_)) {
    apply_to_mirror(move);
    evaluate_full_candidate();
    return placement_;
  }
  if (prefix_bbox_stale_) rebuild_prefix_bbox();
  const bool qualifies =
      static_cast<double>(dirty) <=
          options_.persistent_fraction * static_cast<double>(n_);
  if (qualifies && index_stale_) index_demand_ = true;
  const bool use_index = qualifies && !index_stale_;
  if (use_index) {
    ++stats_.persistent_evals;
    metrics.persistent_evals.inc();
    stats_.reprime_positions_saved += from;
    metrics.reprime_positions_saved.add(from);
  } else {
    ensure_primed(from);
    ++stats_.prime_evals;
    metrics.prime_evals.inc();
  }
  apply_to_mirror(move);
  evaluate_suffix(from, use_index);
  return placement_;
}

void BatchedMoveEvaluator::commit() {
  WP_REQUIRE(pending_, "commit() without a pending candidate");
  pending_ = false;
  ++stats_.commits;
  BatchMetrics::get().commits.inc();
  if (trail_.kind != Trail::kNone) {
    // The candidate is the new baseline: every baseline-scoped structure
    // now describes the wrong state. The shared prime restarts here; the
    // prefix-bbox and dominance-index rebuilds are deferred until a
    // suffix-path candidate (resp. a rejection-heavy window close)
    // actually needs them — accept-heavy full-repack phases never pay.
    prefix_bbox_stale_ = true;
    invalidate_prime();
    index_stale_ = true;
  }
  close_window(true);
}

void BatchedMoveEvaluator::revert() {
  WP_REQUIRE(pending_, "revert() without a pending candidate");
  pending_ = false;
  if (trail_.kind == Trail::kEval) {
    placement_.x.swap(trail_.x_full);
    placement_.y.swap(trail_.y_full);
  }
  placement_.width = trail_.width;
  placement_.height = trail_.height;
  apply_to_mirror(trail_.move);  // moves are involutions
}

}  // namespace wp::fplan
