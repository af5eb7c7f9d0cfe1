// Batched speculative packing: sub-linear candidate evaluation for the
// annealer's move loop.
//
// A Fenwick tree of prefix maxima over Γ+ positions (pack_engine.hpp) makes
// a move O(n log n) instead of naive pack()'s O(n²), but a one-move packer
// still re-primes that tree over the clean Γ− prefix for every candidate —
// for a *rejected* move that prefix work is pure waste, and at annealing
// temperatures where most moves are rejected it dominates.
// BatchedMoveEvaluator removes it two ways, both pinned to the same law as
// everything else in this stack: placements bitwise equal to naive pack().
//
// 1. Speculation windows over a pinned baseline. Candidates are grouped
//    into windows of up to K = BatchOptions::batch_size moves that are all
//    evaluated against one shared baseline placement (the last committed
//    state). While a window is open, every baseline-derived structure —
//    the dominance index, the incrementally-primed shared Fenwick trees,
//    the prefix bounding-box arrays — stays valid and is reused from one
//    candidate to the next, so the per-candidate cost is proportional to
//    the dirty suffix, not to n. Acceptance decisions stay strictly
//    sequential (the annealer's RNG draws its acceptance uniform only
//    after seeing each candidate's cost), so the accepted trajectory is
//    bit-identical to the serial annealer: batching amortizes the
//    *baseline-scoped* work across the window, never the decisions.
//
// 2. A persistent 2D dominance index over (Γ−, Γ+) positions. The clean-
//    prefix question a candidate asks is "max of coord+extent over blocks
//    at Γ− position < from whose Γ+ key is < q". detail::DominanceIndex
//    answers it in O(log² n) from a merge-tree built once per baseline:
//    level ℓ stores, for each aligned slab of 2^ℓ consecutive Γ− positions,
//    the slab's entries sorted by Γ+ key with running prefix maxima. A
//    prefix [0, from) decomposes into ≤ log n aligned slabs (the set bits
//    of `from`), each answered by one binary search. A rejected candidate
//    with dirty suffix d therefore costs O(d·log² n) — no prefix re-prime
//    at all. The index survives every rejected candidate and every
//    rewind; only a *committed* move (a new baseline) invalidates it, and
//    rebuilds are deferred until a window closes rejection-heavy *and* a
//    qualifying candidate has actually found the index stale — exactly
//    the regime where the build amortizes.
//
// Path selection per candidate (all bit-identical, purely a cost trade):
//   - dirty == 0 (degenerate i == j move): nothing to do;
//   - dirty > fallback_fraction·n: full repack;
//   - index fresh and dirty ≤ persistent_fraction·n: persistent path —
//     dominance-index queries + a small local Fenwick over the dirty
//     suffix only;
//   - otherwise: classic path — shared Fenwick trees primed exactly to
//     [0, from), maintained *incrementally* across candidates with
//     update_logged()/rewind() so consecutive candidates pay only the
//     |from − previous from| prime delta.
//
// Why the overlay split is exact: for every SpMove kind, blocks in the
// clean Γ− prefix [0, from) keep their Γ− positions, their Γ+ keys and
// their coordinates (first_dirty_position guarantees swapped blocks land
// at Γ− ≥ from), so baseline-keyed prefix answers are valid mid-candidate.
// A dirty block's coordinate is then max(prefix answer, local dirty-region
// Fenwick answer) — the same multiset of IEEE doubles the naive relaxation
// maxes over (∪ {0.0}, the identity), and IEEE max over non-negative
// doubles is order- and grouping-independent, so the result is bitwise
// identical however the set is split. The differential suite
// (tests/test_pack_equivalence.cpp) enforces this against naive pack()
// for every path and every window size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "floorplan/model.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"

namespace wp::fplan {

namespace detail {

/// Static prefix-dominance index over one packing axis: leaf k holds the
/// baseline (Γ+ key, coord+extent) of the block at Γ− position k.
/// query(prefix, key_bound) returns the max value over leaves [0, prefix)
/// with key < key_bound, 0.0 when empty — exactly the clean-prefix
/// question of the weighted-LCS relaxation, in O(log² n).
///
/// Rebuilds reuse the level buffers (the structure is "versioned" the same
/// way MaxFenwick is epoch-stamped: storage persists, contents are stamped
/// over), so a rebuild is an allocation-free O(n log n) merge pass after
/// the first.
class DominanceIndex {
 public:
  /// Rebuilds from per-leaf keys/values given in Γ− order. Keys must be
  /// < UINT32_MAX (padding sentinel). Values must be non-negative.
  void build(const std::vector<std::uint32_t>& leaf_keys,
             const std::vector<double>& leaf_values);

  /// Max value over leaves [0, prefix) whose key < key_bound; 0.0 if none.
  double query(std::size_t prefix, std::uint32_t key_bound) const;

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;       ///< leaf count (logical)
  std::size_t padded_ = 0;  ///< leaves padded to a power of two
  std::size_t levels_ = 0;  ///< log2(padded_) + 1
  /// Flat per-level storage: level ℓ occupies [ℓ·padded_, (ℓ+1)·padded_),
  /// laid out slab-by-slab in leaf order; each slab is sorted by key.
  std::vector<std::uint32_t> keys_;
  std::vector<double> vals_;  ///< raw values (build input for level ℓ+1)
  std::vector<double> pmax_;  ///< running prefix max within each slab
};

}  // namespace detail

/// Tuning knobs for the batched evaluator. Every setting is trajectory-
/// safe: paths differ only in cost, never in results.
struct BatchOptions {
  /// Speculation-window cap K: how many candidates may share one baseline
  /// before the window is closed (and a stale dominance index rebuilt).
  std::size_t batch_size = 8;
  /// Dirty-suffix share of n above which a candidate takes the full-repack
  /// path. Tuned low: the fused two-axis full pass is a sequential kernel at
  /// ~n·30ns, while a suffix evaluation pays the shared-prime delta plus
  /// ~100ns per dirty position — measured crossover near dirty ≈ 0.2n.
  /// Under uniform global swaps most candidates dirty most of the suffix,
  /// so the full pass is the common case and the suffix machinery earns
  /// its keep on the minority of prefix-preserving moves.
  double fallback_fraction = 0.15;
  /// Dirty-suffix share of n up to which a fresh dominance index is
  /// preferred over the incrementally-primed shared Fenwick trees. The
  /// O(log² n) query costs ~25x a primed prefix_max, but skips the prime
  /// entirely — it pays only when the dirty suffix is far smaller than
  /// the clean prefix it would have primed.
  double persistent_fraction = 0.05;
};

/// Speculative per-move packing against a pinned baseline. Mirrors the
/// caller's SequencePair internally, so the caller keeps using
/// random_move()/undo_move() on its own copy and forwards each AppliedMove
/// here, with an explicit commit for accepted moves:
///
///   BatchedMoveEvaluator eval(inst, sp);
///   AppliedMove move = random_move(sp, rng);
///   const Placement& candidate = eval.apply(move);   // speculative
///   ... accept: eval.commit();                        // new baseline
///   ... reject: undo_move(sp, move); eval.revert();   // baseline kept
///
/// apply() while a candidate is pending commits it first (the annealer
/// moving on *is* acceptance). commit()/revert() without a pending
/// candidate die loudly.
class BatchedMoveEvaluator {
 public:
  explicit BatchedMoveEvaluator(const Instance& inst, const SequencePair& sp,
                                const BatchOptions& options = {});

  const Placement& placement() const { return placement_; }
  const SequencePair& sequence_pair() const { return sp_; }

  /// Evaluates `move` speculatively against the current baseline. The
  /// caller must have applied the same move to its own SequencePair
  /// (random_move already did). Returns the candidate placement — bitwise
  /// equal to pack(inst, caller's sp).
  const Placement& apply(const AppliedMove& move);

  /// Accepts the pending candidate: it becomes the new baseline.
  void commit();

  /// Rejects the pending candidate: the baseline placement is restored.
  /// The caller must have undone the move on its own pair (undo_move).
  void revert();

  /// Full resynchronisation to an arbitrary sequence pair (new baseline).
  void reset(const SequencePair& sp);

  /// Blocks whose coordinates changed in the pending/last candidate
  /// (unique, unspecified order). Exact on every evaluation path: full
  /// repacks diff against the parked baseline, so incremental consumers
  /// can always work from this list. The full-repack diff is computed on
  /// first call (valid until the next apply()/reset()), so callers that
  /// never ask never pay it — hence non-const.
  const std::vector<std::uint32_t>& dirty_blocks();
  /// True when the pending/last candidate was evaluated by a full repack
  /// (the fallback path) — a cost signal, not a correctness one;
  /// dirty_blocks() is exact either way.
  bool last_was_full() const { return last_was_full_; }

  /// Evaluation-path counters (bench/test introspection); mirrored into
  /// the obs registry under pack/batch/*.
  struct Stats {
    std::uint64_t candidates = 0;        ///< apply() calls
    std::uint64_t commits = 0;           ///< accepted candidates
    std::uint64_t windows = 0;           ///< speculation windows closed
    std::uint64_t persistent_evals = 0;  ///< dominance-index path
    std::uint64_t prime_evals = 0;       ///< shared incremental-prime path
    std::uint64_t full_packs = 0;        ///< fallback full repacks
    std::uint64_t index_rebuilds = 0;    ///< dominance-index builds
    /// Γ− prime positions *not* re-primed thanks to incremental prime
    /// maintenance and the dominance index (vs a one-move packer that
    /// primes [0, from) from scratch every candidate).
    std::uint64_t reprime_positions_saved = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Trail {
    AppliedMove move;
    /// kNone: degenerate move, nothing to restore. kEval: the baseline
    /// coordinate arrays are parked in x_full/y_full (a bulk copy is ~two
    /// cache-line streams — far cheaper than a per-coordinate undo log at
    /// annealing dirty sizes) and revert() swaps them back.
    enum Kind { kNone, kEval } kind = kNone;
    std::vector<double> x_full, y_full;
    double width = 0.0;
    double height = 0.0;
  };

  std::size_t first_dirty_position(const AppliedMove& move) const;
  void apply_to_mirror(const AppliedMove& move);
  void evaluate_full_candidate();
  void evaluate_suffix(std::size_t from, bool use_index);
  void ensure_primed(std::size_t from);
  void rebuild_index();
  void rebuild_prefix_bbox();
  void invalidate_prime();
  void close_window(bool accepted);
  void mark_dirty(std::size_t block);

  const Instance* inst_;
  std::size_t n_ = 0;
  BatchOptions options_;
  /// Flat copies of the block extents: the packing loops touch nothing
  /// else of Block, and Block carries a std::string name that would drag
  /// cold bytes through the hot loop's cache lines.
  std::vector<double> widths_, heights_;

  SequencePair sp_;                 ///< mirror of the caller's pair
  std::vector<std::size_t> pos_p_;  ///< block -> position in Γ+
  std::vector<std::size_t> pos_n_;  ///< block -> position in Γ−
  Placement placement_;

  // Baseline-scoped structures (valid until the next commit/reset):
  detail::DominanceIndex dom_x_, dom_y_;  ///< persistent prefix answers
  bool index_stale_ = true;
  bool index_demand_ = false;  ///< a qualifying candidate found it stale
  detail::MaxFenwick shared_x_, shared_y_;  ///< primed to [0, primed_to_)
  std::size_t primed_to_ = 0;
  bool prefix_bbox_stale_ = false;  ///< rebuilt lazily by suffix paths
  std::vector<std::size_t> prime_mark_x_, prime_mark_y_;  ///< per position
  /// prefix_bbox_*_[p] = max over Γ− positions [0, p) of coord+extent
  /// under the baseline — O(dirty) bounding boxes instead of O(n).
  std::vector<double> prefix_bbox_x_, prefix_bbox_y_;

  // Per-candidate scratch:
  detail::MaxFenwick local_x_, local_y_;  ///< dirty-region overlay
  Trail trail_;
  bool pending_ = false;
  std::vector<std::uint32_t> dirty_blocks_;
  std::vector<std::uint64_t> dirty_stamp_;
  std::uint64_t stamp_ = 0;
  bool last_was_full_ = false;
  bool full_diff_pending_ = false;  ///< full-repack diff not materialized

  // Window state:
  std::size_t window_len_ = 0;

  // Index build scratch (reused across rebuilds):
  std::vector<std::uint32_t> leaf_keys_;
  std::vector<double> leaf_vals_;

  Stats stats_;
};

}  // namespace wp::fplan
