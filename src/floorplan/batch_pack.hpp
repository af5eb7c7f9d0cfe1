// Per-move packing for the annealer's move loop: one prefix-reusing pass.
//
// The O(n log n) packer (pack_engine.hpp) walks blocks in Γ− order and
// places each at the max reach of its predecessors, answered by a Fenwick
// tree of prefix maxima keyed by Γ+ position. A sequence-pair move leaves
// a clean Γ− prefix [0, from) untouched: first_dirty_position() proves
// that every block there keeps its Γ− position, its Γ+ key and therefore
// its coordinate. BatchedMoveEvaluator evaluates each candidate with a
// single kernel, pass_from(from):
//   - Γ− positions [0, from): copy the baseline coordinate from the
//     parked arrays and insert its reach into the two axis trees — no
//     prefix_max query;
//   - Γ− positions [from, n): the usual prefix_max/update relaxation.
// A full pack is simply from = 0. Every coordinate the kernel writes is
// the one the fused from-scratch pass would compute (the copied prefix
// coordinates are that pass's own outputs on the unchanged prefix), so
// placements are bitwise equal to naive pack(); the differential suite
// (tests/test_pack_equivalence.cpp) enforces this against pack() for
// from = 0, tail-local from and degenerate moves.
//
// The baseline is parked by swapping the coordinate arrays, never by
// copying: the kernel rewrites all n coordinates, so revert() is a swap
// back and commit() costs nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "floorplan/model.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"

namespace wp::fplan {

/// Per-move packing against the last committed placement. Mirrors the
/// caller's SequencePair internally, so the caller keeps using
/// random_move()/undo_move() on its own copy and forwards each AppliedMove
/// here, with an explicit commit for accepted moves:
///
///   BatchedMoveEvaluator eval(inst, sp);
///   AppliedMove move = random_move(sp, rng);
///   const Placement& candidate = eval.apply(move);   // pending
///   ... accept: eval.commit();                        // new baseline
///   ... reject: undo_move(sp, move); eval.revert();   // baseline kept
///
/// apply() while a candidate is pending commits it first (the annealer
/// moving on *is* acceptance). commit()/revert() without a pending
/// candidate die loudly.
class BatchedMoveEvaluator {
 public:
  BatchedMoveEvaluator(const Instance& inst, const SequencePair& sp);

  const Placement& placement() const { return placement_; }
  const SequencePair& sequence_pair() const { return sp_; }

  /// Evaluates `move` against the current baseline. The caller must have
  /// applied the same move to its own SequencePair (random_move already
  /// did). Returns the candidate placement — bitwise equal to
  /// pack(inst, caller's sp).
  const Placement& apply(const AppliedMove& move);

  /// Accepts the pending candidate: it becomes the new baseline.
  void commit();

  /// Rejects the pending candidate: the baseline placement is restored.
  /// The caller must have undone the move on its own pair (undo_move).
  void revert();

  /// Full resynchronisation to an arbitrary sequence pair (new baseline).
  void reset(const SequencePair& sp);

  /// Evaluation counters (bench/test introspection); mirrored into the obs
  /// registry under pack/batch/*. A degenerate i == j move (from == n)
  /// counts as a candidate only, so candidates == full_packs +
  /// prime_evals + degenerate moves.
  struct Stats {
    std::uint64_t candidates = 0;   ///< apply() calls
    std::uint64_t commits = 0;      ///< accepted candidates
    std::uint64_t full_packs = 0;   ///< passes with from == 0
    std::uint64_t prime_evals = 0;  ///< passes with 0 < from < n
  };
  const Stats& stats() const { return stats_; }

 private:
  std::size_t first_dirty_position(const AppliedMove& move) const;
  void apply_to_mirror(const AppliedMove& move);
  void pass_from(std::size_t from);

  std::size_t n_ = 0;
  /// Flat copies of the block extents: the packing loop touches nothing
  /// else of Block, and Block carries a std::string name that would drag
  /// cold bytes through the hot loop's cache lines.
  std::vector<double> widths_, heights_;

  SequencePair sp_;                 ///< mirror of the caller's pair
  std::vector<std::size_t> pos_p_;  ///< block -> position in Γ+
  std::vector<std::size_t> pos_n_;  ///< block -> position in Γ−
  Placement placement_;
  /// The baseline while a repacked candidate is pending (swapped out of
  /// placement_); stale otherwise.
  Placement parked_;
  detail::MaxFenwick fx_, fy_;

  AppliedMove pending_move_;
  bool pending_ = false;
  bool parked_valid_ = false;  ///< pending candidate was repacked

  Stats stats_;
};

}  // namespace wp::fplan
