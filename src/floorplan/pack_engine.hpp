// Packing-engine selection and the shared Fenwick primitive.
//
// The annealer runs one of two engines: naive pack() (sequence_pair.cpp),
// the O(n²) relaxation kept as the differential-testing oracle, and the
// BatchedMoveEvaluator (batch_pack.hpp), which delta-evaluates moves in
// O(n log n) or better with a Fenwick tree of prefix maxima over Γ+
// positions (the weighted-LCS formulation of Tang/Wong).
//
// Bit-identity contract: the batched evaluator produces Placements bitwise
// equal to pack(). The naive relaxation computes each coordinate as a max
// over a candidate set of x[a]+w[a] (resp. y[a]+h[a]) terms; the batched
// paths take the max over exactly the same set of exactly the same double
// terms, and IEEE max is associative and commutative, so evaluation order
// cannot change the result. The differential suite
// (tests/test_pack_equivalence.cpp) enforces this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wp::fplan {

/// Which packing implementation the annealer (and everything layered on
/// it) uses. Both engines produce bitwise-identical placements: kNaive is
/// the O(n²) reference kept as the differential-testing oracle, kBatched
/// the speculative BatchedMoveEvaluator (batch_pack.hpp) that amortizes
/// the clean-prefix work across a window of candidate moves against one
/// pinned baseline. The values cross the wire (eval::AnnealKnobs), so a
/// retired engine's number stays reserved and is never reused.
enum class PackEngine {
  kNaive = 0,
  /* 1 was kFast, retired */
  kBatched = 2,
  /* 3 was kParallel, retired */
};

const char* pack_engine_name(PackEngine engine);

namespace detail {

/// Fenwick (binary-indexed) tree of prefix maxima over sequence positions.
/// Values are non-negative (coordinates plus positive extents), so 0.0 is
/// the identity and matches the naive packer's x = 0 start. reset() is
/// O(1) via epoch stamping: stale nodes are treated as empty rather than
/// cleared, so a re-pack never pays an O(n) wipe up front.
class MaxFenwick {
 public:
  void reset(std::size_t size);

  /// Raises the stored maximum at `index` (0-based) to at least `value`.
  void update(std::size_t index, double value);

  /// Max over indices [0, count); 0.0 when the range is empty.
  double prefix_max(std::size_t count) const;

  /// Like update(), but records every node it changes so rewind() can
  /// restore the tree to an earlier mark(). This is what lets the batched
  /// evaluator keep one shared tree primed to a *moving* Γ− prefix: advance
  /// with update_logged(), retreat with rewind(), never re-prime from zero.
  void update_logged(std::size_t index, double value);

  /// Trail position for a later rewind(). Only monotone while mutations go
  /// through update_logged(); reset() clears the trail and all marks.
  std::size_t mark() const { return trail_.size(); }

  /// Undoes every update_logged() recorded after `mark`, restoring both
  /// node values and epoch stamps.
  void rewind(std::size_t mark);

 private:
  struct TrailEntry {
    std::size_t node;
    std::uint64_t epoch;
    double value;
  };

  std::vector<double> tree_;
  std::vector<std::uint64_t> epoch_;
  std::uint64_t current_epoch_ = 0;
  std::vector<TrailEntry> trail_;
};

}  // namespace detail

}  // namespace wp::fplan
