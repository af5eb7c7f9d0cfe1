// Packing-engine selection and the shared Fenwick primitive.
//
// The annealer runs one of two engines: naive pack() (sequence_pair.cpp),
// the O(n²) relaxation kept as the differential-testing oracle, and the
// BatchedMoveEvaluator (batch_pack.hpp), which evaluates each move in
// O(n log n) with a Fenwick tree of prefix maxima over Γ+ positions (the
// weighted-LCS formulation of Tang/Wong), reusing the baseline
// coordinates of the clean Γ− prefix.
//
// Bit-identity contract: the batched evaluator produces Placements bitwise
// equal to pack(). The naive relaxation computes each coordinate as a max
// over a candidate set of x[a]+w[a] (resp. y[a]+h[a]) terms; the Fenwick
// pass takes the max over exactly the same set of exactly the same double
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
/// the BatchedMoveEvaluator (batch_pack.hpp), one prefix-reusing Fenwick
/// pass per candidate move. The values cross the wire (eval::AnnealKnobs),
/// so a retired engine's number stays reserved and is never reused.
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

 private:
  std::vector<double> tree_;
  std::vector<std::uint64_t> epoch_;
  std::uint64_t current_epoch_ = 0;
};

}  // namespace detail

}  // namespace wp::fplan
