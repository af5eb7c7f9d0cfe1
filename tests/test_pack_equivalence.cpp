// Differential guardrail for the batched packing engine: the
// BatchedMoveEvaluator must be *bitwise* identical to the naive O(n²)
// pack() on randomized instances across sizes, including through long
// randomized move/undo chains, across the delta-vs-full-repack fallback
// paths, and across every batched evaluation path (persistent dominance
// index / incremental shared prime / full repack) and window size K. Also
// pins down the move involution invariants (apply+undo restores both
// permutations for every SpMove kind, i == j degenerate cases included),
// the exactness of the batched evaluator's dirty-block reports, and the
// engine-independence of the annealer: naive and batched runs of the same
// seed produce the same trajectory, serial and pooled restarts the same
// best, and the ensemble pipeline the same samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/assert.hpp"

#include "floorplan/annealer.hpp"
#include "floorplan/batch_pack.hpp"
#include "floorplan/instances.hpp"
#include "floorplan/model.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"
#include "gen/ensemble.hpp"
#include "graph/throughput.hpp"
#include "proc/cpu.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wp::fplan {
namespace {

::testing::AssertionResult placements_identical(const Placement& a,
                                                const Placement& b) {
  if (a.x != b.x || a.y != b.y || a.width != b.width ||
      a.height != b.height) {
    auto result = ::testing::AssertionFailure()
                  << "placements diverge: bbox (" << a.width << " x "
                  << a.height << ") vs (" << b.width << " x " << b.height
                  << ")";
    for (std::size_t i = 0; i < a.x.size() && i < b.x.size(); ++i)
      if (a.x[i] != b.x[i] || a.y[i] != b.y[i])
        result << "; block " << i << " at (" << a.x[i] << "," << a.y[i]
               << ") vs (" << b.x[i] << "," << b.y[i] << ")";
    return result;
  }
  return ::testing::AssertionSuccess();
}

/// Randomized instance of the requested size (synthetic_instance needs
/// n >= 2; the single-block case is built by hand).
Instance instance_of(std::size_t n, std::uint64_t seed) {
  if (n >= 2) return synthetic_instance(n, seed);
  Instance inst;
  inst.name = "one";
  inst.blocks = {{"solo", 1.7, 0.9}};
  return inst;
}

class PackEquivalence : public ::testing::TestWithParam<std::size_t> {};

// The O(n log n) full pass every batched baseline starts from (reset()
// runs it on an arbitrary pair), over many random pairs per size.
TEST_P(PackEquivalence, FastMatchesNaiveOnRandomSequencePairs) {
  const std::size_t n = GetParam();
  const Instance inst = instance_of(n, 31 * n + 1);
  wp::Rng rng(1000 + n);
  BatchedMoveEvaluator evaluator(inst, SequencePair::identity(n));
  const int rounds = n >= 100 ? 40 : 200;
  for (int round = 0; round < rounds; ++round) {
    const SequencePair sp = SequencePair::random(n, rng);
    evaluator.reset(sp);
    ASSERT_TRUE(placements_identical(evaluator.placement(), pack(inst, sp)))
        << "n=" << n << " round " << round;
  }
}

TEST_P(PackEquivalence, IncrementalConstructionMatchesNaive) {
  const std::size_t n = GetParam();
  const Instance inst = instance_of(n, 17 * n + 3);
  wp::Rng rng(2000 + n);
  const SequencePair sp = SequencePair::random(n, rng);
  const BatchedMoveEvaluator evaluator(inst, sp);
  ASSERT_TRUE(placements_identical(evaluator.placement(), pack(inst, sp)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackEquivalence,
                         ::testing::Values<std::size_t>(1, 2, 3, 8, 32, 128));

TEST(PackEquivalence, FastMatchesNaiveOnStructuredPairs) {
  const Instance inst = cpu_instance();
  const std::size_t n = inst.blocks.size();
  SequencePair identity = SequencePair::identity(n);
  ASSERT_TRUE(placements_identical(
      BatchedMoveEvaluator(inst, identity).placement(), pack(inst, identity)));
  SequencePair stacked = identity;  // reversed Γ+: a vertical stack
  std::reverse(stacked.positive.begin(), stacked.positive.end());
  ASSERT_TRUE(placements_identical(
      BatchedMoveEvaluator(inst, stacked).placement(), pack(inst, stacked)));
}

class IncrementalEquivalence : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(IncrementalEquivalence, RandomMoveUndoChainsMatchNaive) {
  // Half-reject chains with *implicit* acceptance: an accepted candidate is
  // never commit()ed, the next apply() commits it.
  const std::size_t n = GetParam();
  const Instance inst = instance_of(n, 7 * n + 5);
  wp::Rng rng(3000 + n);
  SequencePair sp = SequencePair::random(n, rng);
  BatchedMoveEvaluator evaluator(inst, sp);
  const int moves = n >= 100 ? 150 : 400;
  for (int m = 0; m < moves; ++m) {
    const AppliedMove move = random_move(sp, rng);
    const Placement& candidate = evaluator.apply(move);
    ASSERT_TRUE(placements_identical(candidate, pack(inst, sp)))
        << "n=" << n << " move " << m << " kind "
        << static_cast<int>(move.kind) << " i=" << move.i << " j=" << move.j;
    if (rng.chance(0.5)) {  // reject path: undo + revert must restore
      undo_move(sp, move);
      evaluator.revert();
      ASSERT_TRUE(
          placements_identical(evaluator.placement(), pack(inst, sp)))
          << "n=" << n << " after revert of move " << m;
      ASSERT_EQ(evaluator.sequence_pair().positive, sp.positive);
      ASSERT_EQ(evaluator.sequence_pair().negative, sp.negative);
    }
  }
  EXPECT_EQ(evaluator.stats().candidates,
            static_cast<std::uint64_t>(moves));
}

INSTANTIATE_TEST_SUITE_P(Sizes, IncrementalEquivalence,
                         ::testing::Values<std::size_t>(2, 3, 8, 32, 128));

// ----------------------------------------- batched speculative engine

class BatchedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchedEquivalence, SpeculativeChainsMatchNaiveForEveryWindowSize) {
  // Reject-biased chains (the annealing-tail regime the evaluator exists
  // for) through every window size: each candidate, each revert and each
  // commit must leave the evaluator bitwise equal to a fresh naive pack.
  // The same seed drives every K, so this also proves the chain the
  // evaluator walks — and therefore the trajectory — is K-independent.
  const std::size_t n = GetParam();
  const Instance inst = instance_of(n, 13 * n + 7);
  for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                              std::size_t{16}}) {
    wp::Rng rng(4000 + n);
    SequencePair sp = SequencePair::random(n, rng);
    BatchOptions options;
    options.batch_size = k;
    BatchedMoveEvaluator evaluator(inst, sp, options);
    const int moves = n >= 100 ? 150 : 400;
    for (int m = 0; m < moves; ++m) {
      const AppliedMove move = random_move(sp, rng);
      ASSERT_TRUE(placements_identical(evaluator.apply(move), pack(inst, sp)))
          << "n=" << n << " K=" << k << " move " << m << " kind "
          << static_cast<int>(move.kind) << " i=" << move.i
          << " j=" << move.j;
      if (rng.chance(0.7)) {  // reject: undo + revert must restore baseline
        undo_move(sp, move);
        evaluator.revert();
        ASSERT_TRUE(
            placements_identical(evaluator.placement(), pack(inst, sp)))
            << "n=" << n << " K=" << k << " after revert of move " << m;
        ASSERT_EQ(evaluator.sequence_pair().positive, sp.positive);
        ASSERT_EQ(evaluator.sequence_pair().negative, sp.negative);
      } else {
        evaluator.commit();
      }
    }
    EXPECT_EQ(evaluator.stats().candidates,
              static_cast<std::uint64_t>(moves));
    EXPECT_EQ(evaluator.stats().persistent_evals +
                  evaluator.stats().prime_evals +
                  evaluator.stats().full_packs,
              static_cast<std::uint64_t>(moves));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchedEquivalence,
                         ::testing::Values<std::size_t>(2, 3, 8, 32, 128));

TEST(BatchedMoveEvaluator, AllEvaluationPathsAgreeOnTheSameChain) {
  // Force each path: persistent_fraction = 1 with batch_size 1 rebuilds
  // the dominance index after every rejected window, so nearly every
  // candidate runs through the persistent structure; persistent_fraction
  // = 0 forces the incremental shared-prime path; fallback_fraction = 0
  // forces full repacks. All three walk the same move chain and must stay
  // bitwise identical to naive pack() throughout.
  const std::size_t n = 48;
  const Instance inst = synthetic_instance(n, 29);
  wp::Rng rng(31);
  SequencePair sp = SequencePair::random(n, rng);

  BatchOptions persistent;
  persistent.batch_size = 1;
  persistent.persistent_fraction = 1.0;
  persistent.fallback_fraction = 1.0;
  BatchOptions primed;
  primed.persistent_fraction = 0.0;
  primed.fallback_fraction = 1.0;
  BatchOptions full;
  full.fallback_fraction = 0.0;

  BatchedMoveEvaluator via_index(inst, sp, persistent);
  BatchedMoveEvaluator via_prime(inst, sp, primed);
  BatchedMoveEvaluator via_full(inst, sp, full);
  for (int m = 0; m < 300; ++m) {
    const AppliedMove move = random_move(sp, rng);
    const Placement& reference = pack(inst, sp);
    ASSERT_TRUE(placements_identical(via_index.apply(move), reference))
        << "persistent path, move " << m;
    ASSERT_TRUE(placements_identical(via_prime.apply(move), reference))
        << "prime path, move " << m;
    ASSERT_TRUE(placements_identical(via_full.apply(move), reference))
        << "full path, move " << m;
    if (rng.chance(0.6)) {
      undo_move(sp, move);
      via_index.revert();
      via_prime.revert();
      via_full.revert();
    } else {
      via_index.commit();
      via_prime.commit();
      via_full.commit();
    }
  }
  EXPECT_EQ(via_full.stats().persistent_evals, 0u);
  EXPECT_EQ(via_full.stats().prime_evals, 0u);
  EXPECT_GT(via_index.stats().persistent_evals, 0u);
  EXPECT_GT(via_index.stats().index_rebuilds, 0u);
  EXPECT_EQ(via_prime.stats().persistent_evals, 0u);
  EXPECT_GT(via_prime.stats().prime_evals, 0u);
  EXPECT_GT(via_prime.stats().reprime_positions_saved, 0u);
}

TEST(BatchedMoveEvaluator, ImplicitCommitMatchesExplicitCommit) {
  // apply() while a candidate is pending commits it. An accept-every-move
  // chain
  // driven that way must walk the same states as one with explicit
  // commit() calls, and both must track naive pack().
  const Instance inst = synthetic_instance(24, 41);
  wp::Rng rng(43);
  SequencePair sp = SequencePair::random(24, rng);
  BatchedMoveEvaluator implicit(inst, sp);
  BatchedMoveEvaluator explicit_commit(inst, sp);
  for (int m = 0; m < 120; ++m) {
    const AppliedMove move = random_move(sp, rng);
    implicit.apply(move);  // previous candidate (if any) commits here
    explicit_commit.apply(move);
    explicit_commit.commit();
    ASSERT_TRUE(placements_identical(implicit.placement(),
                                     explicit_commit.placement()))
        << "move " << m;
    ASSERT_TRUE(
        placements_identical(explicit_commit.placement(), pack(inst, sp)))
        << "move " << m;
  }
  EXPECT_EQ(implicit.stats().commits + 1, explicit_commit.stats().commits);
}

TEST(BatchedMoveEvaluator, FallbackBoundariesAndDegenerateMoves) {
  const Instance inst = synthetic_instance(8, 4);
  wp::Rng rng(5);
  const SequencePair sp = SequencePair::random(8, rng);
  // Degenerate i == j moves are no-ops on every path and revert cleanly.
  for (const SpMove kind :
       {SpMove::kSwapPositive, SpMove::kSwapNegative, SpMove::kSwapBoth}) {
    BatchedMoveEvaluator evaluator(inst, sp);
    const Placement before = evaluator.placement();
    const AppliedMove degenerate{kind, 5, 5};
    ASSERT_TRUE(placements_identical(evaluator.apply(degenerate), before));
    EXPECT_EQ(evaluator.sequence_pair().positive, sp.positive);
    EXPECT_EQ(evaluator.sequence_pair().negative, sp.negative);
    evaluator.revert();
    ASSERT_TRUE(placements_identical(evaluator.placement(), before));
    // ... and committing one must not invalidate the baseline structures.
    evaluator.apply(degenerate);
    evaluator.commit();
    ASSERT_TRUE(placements_identical(evaluator.placement(), before));
  }
  // The smallest legal instance exercises the n == 2 boundary where every
  // move dirties everything.
  const Instance tiny = synthetic_instance(2, 6);
  wp::Rng tiny_rng(7);
  SequencePair tiny_sp = SequencePair::random(2, tiny_rng);
  BatchedMoveEvaluator evaluator(tiny, tiny_sp);
  for (int m = 0; m < 50; ++m) {
    const AppliedMove move = random_move(tiny_sp, tiny_rng);
    ASSERT_TRUE(
        placements_identical(evaluator.apply(move), pack(tiny, tiny_sp)));
    undo_move(tiny_sp, move);
    evaluator.revert();
  }
}

TEST(BatchedMoveEvaluator, ResetResynchronisesToArbitraryPairs) {
  const Instance inst = synthetic_instance(12, 6);
  wp::Rng rng(21);
  SequencePair sp = SequencePair::random(12, rng);
  BatchedMoveEvaluator evaluator(inst, sp);
  for (int round = 0; round < 10; ++round) {
    const SequencePair fresh = SequencePair::random(12, rng);
    evaluator.reset(fresh);
    ASSERT_TRUE(
        placements_identical(evaluator.placement(), pack(inst, fresh)));
  }
}

TEST(BatchedMoveEvaluator, MisuseDiesLoudly) {
  const Instance inst = synthetic_instance(6, 2);
  wp::Rng rng(3);
  SequencePair sp = SequencePair::random(6, rng);
  EXPECT_THROW(BatchedMoveEvaluator(inst, SequencePair::identity(4)),
               wp::ContractViolation);
  BatchedMoveEvaluator evaluator(inst, sp);
  EXPECT_THROW(evaluator.commit(), wp::ContractViolation);  // nothing pending
  EXPECT_THROW(evaluator.revert(), wp::ContractViolation);
  EXPECT_THROW(evaluator.apply({SpMove::kSwapBoth, 0, 6}),
               wp::ContractViolation);
  const AppliedMove move = random_move(sp, rng);
  evaluator.apply(move);
  undo_move(sp, move);
  evaluator.revert();
  EXPECT_THROW(evaluator.revert(), wp::ContractViolation);  // double revert
  BatchOptions bad;
  bad.batch_size = 0;
  EXPECT_THROW(BatchedMoveEvaluator(inst, sp, bad), wp::ContractViolation);
}

// ------------------------------------------------ dirty-block reports

TEST(BatchedEvaluator, DirtyBlocksExactOnEveryPath) {
  // dirty_blocks() must list exactly the blocks whose coordinates the
  // candidate changed — no more, no fewer — on every evaluation path,
  // including the full-repack fallback (which diffs against the saved
  // baseline rather than reporting "everything").
  const std::size_t n = 32;
  const Instance inst = synthetic_instance(n, 19);
  for (const double fallback : {0.0, 0.75}) {
    wp::Rng rng(23);
    SequencePair sp = SequencePair::random(n, rng);
    BatchOptions options;
    options.fallback_fraction = fallback;
    BatchedMoveEvaluator evaluator(inst, sp, options);
    Placement baseline = evaluator.placement();
    for (int m = 0; m < 300; ++m) {
      const AppliedMove move = random_move(sp, rng);
      const Placement& candidate = evaluator.apply(move);
      if (fallback == 0.0 && move.i != move.j) {
        ASSERT_TRUE(evaluator.last_was_full());
      }
      std::vector<bool> reported(n, false);
      for (const std::uint32_t b : evaluator.dirty_blocks()) {
        ASSERT_LT(b, n);
        ASSERT_FALSE(reported[b]) << "duplicate dirty report, move " << m;
        reported[b] = true;
      }
      for (std::size_t b = 0; b < n; ++b) {
        const bool moved = candidate.x[b] != baseline.x[b] ||
                           candidate.y[b] != baseline.y[b];
        ASSERT_EQ(reported[b], moved) << "block " << b << ", move " << m;
      }
      if (rng.chance(0.6)) {
        undo_move(sp, move);
        evaluator.revert();
      } else {
        evaluator.commit();
        baseline = evaluator.placement();
      }
    }
  }
}

// --------------------------------------------------------------- moves

TEST(Moves, ApplyTwiceIsIdentityForEveryKind) {
  wp::Rng rng(8);
  SequencePair sp = SequencePair::random(9, rng);
  const SequencePair original = sp;
  const std::vector<std::pair<std::size_t, std::size_t>> index_pairs = {
      {0, 5}, {5, 0}, {8, 1}, {3, 3}, {0, 0}, {8, 8}, {2, 7}};
  for (const SpMove kind :
       {SpMove::kSwapPositive, SpMove::kSwapNegative, SpMove::kSwapBoth}) {
    for (const auto& [i, j] : index_pairs) {
      const AppliedMove move{kind, i, j};
      apply_move(sp, move);
      apply_move(sp, move);
      ASSERT_EQ(sp.positive, original.positive)
          << "kind " << static_cast<int>(kind) << " i=" << i << " j=" << j;
      ASSERT_EQ(sp.negative, original.negative);
    }
  }
}

TEST(Moves, UndoRestoresBothPermutationsForEveryKind) {
  wp::Rng rng(13);
  SequencePair sp = SequencePair::random(7, rng);
  const SequencePair original = sp;
  for (const SpMove kind :
       {SpMove::kSwapPositive, SpMove::kSwapNegative, SpMove::kSwapBoth}) {
    for (std::size_t i = 0; i < 7; ++i)
      for (std::size_t j = 0; j < 7; ++j) {  // includes every i == j case
        const AppliedMove move{kind, i, j};
        apply_move(sp, move);
        undo_move(sp, move);
        ASSERT_EQ(sp.positive, original.positive);
        ASSERT_EQ(sp.negative, original.negative);
      }
  }
}

TEST(Moves, EqualIndexMovesAreNoOps) {
  wp::Rng rng(2);
  SequencePair sp = SequencePair::random(5, rng);
  const SequencePair original = sp;
  for (const SpMove kind :
       {SpMove::kSwapPositive, SpMove::kSwapNegative, SpMove::kSwapBoth}) {
    apply_move(sp, {kind, 2, 2});
    EXPECT_EQ(sp.positive, original.positive);
    EXPECT_EQ(sp.negative, original.negative);
  }
}

TEST(Moves, RandomMoveDrawsDistinctIndicesAndValidKinds) {
  wp::Rng rng(55);
  SequencePair sp = SequencePair::random(6, rng);
  for (int it = 0; it < 500; ++it) {
    const SequencePair before = sp;
    const AppliedMove move = random_move(sp, rng);
    EXPECT_NE(move.i, move.j);
    EXPECT_LT(static_cast<int>(move.kind), static_cast<int>(SpMove::kCount));
    EXPECT_LT(move.i, 6u);
    EXPECT_LT(move.j, 6u);
    undo_move(sp, move);
    ASSERT_EQ(sp.positive, before.positive);
    ASSERT_EQ(sp.negative, before.negative);
  }
}

// ----------------------------------------------- annealer determinism

bool identical_results(const AnnealResult& a, const AnnealResult& b) {
  return a.cost == b.cost && a.area == b.area &&
         a.wirelength == b.wirelength && a.throughput == b.throughput &&
         a.seed == b.seed && a.accepted_moves == b.accepted_moves &&
         a.evaluations == b.evaluations &&
         a.sequence_pair.positive == b.sequence_pair.positive &&
         a.sequence_pair.negative == b.sequence_pair.negative &&
         a.placement.x == b.placement.x && a.placement.y == b.placement.y &&
         a.placement.width == b.placement.width &&
         a.placement.height == b.placement.height;
}

TEST(AnnealerEngines, AreaDrivenRunsAreBitIdenticalAcrossEngines) {
  const Instance inst = synthetic_instance(16, 3);
  AnnealOptions naive;
  naive.iterations = 2500;
  naive.seed = 17;
  naive.pack_engine = PackEngine::kNaive;
  AnnealOptions batched = naive;
  batched.pack_engine = PackEngine::kBatched;
  // The batched engine must reproduce the naive trajectory exactly; its
  // window size K amortizes baseline work and never reorders RNG draws or
  // decisions (BatchedEquivalence sweeps K directly).
  EXPECT_TRUE(identical_results(anneal(inst, naive), anneal(inst, batched)));
}

TEST(AnnealerEngines, ThroughputDrivenRunsAreBitIdenticalAcrossEngines) {
  const Instance inst = cpu_instance();
  const auto graph = wp::proc::make_cpu_graph();
  AnnealOptions naive;
  naive.iterations = 1200;
  naive.seed = 23;
  naive.weight_throughput = 200.0;
  naive.delay_model.clock_ps = 300.0;
  naive.throughput_fn = wp::graph::ThroughputEvaluator(graph);
  naive.pack_engine = PackEngine::kNaive;
  AnnealOptions batched = naive;
  batched.throughput_fn = wp::graph::ThroughputEvaluator(graph);
  batched.pack_engine = PackEngine::kBatched;
  EXPECT_TRUE(identical_results(anneal(inst, naive), anneal(inst, batched)));
}

TEST(AnnealerEngines, PooledRestartsMatchSerialForBothEngines) {
  // Extends the PR 2 sequential≡pooled guarantee to the floorplan path:
  // for each engine, anneal_parallel must reproduce the sequential best-of
  // exactly, and the two engines must land on the same best.
  const Instance inst = synthetic_instance(12, 5);
  AnnealResult best_per_engine[2];
  int engine_index = 0;
  for (const PackEngine engine : {PackEngine::kNaive, PackEngine::kBatched}) {
    ParallelAnnealOptions job;
    job.base.iterations = 1200;
    job.base.seed = 100;
    job.base.pack_engine = engine;
    job.restarts = 4;

    AnnealResult sequential;
    for (int i = 0; i < job.restarts; ++i) {
      AnnealOptions options = job.base;
      options.seed = job.base.seed + static_cast<std::uint64_t>(i);
      AnnealResult restart = anneal(inst, options);
      if (i == 0 || restart.cost < sequential.cost)
        sequential = std::move(restart);
    }
    for (const std::size_t workers : {1u, 4u}) {
      wp::ThreadPool pool(workers);
      job.pool = &pool;
      EXPECT_TRUE(identical_results(sequential, anneal_parallel(inst, job)))
          << pack_engine_name(engine) << " engine, " << workers
          << " workers";
    }
    best_per_engine[engine_index++] = sequential;
  }
  EXPECT_TRUE(identical_results(best_per_engine[0], best_per_engine[1]));
}

TEST(AnnealerEngines, EnsemblePipelineIsEngineIndependent) {
  // The ensemble runner inherits the engine through its AnnealOptions; the
  // whole generate→floorplan→RS→throughput pipeline must produce identical
  // samples either way (anneal_ms excluded from equality by design).
  gen::EnsembleConfig config;
  config.seed = 77;
  config.samples_per_family = 3;
  config.anneal.iterations = 400;
  gen::FamilySpec family;
  family.name = "ba-12";
  family.topology.family = gen::TopologyFamily::kBarabasiAlbert;
  family.topology.num_nodes = 12;
  family.topology.ba_attach = 2;
  config.families.push_back(family);

  config.anneal.pack_engine = PackEngine::kNaive;
  const gen::EnsembleReport with_naive = gen::run_ensemble_sequential(config);
  config.anneal.pack_engine = PackEngine::kBatched;
  const gen::EnsembleReport with_batched =
      gen::run_ensemble_sequential(config);
  ASSERT_EQ(with_naive.samples.size(), with_batched.samples.size());
  for (std::size_t i = 0; i < with_naive.samples.size(); ++i) {
    EXPECT_TRUE(with_naive.samples[i] == with_batched.samples[i])
        << "sample " << i << " diverged between naive and batched";
  }
}

}  // namespace
}  // namespace wp::fplan
