// Micro-benchmarks for the packing primitives under the annealer's hot
// loop: the epoch-stamped MaxFenwick (plain updates, logged updates with
// trail rewind, and the O(1)-amortised reset), the persistent dominance
// index (build cost and O(log² n) prefix queries), and the end-to-end
// per-move cost of rejection-heavy move chains under the
// BatchedMoveEvaluator. Each chain is replayed outside the timed region
// against naive pack(), move by move, and any bitwise placement divergence
// fails the run.
//
// Self-contained (no google-benchmark): deterministic seeded workloads,
// checksums printed so the measured loops cannot be optimised away, and a
// JSON artifact (default BENCH_pack_micro.json, --json PATH) that rides
// the tools/bench_diff Release-CI gate. Aggregate `*_total_ms` fields are
// the gated wall-clock numbers; the derived per-op `*_ns` fields sit below
// the gate's noise floor and are informational.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cli/arg_parser.hpp"
#include "floorplan/batch_pack.hpp"
#include "floorplan/instances.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using wp::fplan::AppliedMove;
using wp::fplan::BatchedMoveEvaluator;
using wp::fplan::Instance;
using wp::fplan::Placement;
using wp::fplan::SequencePair;
using wp::fplan::SpMove;
using wp::fplan::detail::DominanceIndex;
using wp::fplan::detail::MaxFenwick;

constexpr std::size_t kBlocks = 256;
/// Local-move chains swap within the last kLocalSpan Γ− positions.
constexpr std::size_t kLocalSpan = 12;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One full-pack-shaped Fenwick pass: n interleaved prefix_max/update
/// pairs, the exact access pattern of the O(n log n) packer.
double fenwick_pass(MaxFenwick& fw, const std::vector<std::size_t>& keys,
                    const std::vector<double>& vals) {
  fw.reset(kBlocks);
  double checksum = 0;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    const double coord = fw.prefix_max(keys[i] + 1);
    checksum += coord;
    fw.update(keys[i], coord + vals[i]);
  }
  return checksum;
}

struct ChainRun {
  double total_ms = 0;
  double checksum = 0;
  bool matches_naive = true;
  BatchedMoveEvaluator::Stats stats;
};

/// Drives a BatchedMoveEvaluator through `moves` candidates drawn by
/// draw(sp, rng) (which applies the move to `sp`), accepting one in 16 —
/// the annealing cold tail. Only the move loop is timed. With
/// `check_naive` every candidate is also compared bitwise against naive
/// pack() of the same pair: the untimed replay that guards the timed run.
template <typename DrawMove>
ChainRun run_chain(const Instance& inst, std::uint64_t seed, int moves,
                   const DrawMove& draw, bool check_naive) {
  wp::Rng rng(seed);
  SequencePair sp = SequencePair::random(kBlocks, rng);
  BatchedMoveEvaluator evaluator(inst, sp);
  ChainRun run;
  const auto start = std::chrono::steady_clock::now();
  for (int m = 0; m < moves; ++m) {
    const AppliedMove move = draw(sp, rng);
    const Placement& candidate = evaluator.apply(move);
    run.checksum += candidate.area();
    if (check_naive) {
      const Placement naive = pack(inst, sp);
      run.matches_naive = run.matches_naive && candidate.x == naive.x &&
                          candidate.y == naive.y &&
                          candidate.width == naive.width &&
                          candidate.height == naive.height;
    }
    if (m % 16 != 15) {
      undo_move(sp, move);
      evaluator.revert();
    } else {
      evaluator.commit();
    }
  }
  run.total_ms = ms_since(start);
  run.stats = evaluator.stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wp;

  cli::ArgParser parser("bench_pack_micro",
                        "Packing-primitive micro-benchmarks.");
  parser.option("--json", "PATH", "BENCH_pack_micro.json",
                "machine-readable timing artifact");
  parser.parse_or_exit(argc, argv);
  const std::string json_path = parser.get("--json");

  Rng rng(17);
  // Shared deterministic workload: a random key permutation plus positive
  // block extents, the shape a full pack feeds the tree.
  std::vector<std::size_t> keys(kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) keys[i] = i;
  for (std::size_t i = kBlocks - 1; i > 0; --i)
    std::swap(keys[i], keys[rng.below(i + 1)]);
  std::vector<double> vals(kBlocks);
  for (double& v : vals) v = 1.0 + static_cast<double>(rng.below(1000));

  TextTable table({"primitive", "workload", "total ms", "per op"});
  table.add_section("Packing primitives at n = " + std::to_string(kBlocks));
  table.add_separator();

  // ---------------------------------------------------- plain Fenwick
  const int fenwick_reps = 20000;
  MaxFenwick fw;
  double checksum = 0;
  const auto fenwick_start = std::chrono::steady_clock::now();
  for (int r = 0; r < fenwick_reps; ++r) checksum += fenwick_pass(fw, keys, vals);
  const double fenwick_total_ms = ms_since(fenwick_start);
  const double fenwick_op_ns = fenwick_total_ms * 1e6 /
                               (fenwick_reps * kBlocks * 2.0);
  table.add_row({"MaxFenwick", "update+prefix_max pass x" +
                                   std::to_string(fenwick_reps),
                 fmt_fixed(fenwick_total_ms, 1),
                 fmt_fixed(fenwick_op_ns, 1) + " ns/op"});

  // --------------------------------------------- logged update + rewind
  // The batched evaluator's shared-prime pattern: extend the tree with
  // logged updates, take a mark halfway, keep extending, then rewind to
  // the mark — paying the trail on every node write.
  const int logged_reps = 20000;
  double logged_checksum = 0;
  const auto logged_start = std::chrono::steady_clock::now();
  for (int r = 0; r < logged_reps; ++r) {
    fw.reset(kBlocks);
    for (std::size_t i = 0; i < kBlocks / 2; ++i)
      fw.update_logged(keys[i], vals[i]);
    const std::size_t mark = fw.mark();
    for (std::size_t i = kBlocks / 2; i < kBlocks; ++i)
      fw.update_logged(keys[i], vals[i]);
    logged_checksum += fw.prefix_max(kBlocks);
    fw.rewind(mark);
    logged_checksum += fw.prefix_max(kBlocks);
  }
  const double logged_total_ms = ms_since(logged_start);
  const double logged_op_ns =
      logged_total_ms * 1e6 / (logged_reps * kBlocks * 1.5);
  table.add_row({"MaxFenwick", "logged update + rewind x" +
                                   std::to_string(logged_reps),
                 fmt_fixed(logged_total_ms, 1),
                 fmt_fixed(logged_op_ns, 1) + " ns/op"});

  // ------------------------------------------------- dominance index
  std::vector<std::uint32_t> leaf_keys(kBlocks);
  std::vector<double> leaf_vals(kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    leaf_keys[i] = static_cast<std::uint32_t>(keys[i]);
    leaf_vals[i] = vals[i];
  }
  DominanceIndex dom;
  const int build_reps = 5000;
  const auto build_start = std::chrono::steady_clock::now();
  for (int r = 0; r < build_reps; ++r) dom.build(leaf_keys, leaf_vals);
  const double dom_build_total_ms = ms_since(build_start);
  const double dom_build_us = dom_build_total_ms * 1000.0 / build_reps;
  table.add_row({"DominanceIndex", "build x" + std::to_string(build_reps),
                 fmt_fixed(dom_build_total_ms, 1),
                 fmt_fixed(dom_build_us, 2) + " us/build"});

  const int query_reps = 2000000;
  double query_checksum = 0;
  Rng query_rng(23);
  const auto query_start = std::chrono::steady_clock::now();
  for (int r = 0; r < query_reps; ++r) {
    const std::size_t prefix = query_rng.below(kBlocks + 1);
    const auto bound = static_cast<std::uint32_t>(query_rng.below(kBlocks));
    query_checksum += dom.query(prefix, bound);
  }
  const double dom_query_total_ms = ms_since(query_start);
  const double dom_query_ns = dom_query_total_ms * 1e6 / query_reps;
  table.add_row({"DominanceIndex", "query x" + std::to_string(query_reps),
                 fmt_fixed(dom_query_total_ms, 1),
                 fmt_fixed(dom_query_ns, 1) + " ns/query"});

  // ------------------------------- rejection-heavy move chain, n = 256
  // The annealing cold tail: 1 move in 16 accepted, uniform global swaps.
  // The replay must match naive pack() at every move, and its checksum
  // must equal the timed run's (same seed, so the same chain).
  const Instance inst = wp::fplan::synthetic_instance(kBlocks, 11);
  const int chain_moves = 4000;
  const auto global_move = [](SequencePair& sp, Rng& chain_rng) {
    return random_move(sp, chain_rng);
  };
  const ChainRun chain = run_chain(inst, 31, chain_moves, global_move, false);
  const ChainRun chain_replay =
      run_chain(inst, 31, chain_moves, global_move, true);
  if (!chain_replay.matches_naive ||
      chain_replay.checksum != chain.checksum) {
    std::cerr << "BATCHED ENGINE DIVERGENCE from naive pack() in micro "
                 "chain\n";
    return 1;
  }
  table.add_row({"BatchedMoveEvaluator", "1-in-16 accept chain x" +
                                             std::to_string(chain_moves),
                 fmt_fixed(chain.total_ms, 1),
                 fmt_fixed(chain.total_ms * 1000.0 / chain_moves, 2) +
                     " us/move"});

  // ------------------------------- local-move chain (tail refinement)
  // Rejection-heavy *local* moves — swaps confined to the last few Γ−
  // positions, the shape of late-anneal refinement — keep the dirty
  // suffix tiny and the clean prefix huge. This is the persistent
  // dominance index's home regime: no per-candidate prefix prime at all.
  const int local_moves = 4000;
  const auto local_move = [](SequencePair& sp, Rng& chain_rng) {
    const std::size_t i = kBlocks - 1 - chain_rng.below(kLocalSpan);
    std::size_t j = kBlocks - 1 - chain_rng.below(kLocalSpan);
    if (j == i) j = kBlocks - 1 - ((kBlocks - 1 - j + 1) % kLocalSpan);
    const AppliedMove move{SpMove::kSwapNegative, i, j};
    apply_move(sp, move);
    return move;
  };
  const ChainRun local = run_chain(inst, 37, local_moves, local_move, false);
  const ChainRun local_replay =
      run_chain(inst, 37, local_moves, local_move, true);
  if (!local_replay.matches_naive ||
      local_replay.checksum != local.checksum) {
    std::cerr << "BATCHED ENGINE DIVERGENCE from naive pack() in local-move "
                 "chain\n";
    return 1;
  }
  table.add_row({"BatchedMoveEvaluator", "local 1-in-16 chain x" +
                                             std::to_string(local_moves),
                 fmt_fixed(local.total_ms, 1),
                 fmt_fixed(local.total_ms * 1000.0 / local_moves, 2) +
                     " us/move"});
  table.print(std::cout);
  const BatchedMoveEvaluator::Stats& stats = chain.stats;
  std::cout << "chain path split: " << stats.persistent_evals
            << " persistent / " << stats.prime_evals << " primed / "
            << stats.full_packs << " full; " << stats.index_rebuilds
            << " index rebuilds\n";
  const BatchedMoveEvaluator::Stats& local_stats = local.stats;
  std::cout << "local chain path split: " << local_stats.persistent_evals
            << " persistent / " << local_stats.prime_evals << " primed / "
            << local_stats.full_packs << " full; "
            << local_stats.index_rebuilds << " index rebuilds; "
            << local_stats.reprime_positions_saved
            << " prime positions saved\n";
  std::cout << "checksums: " << checksum << " " << logged_checksum << " "
            << query_checksum << " " << chain.checksum << "\n";

  // ---------------------------------------------------- JSON artifact
  std::ofstream file(json_path);
  if (!file) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  json::JsonWriter json(file);
  json.begin_object();
  json.field("schema", "wirepipe-bench-pack-micro/1");
  json.field("blocks", kBlocks);
  json.field("fenwick_pass_total_ms", fenwick_total_ms)
      .field("fenwick_op_ns", fenwick_op_ns)
      .field("fenwick_logged_total_ms", logged_total_ms)
      .field("fenwick_logged_op_ns", logged_op_ns)
      .field("dominance_build_total_ms", dom_build_total_ms)
      .field("dominance_build_us_each", dom_build_us)
      .field("dominance_query_total_ms", dom_query_total_ms)
      .field("dominance_query_op_ns", dom_query_ns)
      .field("chain_batched_total_ms", chain.total_ms)
      .field("local_chain_batched_total_ms", local.total_ms);
  json.end_object();
  file << "\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
