// Static throughput analysis of a wire-pipelined system: the per-loop
// inventory behind the paper's Figure 1 discussion and the m/(m+n) WP1
// predictions of Table 1.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/cycle_ratio.hpp"
#include "graph/cycles.hpp"
#include "graph/digraph.hpp"

namespace wp::graph {

/// One row of the loop inventory.
struct LoopReportEntry {
  std::string description;  ///< "CU -> IC -> CU"
  int m = 0;                ///< processes on the loop
  int n = 0;                ///< relay stations on the loop
  double throughput = 1.0;  ///< m/(m+n) with the current RS counts
};

struct ThroughputReport {
  std::vector<LoopReportEntry> loops;  ///< sorted by ascending throughput
  double system_throughput = 1.0;      ///< min over loops (1.0 if acyclic)
  std::string critical_loop;           ///< description of the worst loop
};

/// Enumerates all loops and evaluates each with the graph's current
/// relay-station counts.
ThroughputReport analyze_throughput(const Digraph& g);

/// System throughput only (min cycle ratio, no enumeration) — scales to
/// graphs whose loop count explodes.
double system_throughput(const Digraph& g);

/// WP1 throughput prediction for a named single-connection configuration:
/// the minimum m/(m+n) over the loops that traverse at least one edge with
/// relay stations. Loops untouched by pipelining run at 1.0.
double predicted_wp1_throughput(const Digraph& g);

/// Stateful throughput oracle: owns a copy of the base graph, applies
/// per-connection relay-station counts by label, and warm-starts Howard's
/// policy iteration from the previous query — but still pays a whole-graph
/// RS reset and a cold certification probe per evaluation.
///
/// This is the REFERENCE oracle, kept verbatim as the differential-testing
/// baseline (the role naive pack() plays for the packing engine): the hot
/// paths now run graph::ThroughputEngine (throughput_engine.hpp), which is
/// bit-identical and applies demands as incremental in-place deltas with a
/// lazily repaired certificate. tests/test_throughput_engine.cpp holds the
/// two together. It stays because a fresh Howard solve per query is too
/// slow to serve as the CI reference: replaying bench_floorplan_flow's
/// throughput-driven anneals (4000 iterations) with a fresh-Howard
/// throughput_fn gave bit-identical trajectories but took 45 s at 100
/// blocks and 225 s at 150, against 6.7 s and 18 s through this evaluator
/// (4-core x86-64 host, g++ 12.2, Release).
///
/// Returns exactly min_cycle_ratio over the configured graph (Howard is
/// certified and falls back to the parametric search when the certificate
/// fails), so warm starts never change a result, only its cost.
///
/// Not thread-safe: give each worker thread its own evaluator.
class ThroughputEvaluator {
 public:
  explicit ThroughputEvaluator(Digraph base);

  /// Throughput with per-connection RS counts from `demand`; connections
  /// not mentioned keep the base graph's counts.
  double operator()(const std::vector<std::pair<std::string, int>>& demand);

  /// Same, keyed form (the experiment driver's RsConfig::rs shape).
  double with_rs_map(const std::map<std::string, int>& rs);

  std::uint64_t queries() const { return queries_; }

 private:
  void reset_rs();
  void apply(const std::string& label, int relay_stations);
  double evaluate();

  Digraph g_;
  std::vector<int> base_rs_;  ///< per-edge counts of the base graph
  std::unordered_map<std::string, std::vector<EdgeId>> edges_by_label_;
  HowardState state_;
  std::uint64_t queries_ = 0;
};

}  // namespace wp::graph
