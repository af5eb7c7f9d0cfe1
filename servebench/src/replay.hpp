// Reply comparison and the traced, layered in-process replay.
//
// same_reply() compares two replies by value: FloorplanResult and
// StreamResult through their operator== (which leaves the wall-clock
// tokens_per_sec out), ExperimentRow field by field, errors by code and
// message.
//
// Replayer re-executes requests in this process through the public calls
// each layer exposes — gen::generate_topology/dress_topology,
// fplan::anneal with a private graph::ThroughputEngine, fplan::rs_demand,
// ThroughputEngine::throughput, ProgramRef::materialize,
// SimOracle::golden/run_experiment/wp2_throughput,
// stream::run_stream_graph, and the EvalRequest/EvalReply wire codec —
// with a timer around each call, and composes the reply the daemon would
// send. The per-layer totals are the benchmark's own spans, measured from
// outside the program, so they need nothing compiled into it.
#pragma once

#include <cstdint>
#include <string>

#include "eval/request.hpp"
#include "sim/oracle.hpp"

namespace servebench {

bool same_reply(const wp::eval::EvalReply& a, const wp::eval::EvalReply& b,
                std::string* why);

/// Oracle options of the daemon's SimOracle under a scrubbed environment:
/// LRU cap `cache`, no persistent store, full traces.
wp::sim::OracleOptions daemon_oracle_options(std::size_t cache);

/// Self times of the replay (nanoseconds, summed over requests).
struct LayerTimes {
  double codec_ns = 0;         ///< request+reply frame encode/decode
  double gen_ns = 0;           ///< generate_topology + dress_topology
  double engine_build_ns = 0;  ///< base digraph copy + ThroughputEngine
  double pack_ns = 0;          ///< AnnealResult::pack_ms
  double oracle_ns = 0;        ///< AnnealResult::throughput_ms
  double anneal_other_ns = 0;  ///< anneal − pack − oracle: demand, memo, WL
  double rs_demand_ns = 0;     ///< final fplan::rs_demand
  double final_query_ns = 0;   ///< final ThroughputEngine::throughput
  double materialize_ns = 0;   ///< ProgramRef::materialize
  double golden_ns = 0;        ///< SimOracle::golden
  double experiment_ns = 0;    ///< SimOracle::run_experiment
  double wp2_ns = 0;           ///< SimOracle::wp2_throughput
  double stream_ns = 0;        ///< stream::run_stream_graph

  double sum() const;
};

/// Counts the replay sees in process.
struct ReplayCounts {
  std::uint64_t memo_lookups = 0;    ///< anneal throughput memo lookups
  std::uint64_t memo_hits = 0;
  std::uint64_t experiment_cycles = 0;  ///< WP1 + WP2 cycles simulated
  std::uint64_t stream_tokens = 0;
  std::uint64_t request_bytes = 0;  ///< framed, on the wire
  std::uint64_t reply_bytes = 0;
};

class Replayer {
 public:
  /// `cache` mirrors the daemon's --cache, so warm-up + list replay in
  /// the same golden-cache state the daemon served them in. An untimed
  /// replayer switches its spans off: it reads no clock and leaves
  /// times() at zero, the baseline the spans' overhead is measured from.
  Replayer(std::size_t cache, bool timed);

  /// Replays one request, adding its layer self times and counts.
  wp::eval::EvalReply replay(const wp::eval::EvalRequest& request);

  const LayerTimes& times() const { return times_; }
  const ReplayCounts& counts() const { return counts_; }
  void reset() {
    times_ = {};
    counts_ = {};
  }

 private:
  wp::eval::EvalReply floorplan(const wp::eval::FloorplanJob& job);
  wp::eval::EvalReply experiment(const wp::eval::ExperimentJob& job);
  wp::eval::EvalReply throughput(const wp::eval::ThroughputJob& job);
  wp::eval::EvalReply stream(const wp::eval::StreamJob& job);

  /// The sink a span adds to: `slot`, or none when untimed.
  double* sink(double& slot) { return timed_ ? &slot : nullptr; }

  wp::sim::SimOracle oracle_;
  bool timed_;
  LayerTimes times_;
  ReplayCounts counts_;
};

}  // namespace servebench
