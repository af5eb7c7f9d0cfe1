#include "replay.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "floorplan/annealer.hpp"
#include "floorplan/model.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"
#include "graph/throughput_engine.hpp"
#include "stream/harness.hpp"
#include "svc/protocol.hpp"
#include "util/rng.hpp"

namespace servebench {

using wp::eval::EvalReply;
using wp::eval::ReplyKind;

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Adds the elapsed time of its scope to `*sink`; with a null sink it
/// reads no clock and does nothing.
class Span {
 public:
  explicit Span(double* sink)
      : sink_(sink), start_(sink != nullptr ? now_ns() : 0.0) {}
  ~Span() {
    if (sink_ != nullptr) *sink_ += now_ns() - start_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* sink_;
  double start_;
};

bool same_row(const wp::proc::ExperimentRow& a,
              const wp::proc::ExperimentRow& b) {
  return a.label == b.label && a.golden_cycles == b.golden_cycles &&
         a.wp1_cycles == b.wp1_cycles && a.wp2_cycles == b.wp2_cycles &&
         a.th_wp1 == b.th_wp1 && a.th_wp2 == b.th_wp2 &&
         a.improvement == b.improvement && a.static_wp1 == b.static_wp1 &&
         a.wp1_equivalent == b.wp1_equivalent &&
         a.wp2_equivalent == b.wp2_equivalent && a.result_ok == b.result_ok &&
         a.detail == b.detail;
}

}  // namespace

wp::sim::OracleOptions daemon_oracle_options(std::size_t cache) {
  wp::sim::OracleOptions options;
  options.max_cached_goldens = cache;
  options.use_env_persist = false;
  options.use_env_trace_mode = false;
  return options;
}

bool same_reply(const EvalReply& a, const EvalReply& b, std::string* why) {
  auto differ = [why](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.kind != b.kind)
    return differ("reply kinds differ: " +
                  std::to_string(static_cast<int>(a.kind)) + " vs " +
                  std::to_string(static_cast<int>(b.kind)));
  switch (a.kind) {
    case ReplyKind::kError:
      if (a.error.code != b.error.code || a.error.message != b.error.message)
        return differ("errors differ: '" + a.error.message + "' vs '" +
                      b.error.message + "'");
      return true;
    case ReplyKind::kExperiment:
      return same_row(a.row, b.row) || differ("experiment rows differ");
    case ReplyKind::kThroughput:
      return a.throughput == b.throughput || differ("throughputs differ");
    case ReplyKind::kFloorplan:
      return a.floorplan == b.floorplan || differ("floorplan results differ");
    case ReplyKind::kStream:
      return a.stream == b.stream || differ("stream results differ");
    case ReplyKind::kSample:
      return a.sample == b.sample || differ("sample results differ");
  }
  return differ("unknown reply kind");
}

double LayerTimes::sum() const {
  return codec_ns + gen_ns + engine_build_ns + pack_ns + oracle_ns +
         anneal_other_ns + rs_demand_ns + final_query_ns + materialize_ns +
         golden_ns + experiment_ns + wp2_ns + stream_ns;
}

Replayer::Replayer(std::size_t cache, bool timed)
    : oracle_(daemon_oracle_options(cache)), timed_(timed) {}

EvalReply Replayer::replay(const wp::eval::EvalRequest& request) {
  using wp::svc::FrameType;
  const std::vector<wp::eval::EvalRequest> batch = {request};
  std::vector<wp::eval::EvalRequest> decoded;
  {
    Span span(sink(times_.codec_ns));
    const std::string frame = wp::svc::encode_frame(
        FrameType::kEvalBatch, wp::svc::encode_request_batch(batch));
    counts_.request_bytes += frame.size();
    decoded = wp::svc::decode_request_batch(
        wp::svc::decode_frame(frame.data(), frame.size()).payload);
  }

  EvalReply reply;
  try {
    const wp::eval::EvalRequest& r = decoded.at(0);
    switch (r.kind) {
      case wp::eval::RequestKind::kFloorplanAnneal:
        reply = floorplan(r.floorplan);
        break;
      case wp::eval::RequestKind::kExperiment:
        reply = experiment(r.experiment);
        break;
      case wp::eval::RequestKind::kWp2Throughput:
        reply = throughput(r.throughput);
        break;
      case wp::eval::RequestKind::kStreamRun:
        reply = stream(r.stream);
        break;
      case wp::eval::RequestKind::kEnsembleSample:
        reply = EvalReply::make_error(wp::eval::ErrorCode::kInternal,
                                      "servebench replays no samples");
        break;
    }
  } catch (const std::exception& e) {
    reply = EvalReply::make_error(wp::eval::ErrorCode::kEvalFailed, e.what());
  }

  Span span(sink(times_.codec_ns));
  const std::string frame = wp::svc::encode_frame(
      FrameType::kReplyBatch, wp::svc::encode_reply_batch({reply}));
  counts_.reply_bytes += frame.size();
  return wp::svc::decode_reply_batch(
             wp::svc::decode_frame(frame.data(), frame.size()).payload)
      .at(0);
}

// generate → dress → anneal with a private incremental engine →
// placement-derived RS demand → exact min-cycle-ratio throughput, the
// same composition the evaluator serves.
EvalReply Replayer::floorplan(const wp::eval::FloorplanJob& job) {
  wp::Rng rng(job.seed);
  wp::graph::Digraph topology;
  wp::gen::GeneratedSystem sys;
  {
    Span span(sink(times_.gen_ns));
    topology = wp::gen::generate_topology(job.topology, rng);
    sys = wp::gen::dress_topology(topology, job.system, rng);
  }

  std::unique_ptr<wp::graph::ThroughputEngine> engine;
  {
    Span span(sink(times_.engine_build_ns));
    wp::graph::Digraph base = topology;
    for (wp::graph::EdgeId e = 0; e < base.num_edges(); ++e)
      base.edge(e).relay_stations = 0;
    engine = std::make_unique<wp::graph::ThroughputEngine>(std::move(base));
  }

  wp::fplan::AnnealOptions options = job.anneal.to_options();
  options.throughput_fn = nullptr;
  options.throughput_engine = engine.get();
  double anneal_ns = 0;
  wp::fplan::AnnealResult annealed;
  {
    Span span(sink(anneal_ns));
    annealed = wp::fplan::anneal(sys.instance, options);
  }
  if (timed_) {
    const double pack_ns = annealed.pack_ms * 1e6;
    const double oracle_ns = annealed.throughput_ms * 1e6;
    times_.pack_ns += pack_ns;
    times_.oracle_ns += oracle_ns;
    times_.anneal_other_ns += anneal_ns - pack_ns - oracle_ns;
  }
  counts_.memo_lookups += static_cast<std::uint64_t>(
      annealed.throughput_evals + annealed.throughput_cache_hits);
  counts_.memo_hits +=
      static_cast<std::uint64_t>(annealed.throughput_cache_hits);

  EvalReply reply;
  reply.kind = ReplyKind::kFloorplan;
  reply.floorplan.area = annealed.area;
  reply.floorplan.wirelength = annealed.wirelength;
  reply.floorplan.cost = annealed.cost;
  reply.floorplan.accepted_moves = annealed.accepted_moves;
  reply.floorplan.evaluations = annealed.evaluations;

  std::vector<std::pair<std::string, int>> demand;
  {
    Span span(sink(times_.rs_demand_ns));
    demand = wp::fplan::rs_demand(sys.instance, annealed.placement,
                                  options.delay_model);
  }
  for (const auto& entry : demand) reply.floorplan.total_rs += entry.second;
  {
    Span span(sink(times_.final_query_ns));
    reply.floorplan.throughput = engine->throughput(demand);
  }
  reply.floorplan.engine_incremental = engine->stats().incremental();
  reply.floorplan.engine_fallbacks = engine->stats().fallbacks;
  {
    // The engine flushes its counters on destruction: oracle work.
    Span span(sink(times_.engine_build_ns));
    engine.reset();
  }
  return reply;
}

EvalReply Replayer::experiment(const wp::eval::ExperimentJob& job) {
  wp::proc::ProgramSpec program;
  {
    Span span(sink(times_.materialize_ns));
    program = job.program.materialize();
  }
  {
    Span span(sink(times_.golden_ns));
    oracle_.golden(program, job.cpu, job.options.max_cycles);
  }
  EvalReply reply;
  reply.kind = ReplyKind::kExperiment;
  {
    Span span(sink(times_.experiment_ns));
    reply.row = oracle_.run_experiment(program, job.cpu, job.rs, job.options);
  }
  counts_.experiment_cycles += reply.row.wp1_cycles + reply.row.wp2_cycles;
  return reply;
}

EvalReply Replayer::throughput(const wp::eval::ThroughputJob& job) {
  wp::proc::ProgramSpec program;
  {
    Span span(sink(times_.materialize_ns));
    program = job.program.materialize();
  }
  {
    Span span(sink(times_.golden_ns));
    oracle_.golden(program, job.cpu, wp::proc::ExperimentOptions{}.max_cycles);
  }
  EvalReply reply;
  reply.kind = ReplyKind::kThroughput;
  {
    Span span(sink(times_.wp2_ns));
    reply.throughput =
        oracle_.wp2_throughput(program, job.cpu, job.rs,
                               static_cast<std::size_t>(job.fifo_capacity));
  }
  return reply;
}

EvalReply Replayer::stream(const wp::eval::StreamJob& job) {
  wp::stream::StreamGraphConfig config = job.graph;
  config.sink.keep_samples = false;
  config.sink.tail_window = 0;
  wp::stream::HarnessOptions options;
  options.mode = job.mode;
  options.fifo_capacity = static_cast<std::size_t>(job.fifo_capacity);
  wp::stream::HarnessResult run;
  {
    Span span(sink(times_.stream_ns));
    run = wp::stream::run_stream_graph(config, options);
  }
  counts_.stream_tokens += run.tokens;

  EvalReply reply;
  reply.kind = ReplyKind::kStream;
  reply.stream.tokens = run.tokens;
  reply.stream.cycles = run.cycles;
  reply.stream.digest = run.digest;
  reply.stream.sink_digests = run.sink_digests;
  reply.stream.sink_counts = run.sink_counts;
  reply.stream.input_stalls = run.input_stalls;
  reply.stream.output_stalls = run.output_stalls;
  reply.stream.discarded_tokens = run.discarded_tokens;
  reply.stream.tokens_per_sec = run.tokens_per_sec;
  return reply;
}

}  // namespace servebench
