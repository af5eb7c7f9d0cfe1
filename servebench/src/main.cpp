// servebench — the served-evaluation benchmark client.
//
//   servebench --workload anneal-throughput --seed 1 --seconds 30
//              --trace 0 --evald .bench_build/servebench/wirepipe_evald
//
// One run: boot a private `wirepipe_evald --workers 1`, replay the
// workload's fixed seed-derived request list closed loop over ONE
// connection, one request per frame, then check the replies and print the
// metrics. setup_s is the median spawn-to-warm time of that boot and of
// more boots spread through the list. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 prints the end-to-end metrics; --trace 1 prints
// the per-layer metrics, from the daemon's kStatsRequest scrapes around
// the timed phase plus a layered in-process replay of the same list, and
// the tail latency of the requests it served.
// See servebench/README.md for the workloads and the layer map.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "cli/arg_parser.hpp"
#include "daemon.hpp"
#include "eval/evaluate.hpp"
#include "replay.hpp"
#include "svc/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace servebench;
using wp::eval::EvalReply;
using wp::eval::EvalRequest;

constexpr std::size_t kGoldenCache = 64;  ///< the daemon's default --cache
/// Daemon boots per run behind setup_s (their median).
constexpr std::size_t kBoots = 32;
/// The documented defect a served anneal may hit: dress_topology builds a
/// netlist eval_floorplan never reads, and a hub of in-degree > 32 cannot
/// be dressed into a randommoore process.
constexpr const char* kPortLimit = "exceeds the 32-input process port limit";
/// About 1 in kSampleEvery successful replies of an untraced run is
/// re-evaluated in process (a traced run compares every reply).
constexpr std::uint64_t kSampleEvery = 20;
/// Counter families whose before/after deltas are exact work counts.
const char* const kExactPrefixes[] = {"anneal/",     "pack/batch/",
                                      "graph/engine/", "sim/golden_cache/",
                                      "stream/",     "svc/server/"};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The parts of one kStatsRequest scrape the benchmark reads.
struct Scrape {
  std::map<std::string, double> counters;
  /// Histogram name → (count, sum).
  std::map<std::string, std::pair<double, double>> histograms;

  static Scrape take(wp::svc::EvalClient& client) {
    const wp::json::Value doc = wp::json::Value::parse(client.stats_json());
    const wp::json::Value& metrics = *doc.find("metrics");
    Scrape s;
    for (const auto& [name, value] : metrics.find("counters")->members())
      s.counters[name] = value.as_double();
    for (const auto& [name, h] : metrics.find("histograms")->members())
      s.histograms[name] = {h.find("count")->as_double(),
                            h.find("sum")->as_double()};
    return s;
  }
};

struct Delta {
  const Scrape& before;
  const Scrape& after;

  double counter(const std::string& name) const {
    return value(after.counters, name) - value(before.counters, name);
  }
  double hist_count(const std::string& name) const {
    return hist(after, name).first - hist(before, name).first;
  }
  double hist_sum(const std::string& name) const {
    return hist(after, name).second - hist(before, name).second;
  }
  /// Σ over every histogram whose name starts with `prefix`.
  double hist_sum_prefix(const std::string& prefix) const {
    double total = 0;
    for (const auto& [name, h] : after.histograms)
      if (name.rfind(prefix, 0) == 0) total += hist_sum(name);
    return total;
  }

 private:
  static double value(const std::map<std::string, double>& m,
                      const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  }
  static std::pair<double, double> hist(const Scrape& s,
                                        const std::string& name) {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? std::pair<double, double>{0, 0}
                                    : it->second;
  }
};

const char* error_code_name(wp::eval::ErrorCode code) {
  using wp::eval::ErrorCode;
  switch (code) {
    case ErrorCode::kNone:
      return "kNone";
    case ErrorCode::kMalformedRequest:
      return "kMalformedRequest";
    case ErrorCode::kBadVersion:
      return "kBadVersion";
    case ErrorCode::kNotWireable:
      return "kNotWireable";
    case ErrorCode::kEvalFailed:
      return "kEvalFailed";
    case ErrorCode::kMalformedFrame:
      return "kMalformedFrame";
    case ErrorCode::kOversizedFrame:
      return "kOversizedFrame";
    case ErrorCode::kInternal:
      return "kInternal";
  }
  return "unknown";
}

bool expected_kind(const EvalRequest& request, const EvalReply& reply) {
  using wp::eval::ReplyKind;
  using wp::eval::RequestKind;
  switch (request.kind) {
    case RequestKind::kExperiment:
      return reply.kind == ReplyKind::kExperiment;
    case RequestKind::kWp2Throughput:
      return reply.kind == ReplyKind::kThroughput;
    case RequestKind::kFloorplanAnneal:
      return reply.kind == ReplyKind::kFloorplan;
    case RequestKind::kEnsembleSample:
      return reply.kind == ReplyKind::kSample;
    case RequestKind::kStreamRun:
      return reply.kind == ReplyKind::kStream;
  }
  return false;
}

/// The verdicts an experiment row carries about itself: the program's
/// final memory verified on all three runs, and the WP1 and WP2 traces
/// matched the golden run. The in-process re-evaluation runs the same
/// program, so a simulation defect would pass the by-value comparison;
/// these verdicts catch it.
bool verdicts_hold(const EvalReply& reply) {
  return reply.kind != wp::eval::ReplyKind::kExperiment ||
         (reply.row.result_ok && reply.row.wp1_equivalent &&
          reply.row.wp2_equivalent);
}

/// One served request per frame; a protocol-level failure becomes an
/// error reply carrying the frame's code.
EvalReply serve_one(wp::svc::EvalClient& client, const EvalRequest& request) {
  try {
    std::vector<EvalReply> replies = client.evaluate({request});
    if (replies.size() == 1) return std::move(replies[0]);
    return EvalReply::make_error(wp::eval::ErrorCode::kInternal,
                                 "reply batch of wrong size");
  } catch (const wp::svc::ProtocolError& e) {
    return EvalReply::make_error(e.code(), std::string("frame: ") + e.what());
  }
}

/// Pins this process — and through inheritance every daemon it forks —
/// to one CPU, the highest-numbered one it may run on. The closed loop has
/// one runnable thread at a time, so nothing is serialised that would
/// otherwise run in parallel; what goes away is the cross-CPU wake-up
/// latency of each client → connection thread → pool worker hand-off,
/// which on a virtualised host is large and swings with the host's load.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.15g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const wp::cli::ArgParser& args) {
  Workload workload;
  if (!parse_workload(args.get("--workload"), &workload)) {
    std::cerr << "servebench: unknown workload '" << args.get("--workload")
              << "' (anneal-throughput, anneal-area, sim-query)\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(std::stoull(args.get("--seed")));
  const bool traced = args.get_int("--trace") != 0;
  std::size_t requests =
      nominal_requests(workload, args.get_double("--seconds"));
  // A traced run serves its list and then replays it twice, so it takes
  // the first third of the list: a traced run costs what an untraced one
  // does.
  if (traced) requests = std::max(kMinRequests, requests / 3);

  const Plan plan = make_plan(workload, seed, requests);
  const int cpu = pin_to_one_cpu();
  const std::string socket_stem =
      args.get("--socket-dir") + "/sb-" + std::to_string(::getpid());
  // spawn → 1 ms-polled connect → fixed warm-up, timed into setup_s.
  std::vector<double> setup_s;
  auto boot = [&](const std::string& socket_path) {
    const auto start = std::chrono::steady_clock::now();
    auto booted = std::make_unique<Daemon>(args.get("--evald"), socket_path,
                                           kGoldenCache);
    for (const EvalRequest& request : plan.warmup) {
      const EvalReply reply = serve_one(booted->client(), request);
      if (!expected_kind(request, reply) || !verdicts_hold(reply))
        throw std::runtime_error(
            "warm-up request failed: " +
            (reply.ok() ? reply.row.detail : reply.error.message));
    }
    setup_s.push_back(seconds_since(start));
    return booted;
  };

  // ---- timed phase: closed loop, one connection, one request per frame.
  // The first boot serves the list. The other kBoots − 1 boot a second,
  // private daemon at evenly spaced points of the list while the serving
  // one idles, so setup_s samples the host over the whole run, as the
  // timed metrics do; their time is outside every request's latency.
  std::unique_ptr<Daemon> daemon = boot(socket_stem + ".sock");
  wp::svc::EvalClient& client = daemon->client();
  const Scrape before = Scrape::take(client);
  const double cpu_before = daemon->cpu_ms();
  std::vector<EvalReply> served;
  served.reserve(plan.timed.size());
  std::vector<double> latency_ms;
  latency_ms.reserve(plan.timed.size());
  std::size_t next_boot = 1;
  for (std::size_t i = 0; i < plan.timed.size(); ++i) {
    if (next_boot < kBoots && i == next_boot * plan.timed.size() / kBoots)
      boot(socket_stem + "-" + std::to_string(next_boot++) + ".sock")->stop();
    const auto t0 = std::chrono::steady_clock::now();
    served.push_back(serve_one(client, plan.timed[i]));
    latency_ms.push_back(seconds_since(t0) * 1e3);
  }
  double timed_s = 0;
  for (const double ms : latency_ms) timed_s += ms / 1e3;
  const double cpu_ms = daemon->cpu_ms() - cpu_before;
  const double peak_rss_mb = daemon->peak_rss_mb();
  const Scrape after = Scrape::take(client);
  daemon->stop();
  daemon.reset();
  const Delta delta{before, after};

  // ---- reply checks: every reply's kind; every error reply and a seeded
  // sample of the rest re-evaluated in process and compared by value.
  std::size_t failed = 0, wrong = 0, port_limit = 0;
  std::map<wp::eval::ErrorCode, std::size_t> errors_by_code;
  wp::sim::SimOracle check_oracle(daemon_oracle_options(kGoldenCache));
  wp::eval::EvalContext context;
  context.oracle = &check_oracle;
  wp::Rng pick(seed ^ 0x5e1ec7ed5e1ec7edULL);
  for (std::size_t i = 0; i < plan.timed.size(); ++i) {
    const EvalReply& reply = served[i];
    const bool is_error = !reply.ok();
    if (is_error) ++errors_by_code[reply.error.code];
    // A traced run replays and compares every request below instead.
    const bool sampled = pick.below(kSampleEvery) == 0 && !traced;
    bool ok = is_error || expected_kind(plan.timed[i], reply);
    if (ok && !verdicts_hold(reply)) {
      ok = false;
      std::cerr << "servebench: request " << i
                << ": experiment row fails its own checks: "
                << reply.row.detail << "\n";
    }
    if (ok && (is_error || sampled)) {
      std::string why;
      ok = same_reply(reply, wp::eval::evaluate(plan.timed[i], context), &why);
      if (!ok) std::cerr << "servebench: request " << i << ": " << why << "\n";
    }
    if (ok && is_error) {
      // Only the documented port-limit failure is an expected reply.
      ok = reply.error.code == wp::eval::ErrorCode::kEvalFailed &&
           reply.error.message.find(kPortLimit) != std::string::npos;
      if (ok) ++port_limit;
      else
        std::cerr << "servebench: request " << i
                  << " failed: " << reply.error.message << "\n";
    }
    if (!ok) ++wrong;
    if (!ok || is_error) ++failed;
  }

  if (!args.get("--counters-out").empty()) {
    std::ofstream out(args.get("--counters-out"));
    for (const auto& [name, value] : after.counters)
      for (const char* prefix : kExactPrefixes)
        if (name.rfind(prefix, 0) == 0)
          out << name << " " << std::llround(delta.counter(name)) << "\n";
  }

  const double n = static_cast<double>(plan.timed.size());
  std::string error_tally;
  for (const auto& [code, count] : errors_by_code)
    error_tally += " " + std::string(error_code_name(code)) + "=" +
                   std::to_string(count);
  std::printf("servebench %s seed=%llu cpu=%d: %zu requests in %.3f s, %zu "
              "failed (%zu port-limit), errors by code:%s, "
              "latency samples=%zu, p90=%.3f ms\n",
              workload_name(workload), static_cast<unsigned long long>(seed),
              cpu, plan.timed.size(), timed_s, failed, port_limit,
              error_tally.empty() ? " none" : error_tally.c_str(),
              latency_ms.size(), wp::percentile(latency_ms, 90));

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"requests_per_s", n / timed_s, "1/s"},
        {"latency_p50_ms", wp::percentile(latency_ms, 50), "ms"},
        {"daemon_cpu_ms_per_request", cpu_ms / n, "ms"},
        {"daemon_peak_rss_mb", peak_rss_mb, "MiB"},
        {"setup_s", wp::percentile(setup_s, 50), "s"},
    };
    print_result(wrong == 0, plan.timed.size(), failed, metrics);
    return 0;
  }

  // ---- traced run: the layered in-process replay of the same list, by
  // two replayers in step — one with its spans, one with them off — so
  // trace.overhead_pct is the spans' own cost. A seeded coin picks which
  // one goes first — not the request's parity, which the workloads' kind
  // and size cycles follow — so neither always runs on the other's warm
  // caches. The
  // warm-up is replayed first so each golden cache matches the daemon's.
  Replayer traced_replayer(kGoldenCache, /*timed=*/true);
  Replayer bare_replayer(kGoldenCache, /*timed=*/false);
  for (const EvalRequest& request : plan.warmup) {
    traced_replayer.replay(request);
    bare_replayer.replay(request);
  }
  traced_replayer.reset();
  std::size_t diverged = 0;
  double replay_ns = 0, bare_ns = 0;
  auto replay_and_check = [&](Replayer& replayer, std::size_t i,
                              double& wall_ns) {
    const auto t0 = std::chrono::steady_clock::now();
    const EvalReply composed = replayer.replay(plan.timed[i]);
    wall_ns += seconds_since(t0) * 1e9;
    std::string why;
    if (!same_reply(served[i], composed, &why)) {
      ++diverged;
      std::cerr << "servebench: replay of request " << i
                << " differs from the served reply: " << why << "\n";
    }
  };
  wp::Rng coin(seed ^ 0x0bde7c0b1d0bde7cULL);
  for (std::size_t i = 0; i < plan.timed.size(); ++i) {
    const bool traced_first = coin.below(2) == 0;
    if (traced_first) replay_and_check(traced_replayer, i, replay_ns);
    replay_and_check(bare_replayer, i, bare_ns);
    if (!traced_first) replay_and_check(traced_replayer, i, replay_ns);
  }
  const LayerTimes& t = traced_replayer.times();
  const ReplayCounts& c = traced_replayer.counts();
  std::printf("traced replay: %.3f s (spans off: %.3f s), %zu divergent "
              "compositions of %zu served replies\n",
              replay_ns / 1e9, bare_ns / 1e9, diverged, plan.timed.size());

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double per_req_ms = 1e-6 / n, per_req_us = 1e-3 / n;
  const double served_requests = delta.counter("svc/server/requests");
  double round_trip_ns = 0;
  for (const double ms : latency_ms) round_trip_ns += ms * 1e6 / n;
  const double batch_ns = ratio(delta.hist_sum("svc/server/batch_ns"),
                                delta.hist_count("svc/server/batch_ns"));
  const double golden_hits = delta.counter("sim/golden_cache/hits");
  const double golden_misses = delta.counter("sim/golden_cache/misses");
  const double engine_queries = delta.counter("graph/engine/queries");
  const double engine_fallbacks = delta.counter("graph/engine/fallbacks");
  metrics = {
      // The served tail, ungated: on the anneals it is the largest
      // instances, the ones the host's memory-speed drift moves most.
      {"latency_p90_ms", wp::percentile(latency_ms, 90), "ms"},
      {"floorplan.other_ms", t.anneal_other_ns * per_req_ms, "ms"},
      {"floorplan.rs_demand_us", t.rs_demand_ns * per_req_us, "us"},
      {"floorplan.memo_hit_ratio", ratio(c.memo_hits, c.memo_lookups), "ratio"},
      {"graph.oracle_ms", (t.oracle_ns + t.engine_build_ns) * per_req_ms, "ms"},
      {"graph.final_query_us", t.final_query_ns * per_req_us, "us"},
      {"graph.engine_queries", engine_queries, "count"},
      {"graph.engine_fallbacks", engine_fallbacks, "count"},
      {"graph.fallback_ratio", ratio(engine_fallbacks, engine_queries),
       "ratio"},
      {"floorplan.pack_ms", t.pack_ns * per_req_ms, "ms"},
      {"floorplan.anneal_ms",
       (t.pack_ns + t.oracle_ns + t.anneal_other_ns) * per_req_ms, "ms"},
      {"floorplan.evaluations", delta.counter("anneal/evaluations"), "count"},
      {"floorplan.full_packs", delta.counter("pack/batch/full_packs"), "count"},
      {"floorplan.persistent_evals",
       delta.counter("pack/batch/persistent_evals"), "count"},
      {"floorplan.prime_evals", delta.counter("pack/batch/prime_evals"),
       "count"},
      {"gen.build_us", t.gen_ns * per_req_us, "us"},
      {"sim.golden_ms", t.golden_ns * per_req_ms, "ms"},
      {"sim.experiment_ms", t.experiment_ns * per_req_ms, "ms"},
      {"sim.wp2_ms", t.wp2_ns * per_req_ms, "ms"},
      {"sim.golden_runs", delta.counter("sim/golden_cache/golden_runs"),
       "count"},
      {"sim.golden_hits", golden_hits, "count"},
      {"sim.golden_evictions", delta.counter("sim/golden_cache/evictions"),
       "count"},
      {"sim.golden_hit_ratio", ratio(golden_hits, golden_hits + golden_misses),
       "ratio"},
      {"core.host_ns_per_cycle", ratio(t.experiment_ns, c.experiment_cycles),
       "ns"},
      {"proc.materialize_us", t.materialize_ns * per_req_us, "us"},
      {"stream.run_ms", t.stream_ns * per_req_ms, "ms"},
      {"stream.tokens_per_s", ratio(c.stream_tokens, t.stream_ns * 1e-9),
       "1/s"},
      {"stream.stalls",
       delta.counter("stream/backpressure/input_stalls") +
           delta.counter("stream/backpressure/output_stalls"),
       "count"},
      {"svc.overhead_us",
       (round_trip_ns - batch_ns) * 1e-3, "us"},
      {"svc.request_bytes", ratio(c.request_bytes, n), "B"},
      {"svc.reply_bytes", ratio(c.reply_bytes, n), "B"},
      {"util.pool_wait_us",
       ratio(delta.hist_sum("util/pool/task_wait_ns"),
             delta.hist_count("util/pool/task_wait_ns")) * 1e-3,
       "us"},
      {"eval.codec_us", t.codec_ns * per_req_us, "us"},
      {"eval.server_ms",
       ratio(delta.hist_sum_prefix("eval/latency_ns/"), served_requests) *
           1e-6,
       "ms"},
      {"svc.error_frames", delta.counter("svc/server/error_frames"), "count"},
      {"error_ratio", static_cast<double>(failed) / n, "ratio"},
      {"trace.residual_pct", 100.0 * (replay_ns - t.sum()) / replay_ns, "%"},
      {"trace.overhead_pct", 100.0 * (replay_ns - bare_ns) / bare_ns, "%"},
  };
  print_result(wrong == 0 && diverged == 0, plan.timed.size(), failed,
               metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  wp::cli::ArgParser args(
      "servebench",
      "Served-evaluation benchmark: boots a private wirepipe_evald, drives "
      "one workload over one connection, checks every reply, prints the "
      "metrics (last stdout line: JSON).");
  args.option("--workload", "NAME", "",
              "anneal-throughput | anneal-area | sim-query");
  args.option("--seed", "N", "1", "seed of the request list");
  args.option("--seconds", "S", "15",
              "nominal run length; sets the list length at a fixed "
              "per-workload rate");
  args.option("--trace", "0|1", "0",
              "0: end-to-end metrics; 1: per-layer metrics (adds a "
              "layered in-process replay)");
  args.option("--evald", "PATH", "", "wirepipe_evald binary");
  args.option("--socket-dir", "DIR", ".", "directory of the private socket");
  args.option("--counters-out", "PATH", "",
              "write the exact work-counter deltas here");
  args.parse_or_exit(argc, argv);
  if (args.get("--evald").empty()) {
    std::cerr << "servebench: --evald is required\n";
    return 2;
  }

  install_signal_cleanup();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
}
