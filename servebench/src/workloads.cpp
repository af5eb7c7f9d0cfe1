#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "gen/topologies.hpp"
#include "proc/cpu.hpp"
#include "proc/experiment.hpp"
#include "util/rng.hpp"

namespace servebench {

using wp::Rng;
using wp::eval::EvalRequest;

namespace {

// ----------------------------------------------------------------- anneal

/// Six strata per workload, visited in a fixed cycle: mesh and
/// Barabási–Albert alternate, sizes step through `sizes`.
wp::eval::FloorplanJob anneal_job(bool throughput_driven, std::size_t index,
                                  std::uint64_t topology_seed,
                                  std::uint64_t anneal_seed) {
  static const int kThroughputSizes[] = {24, 32, 48};
  static const int kAreaSizes[] = {64, 100, 128};
  const int* sizes = throughput_driven ? kThroughputSizes : kAreaSizes;

  wp::eval::FloorplanJob job;
  job.topology.family = index % 2 == 0
                            ? wp::gen::TopologyFamily::kMesh
                            : wp::gen::TopologyFamily::kBarabasiAlbert;
  job.topology.num_nodes = sizes[(index / 2) % 3];
  job.seed = topology_seed;
  job.anneal.seed = anneal_seed;
  job.anneal.weight_wirelength = 0.05;
  if (throughput_driven) {
    job.anneal.iterations = 2000;
    job.anneal.weight_throughput = 50.0;
  } else {
    job.anneal.iterations = 6000;
    job.anneal.weight_throughput = 0.0;
  }
  return job;
}

Plan anneal_plan(bool throughput_driven, std::uint64_t seed,
                 std::size_t requests) {
  Plan plan;
  // Warm-up: one mesh and one BA instance of the smallest size, fixed
  // seeds — it pages the daemon's code and allocator in.
  for (std::size_t i = 0; i < 2; ++i)
    plan.warmup.emplace_back(anneal_job(throughput_driven, i, 1 + i, 7));

  Rng rng(seed);
  std::unordered_set<std::uint64_t> seen;
  while (plan.timed.size() < requests) {
    const std::size_t index = plan.timed.size();
    const std::uint64_t topology_seed = rng();
    const std::uint64_t anneal_seed = rng();
    EvalRequest request(
        anneal_job(throughput_driven, index, topology_seed, anneal_seed));
    if (seen.insert(request.content_hash()).second)
      plan.timed.push_back(std::move(request));
  }
  return plan;
}

// -------------------------------------------------------------- sim-query

constexpr std::size_t kPoolSeeds = 8;  ///< program seeds per generator
/// Experiment FIFO capacities kMinFifo .. kMinFifo + kFifoCapacities - 1:
/// with the pool and the 23 RS maps, 17664 distinct experiments.
constexpr std::uint64_t kMinFifo = 2;
constexpr std::uint64_t kFifoCapacities = 32;

/// The warm pool: three generators × kPoolSeeds fixed seeds. 24 goldens
/// stay resident under the daemon's --cache 64 LRU.
std::vector<wp::eval::ProgramRef> program_pool() {
  std::vector<wp::eval::ProgramRef> pool;
  for (std::uint64_t s = 1; s <= kPoolSeeds; ++s) {
    pool.push_back(wp::eval::ProgramRef::extraction_sort(16, s));
    pool.push_back(wp::eval::ProgramRef::matmul(4, s));
    pool.push_back(wp::eval::ProgramRef::pointer_chase(32, s));
  }
  return pool;
}

/// A never-seen program: generator by `index`, seed far from the pool's.
wp::eval::ProgramRef fresh_program(std::size_t index, std::uint64_t seed) {
  switch (index % 3) {
    case 0:
      return wp::eval::ProgramRef::extraction_sort(16, seed);
    case 1:
      return wp::eval::ProgramRef::matmul(4, seed);
    default:
      return wp::eval::ProgramRef::pointer_chase(32, seed);
  }
}

/// Table-1 sort configurations at one and two relay stations per listed
/// connection (the "All 0" row once): 23 RS maps.
std::vector<wp::proc::RsConfig> experiment_configs() {
  std::vector<wp::proc::RsConfig> configs;
  for (int level = 1; level <= 2; ++level) {
    for (wp::proc::RsConfig config : wp::proc::table1_sort_configs()) {
      if (config.rs.empty() && level > 1) continue;
      for (auto& [connection, rs] : config.rs) {
        (void)connection;
        rs *= level;
      }
      config.label += " x" + std::to_string(level);
      configs.push_back(std::move(config));
    }
  }
  return configs;
}

EvalRequest experiment_request(const wp::eval::ProgramRef& program,
                               const wp::proc::RsConfig& config,
                               std::uint64_t fifo_capacity) {
  wp::eval::ExperimentJob job;
  job.program = program;
  job.rs = config;
  job.options.fifo_capacity = static_cast<std::size_t>(fifo_capacity);
  return EvalRequest(std::move(job));
}

/// An optimizer-style point: each Table-1 connection at 0–2 RS.
EvalRequest throughput_request(const wp::eval::ProgramRef& program,
                               Rng& rng) {
  wp::eval::ThroughputJob job;
  job.program = program;
  for (const std::string& connection : wp::proc::cpu_connections())
    job.rs[connection] = static_cast<int>(rng.below(3));
  job.fifo_capacity = 16;
  return EvalRequest(std::move(job));
}

EvalRequest stream_request(std::uint64_t seed) {
  wp::eval::StreamJob job;
  job.graph.tokens = 4000;
  job.graph.branches = 2;
  job.graph.fir_stages = 2;
  job.graph.seed = seed;
  job.mode = wp::stream::RunMode::kWp2;
  return EvalRequest(std::move(job));
}

// Request i of the list, by i mod 20:
//   0      a never-seen program (experiment and throughput alternate):
//          a golden miss + insert, and eventually an LRU eviction;
//   10     a stream-graph run (4000 tokens, 2 branches × 2 FIR);
//   other  a warm-pool program: experiments on even i, throughput
//          objective points on odd i.
Plan sim_plan(std::uint64_t seed, std::size_t requests) {
  Plan plan;
  const std::vector<wp::eval::ProgramRef> pool = program_pool();
  for (const wp::eval::ProgramRef& program : pool) {
    wp::eval::ThroughputJob job;
    job.program = program;
    plan.warmup.emplace_back(std::move(job));
  }

  // Every (program, config, FIFO) experiment, shuffled by the seed and
  // consumed in order: distinct by construction.
  const std::vector<wp::proc::RsConfig> configs = experiment_configs();
  std::vector<std::size_t> combos(pool.size() * configs.size() *
                                  kFifoCapacities);
  for (std::size_t c = 0; c < combos.size(); ++c) combos[c] = c;
  Rng rng(seed);
  rng.shuffle(combos);
  std::size_t next_combo = 0;

  // Fresh program seeds and stream seeds count up from seed-derived
  // bases, far above the pool's seeds: never seen, never repeated.
  const std::uint64_t fresh_base = 1000 + (rng() % (1ULL << 40));
  const std::uint64_t stream_base = 1000 + (rng() % (1ULL << 40));

  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; plan.timed.size() < requests; ++i) {
    EvalRequest request;
    const std::size_t phase = i % 20;
    if (phase == 0) {
      const wp::eval::ProgramRef program =
          fresh_program(i / 20, fresh_base + i);
      request = (i / 20) % 2 == 0
                    ? experiment_request(
                          program, configs[rng.below(configs.size())], 16)
                    : throughput_request(program, rng);
    } else if (phase == 10) {
      request = stream_request(stream_base + i);
    } else if (i % 2 == 0) {
      if (next_combo == combos.size())
        throw std::runtime_error(
            "sim-query: list too long for the distinct experiment space");
      std::size_t c = combos[next_combo++];
      const std::uint64_t fifo = kMinFifo + c % kFifoCapacities;
      c /= kFifoCapacities;
      request = experiment_request(pool[c / configs.size()],
                                   configs[c % configs.size()], fifo);
    } else {
      request = throughput_request(pool[rng.below(pool.size())], rng);
    }
    if (seen.insert(request.content_hash()).second)
      plan.timed.push_back(std::move(request));
  }
  return plan;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kAnnealThroughput, Workload::kAnnealArea,
                           Workload::kSimQuery}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kAnnealThroughput:
      return "anneal-throughput";
    case Workload::kAnnealArea:
      return "anneal-area";
    case Workload::kSimQuery:
      return "sim-query";
  }
  return "?";
}

std::size_t nominal_requests(Workload workload, double seconds) {
  double rate = 0.0;  // requests per second, pinned, on a 4-vCPU host
  switch (workload) {
    case Workload::kAnnealThroughput:
      rate = 15.0;
      break;
    case Workload::kAnnealArea:
      rate = 30.0;
      break;
    case Workload::kSimQuery:
      rate = 400.0;
      break;
  }
  const auto n = static_cast<std::size_t>(std::ceil(rate * seconds));
  return std::max(n, kMinRequests);
}

Plan make_plan(Workload workload, std::uint64_t seed, std::size_t requests) {
  switch (workload) {
    case Workload::kAnnealThroughput:
      return anneal_plan(true, seed, requests);
    case Workload::kAnnealArea:
      return anneal_plan(false, seed, requests);
    case Workload::kSimQuery:
      return sim_plan(seed, requests);
  }
  return {};
}

}  // namespace servebench
