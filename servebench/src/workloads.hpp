// The three served workloads: fixed, seed-derived request lists.
//
// A run replays one list in order over one connection. Lists are pure
// functions of (workload, seed, length): requests are pairwise distinct
// within a list (no reply is reusable), and the mix is stratified — the
// request kind and instance size follow a fixed cycle, only the seeds and
// configuration draws vary — so two seeds cost nearly the same.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/request.hpp"

namespace servebench {

enum class Workload { kAnnealThroughput, kAnnealArea, kSimQuery };

/// "anneal-throughput" / "anneal-area" / "sim-query"; false when unknown.
bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload workload);

/// Nominal list length for a run of `seconds` on a 4-vCPU host (fixed
/// per-workload rate, never measured at run time, so the list is the
/// same for the same arguments), at least kMinRequests.
std::size_t nominal_requests(Workload workload, double seconds);
constexpr std::size_t kMinRequests = 100;

struct Plan {
  /// Fixed warm-up, independent of the seed; part of setup_s. For
  /// sim-query it fills the goldens of the warm program pool.
  std::vector<wp::eval::EvalRequest> warmup;
  /// The timed list: `requests` distinct requests derived from the seed.
  std::vector<wp::eval::EvalRequest> timed;
};

Plan make_plan(Workload workload, std::uint64_t seed, std::size_t requests);

}  // namespace servebench
