#include "floorplan/annealer.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "floorplan/batch_pack.hpp"
#include "floorplan/pack_engine.hpp"
#include "graph/throughput_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace wp::fplan {

namespace {

using Clock = std::chrono::steady_clock;

/// Anneal counters flushed ONCE per run from the AnnealResult tallies the
/// hot loop already keeps — the loop itself stays free of atomics, so the
/// obs layer costs nothing per move.
struct AnnealMetrics {
  obs::Counter& runs;
  obs::Counter& evaluations;
  obs::Counter& accepted_moves;
  obs::Counter& throughput_evals;
  obs::Counter& throughput_cache_hits;
  obs::Histogram& run_ns;

  static AnnealMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static AnnealMetrics metrics{
        registry.counter("anneal/runs"),
        registry.counter("anneal/evaluations"),
        registry.counter("anneal/accepted_moves"),
        registry.counter("anneal/throughput_evals"),
        registry.counter("anneal/throughput_cache_hits"),
        registry.histogram("anneal/run_ns")};
    return metrics;
  }
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The single place the annealing objective is assembled; CostModel (the
/// search path) and placement_cost (the reporting path) must agree.
double combine_cost(const AnnealOptions& options, double area, double wl,
                    double th) {
  return options.weight_area * area + options.weight_wirelength * wl +
         options.weight_throughput * (1.0 - th);
}

/// Memoizing cost evaluator for one annealing run. Area and wirelength are
/// cheap closed forms; the throughput term means a min-cycle-ratio solve,
/// so demands are memoized by value. The instance's connection labels are
/// interned once per run: a move fills an int demand vector indexed by
/// connection id, the memo is keyed by that vector, and the engine is
/// queried by label id — no string is built on the per-move path. A
/// throughput_fn gets its (label, count) pairs built on a memo miss only.
class CostModel {
 public:
  CostModel(const Instance& inst, const AnnealOptions& options)
      : inst_(inst), options_(options),
        use_throughput_(options.weight_throughput > 0.0) {
    if (!use_throughput_) return;
    WP_REQUIRE(options_.throughput_engine != nullptr ||
                   static_cast<bool>(options_.throughput_fn),
               "throughput weight set but neither throughput_engine nor "
               "throughput_fn provided");
    table_.emplace(inst_);
    if (options_.throughput_engine != nullptr)
      engine_ids_ = options_.throughput_engine->resolve(table_->labels);
  }

  double cost(const Placement& placement, double wirelength,
              AnnealResult* stats) {
    double th = 1.0;
    if (use_throughput_) {
      fill_rs_demand(inst_, *table_, placement, options_.delay_model,
                     demand_);
      th = throughput(stats);
    }
    return combine_cost(options_, placement.area(), wirelength, th);
  }

 private:
  /// FNV-1a over the demand's ints; the map's key equality makes the
  /// lookup exact.
  struct DemandHash {
    std::size_t operator()(const std::vector<int>& demand) const {
      std::uint64_t h = 1469598103934665603ULL;
      for (const int rs : demand) {
        h ^= static_cast<std::uint32_t>(rs);
        h *= 1099511628211ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };

  double throughput(AnnealResult* stats) {
    const auto it = cache_.find(demand_);
    if (it != cache_.end()) {
      if (stats) ++stats->throughput_cache_hits;
      return it->second;
    }
    WP_SPAN("anneal/throughput");
    const auto oracle_start = Clock::now();
    const double th =
        options_.throughput_engine != nullptr
            ? options_.throughput_engine->throughput(engine_ids_, demand_)
            : options_.throughput_fn(labelled_demand(*table_, demand_));
    if (stats) stats->throughput_ms += ms_since(oracle_start);
    if (cache_.size() * demand_.size() >= kMaxDemandInts) cache_.clear();
    cache_.emplace(demand_, th);
    if (stats) ++stats->throughput_evals;
    return th;
  }

  /// The memo is bounded by the demand ints its keys hold, not by entry
  /// count: every entry copies a whole demand vector, which is 3503 ints
  /// at synthetic_instance(150, 7). 2^22 ints is 16 MiB of keys.
  static constexpr std::size_t kMaxDemandInts = std::size_t{1} << 22;

  const Instance& inst_;
  const AnnealOptions& options_;
  const bool use_throughput_;
  std::optional<ConnectionTable> table_;
  std::vector<int> engine_ids_;  ///< connection id -> engine label id
  std::vector<int> demand_;      ///< per-move demand, by connection id
  std::unordered_map<std::vector<int>, double, DemandHash> cache_;
};

/// The move loop shared by kNaive and kBatched. The batched engine
/// packs each candidate against the last committed placement
/// (BatchedMoveEvaluator); the naive engine re-packs from scratch.
/// Placements are bit-identical across both, so the accept/reject stream
/// — and hence the whole trajectory — is engine-independent. Wirelength
/// is a sequential full scan on both engines: under uniform global swaps
/// a candidate moves ~n/3 blocks, touching most nets, and a
/// hardware-prefetched pass over the net array beats any dirty-set walk
/// at that density (measured; an incremental tracker was tried and lost
/// at every instance family).
void run_serial_loop(const Instance& inst, const AnnealOptions& options,
                     CostModel& model, SequencePair& current, Rng& rng,
                     AnnealResult& best) {
  const bool batched = options.pack_engine == PackEngine::kBatched;
  const auto initial_pack_start = Clock::now();
  std::optional<BatchedMoveEvaluator> evaluator;
  Placement scratch;
  {
    WP_SPAN("anneal/pack");
    if (batched)
      evaluator.emplace(inst, current);
    else
      scratch = pack(inst, current);
  }
  best.pack_ms += ms_since(initial_pack_start);
  const Placement* placement = batched ? &evaluator->placement() : &scratch;
  double wirelength = total_wirelength(inst, *placement);
  double current_cost = model.cost(*placement, wirelength, &best);

  best.sequence_pair = current;
  best.placement = *placement;
  best.cost = current_cost;

  double temperature = options.initial_temperature *
                       std::max(current_cost, 1e-9);
  for (int it = 0; it < options.iterations; ++it) {
    const AppliedMove move = random_move(current, rng);
    const auto pack_start = Clock::now();
    const Placement* candidate;
    if (batched) {
      candidate = &evaluator->apply(move);
    } else {
      scratch = pack(inst, current);
      candidate = &scratch;
    }
    best.pack_ms += ms_since(pack_start);
    wirelength = total_wirelength(inst, *candidate);
    const double cost = model.cost(*candidate, wirelength, &best);
    ++best.evaluations;
    const double delta = cost - current_cost;
    if (delta <= 0 ||
        rng.uniform() < std::exp(-delta / std::max(temperature, 1e-12))) {
      current_cost = cost;
      ++best.accepted_moves;
      if (batched) evaluator->commit();
      if (cost < best.cost) {
        best.cost = cost;
        best.sequence_pair = current;
        best.placement = *candidate;
      }
    } else {
      undo_move(current, move);
      if (batched) evaluator->revert();
    }
    temperature *= options.cooling;
  }

  if (batched) {
    const BatchedMoveEvaluator::Stats& batch_stats = evaluator->stats();
    best.batch_prime_evals = batch_stats.prime_evals;
    best.batch_full_packs = batch_stats.full_packs;
  }
}

}  // namespace

double placement_cost(const Instance& inst, const Placement& placement,
                      const AnnealOptions& options, double* area_out,
                      double* wl_out, double* th_out) {
  const double area = placement.area();
  const double wl = total_wirelength(inst, placement);
  double th = 1.0;
  if (options.weight_throughput > 0.0) {
    WP_REQUIRE(options.throughput_engine != nullptr ||
                   static_cast<bool>(options.throughput_fn),
               "throughput weight set but neither throughput_engine nor "
               "throughput_fn provided");
    const auto demand = rs_demand(inst, placement, options.delay_model);
    th = options.throughput_engine != nullptr
             ? options.throughput_engine->throughput(demand)
             : options.throughput_fn(demand);
  }
  if (area_out) *area_out = area;
  if (wl_out) *wl_out = wl;
  if (th_out) *th_out = th;
  return combine_cost(options, area, wl, th);
}

AnnealResult anneal(const Instance& inst, const AnnealOptions& options) {
  WP_SPAN("anneal/run");
  WP_REQUIRE(inst.blocks.size() >= 2, "need at least two blocks");
  WP_REQUIRE(options.iterations > 0, "need at least one iteration");
  const std::uint64_t run_start_ns = obs::now_ns();
  wp::Rng rng(options.seed);

  AnnealResult best;
  best.seed = options.seed;
  const graph::ThroughputEngine::Stats engine_before =
      options.throughput_engine != nullptr ? options.throughput_engine->stats()
                                           : graph::ThroughputEngine::Stats{};
  CostModel model(inst, options);
  SequencePair current = SequencePair::random(inst.blocks.size(), rng);

  run_serial_loop(inst, options, model, current, rng, best);

  placement_cost(inst, best.placement, options, &best.area,
                 &best.wirelength, &best.throughput);
  if (options.throughput_engine != nullptr) {
    const graph::ThroughputEngine::Stats after =
        options.throughput_engine->stats();
    best.engine_incremental =
        after.incremental() - engine_before.incremental();
    best.engine_fallbacks = after.fallbacks - engine_before.fallbacks;
  }
  // One flush per run (not per move): the registry sees the aggregate at
  // hot-loop-free cost.
  AnnealMetrics& metrics = AnnealMetrics::get();
  metrics.runs.inc();
  metrics.evaluations.add(static_cast<std::uint64_t>(best.evaluations));
  metrics.accepted_moves.add(
      static_cast<std::uint64_t>(best.accepted_moves));
  metrics.throughput_evals.add(
      static_cast<std::uint64_t>(best.throughput_evals));
  metrics.throughput_cache_hits.add(
      static_cast<std::uint64_t>(best.throughput_cache_hits));
  metrics.run_ns.record(obs::now_ns() - run_start_ns);
  return best;
}

AnnealResult anneal_parallel(const Instance& inst,
                             const ParallelAnnealOptions& options) {
  WP_REQUIRE(options.restarts > 0, "need at least one restart");
  // A ThroughputEngine is stateful and single-threaded; a pre-set
  // base.throughput_engine would be shared by every pool worker. Refuse
  // loudly instead of racing.
  WP_REQUIRE(options.base.throughput_engine == nullptr ||
                 static_cast<bool>(options.engine_factory),
             "base.throughput_engine cannot be shared across restarts — "
             "provide engine_factory for per-restart engines");
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::shared();

  const auto restarts = static_cast<std::size_t>(options.restarts);
  std::vector<AnnealResult> results(restarts);
  pool.parallel_for(0, restarts, [&](std::size_t i) {
    AnnealOptions per_restart = options.base;
    per_restart.seed = options.base.seed + i;
    std::unique_ptr<graph::ThroughputEngine> engine;
    if (options.engine_factory) {
      // A private incremental oracle per restart: the engine's Howard
      // state, mutation trail and certificate are all worker-local.
      engine = options.engine_factory();
      per_restart.throughput_engine = engine.get();
    }
    results[i] = anneal(inst, per_restart);
  });

  // Deterministic reduction: scan in seed order, keep strict improvements,
  // so ties resolve to the lowest seed no matter how the restarts were
  // scheduled across workers.
  std::size_t best = 0;
  for (std::size_t i = 1; i < restarts; ++i)
    if (results[i].cost < results[best].cost) best = i;
  return std::move(results[best]);
}

}  // namespace wp::fplan
