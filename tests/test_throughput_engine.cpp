// Differential guardrail for the incremental throughput engine:
// graph::ThroughputEngine must be *bitwise* identical to a fresh
// min_cycle_ratio_howard() on an equivalently configured graph, across
// random demand-perturbation chains on every topology family — across the
// incremental-vs-cold-fallback paths, the string and id-indexed query
// forms, and under the thread pool (serial ≡ pooled). Also pins the
// id-indexed demand fill against rs_demand(), the annealer integration
// (engine-backed run ≡ ThroughputEvaluator-backed run, the pre-engine
// oracle, on the CPU instance and on the served mesh/BA shapes) and the
// ensemble's engine-counter determinism.
//
// This suite is the engine's equivalent of test_pack_equivalence and runs
// explicitly in the Debug and ASan/UBSan CI jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"

#include "floorplan/annealer.hpp"
#include "floorplan/instances.hpp"
#include "floorplan/model.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"
#include "gen/ensemble.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/throughput.hpp"
#include "graph/throughput_engine.hpp"
#include "proc/cpu.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wp::graph {
namespace {

using Demand = std::vector<std::pair<std::string, int>>;

/// The reference semantics the engine must reproduce: copy the base graph,
/// apply the demand per label (unmentioned labels keep base counts), solve
/// fresh with the certified Howard path.
Digraph configured(const Digraph& base, const Demand& demand) {
  Digraph g = base;
  for (const auto& [label, rs] : demand)
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      if (g.edge(e).label == label) g.edge(e).relay_stations = rs;
  return g;
}

double fresh_ratio(const Digraph& base, const Demand& demand) {
  return min_cycle_ratio_howard(configured(base, demand)).ratio;
}

std::vector<std::string> labels_of(const Digraph& g) {
  std::vector<std::string> labels;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const std::string& label = g.edge(e).label;
    if (std::find(labels.begin(), labels.end(), label) == labels.end())
      labels.push_back(label);
  }
  return labels;
}

/// One topology per family, relay stations cleared (the ensemble's base
/// shape: demand is applied on top of a zero-RS graph).
std::vector<Digraph> family_topologies(int nodes, std::uint64_t seed) {
  std::vector<Digraph> graphs;
  for (const gen::TopologyFamily family :
       {gen::TopologyFamily::kBarabasiAlbert,
        gen::TopologyFamily::kWattsStrogatz, gen::TopologyFamily::kMesh,
        gen::TopologyFamily::kClusteredErdosRenyi}) {
    gen::TopologyConfig config;
    config.family = family;
    config.num_nodes = nodes;
    Rng rng(seed + static_cast<std::uint64_t>(family) * 77);
    Digraph g = gen::generate_topology(config, rng);
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      g.edge(e).relay_stations = 0;
    graphs.push_back(std::move(g));
  }
  return graphs;
}

/// A randomized demand chain shaped like an annealer's: mostly small
/// perturbations of the previous demand (the incremental sweet spot),
/// occasionally a fresh random full demand (certificate stress), sometimes
/// a repeat (the unchanged fast path).
std::vector<Demand> demand_chain(const std::vector<std::string>& labels,
                                 int length, Rng& rng) {
  std::vector<Demand> chain;
  std::map<std::string, int> current;
  for (const auto& label : labels) current[label] = 0;
  for (int step = 0; step < length; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.15 && !chain.empty()) {
      chain.push_back(chain.back());  // identical demand
      continue;
    }
    if (roll < 0.30) {
      for (auto& [label, rs] : current)
        rs = static_cast<int>(rng.below(5));  // jump
    } else {
      const int mutations = 1 + static_cast<int>(rng.below(2));
      for (int m = 0; m < mutations; ++m) {
        auto it = current.begin();
        std::advance(it, static_cast<long>(rng.below(current.size())));
        it->second = static_cast<int>(rng.below(5));
      }
    }
    chain.push_back(Demand(current.begin(), current.end()));
  }
  return chain;
}

class EngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalence, RandomDemandChainsMatchFreshHoward) {
  const int nodes = GetParam();
  for (const Digraph& base : family_topologies(nodes, 100 + nodes)) {
    ThroughputEngine engine(base);
    Rng rng(500 + nodes);
    const auto chain = demand_chain(labels_of(base), 60, rng);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const double expected = fresh_ratio(base, chain[i]);
      ASSERT_EQ(engine.throughput(chain[i]), expected)
          << "nodes=" << nodes << " step " << i;
    }
    const ThroughputEngine::Stats& stats = engine.stats();
    EXPECT_EQ(stats.queries, chain.size());
    EXPECT_EQ(stats.incremental() + stats.fallbacks, stats.queries);
    // The chain is perturbation-shaped, so the incremental paths must
    // actually carry it — a silently always-cold engine would still be
    // correct, but pointless.
    EXPECT_GT(stats.incremental(), stats.queries / 2)
        << "nodes=" << nodes;
  }
}

TEST_P(EngineEquivalence, MatchesReferenceEvaluatorOnSameChain) {
  const int nodes = GetParam();
  for (const Digraph& base : family_topologies(nodes, 4000 + nodes)) {
    ThroughputEngine engine(base);
    ThroughputEvaluator evaluator(base);  // the pre-engine oracle
    Rng rng(900 + nodes);
    for (const auto& demand : demand_chain(labels_of(base), 40, rng))
      ASSERT_EQ(engine.throughput(demand), evaluator(demand));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineEquivalence,
                         ::testing::Values(8, 24, 48));

TEST(ThroughputEngine, ColdModeMatchesIncrementalEverywhere) {
  for (const Digraph& base : family_topologies(24, 31)) {
    ThroughputEngine incremental(base);
    ThroughputEngine cold(base);
    cold.set_incremental(false);
    Rng rng(77);
    const auto chain = demand_chain(labels_of(base), 50, rng);
    for (const auto& demand : chain)
      ASSERT_EQ(incremental.throughput(demand), cold.throughput(demand));
    // Path accounting: the cold engine only ever short-circuits on
    // untouched demands; every solving query is a fallback.
    EXPECT_EQ(cold.stats().cycle_hits + cold.stats().warm_hits, 0u);
    EXPECT_EQ(cold.stats().fallbacks + cold.stats().unchanged,
              cold.stats().queries);
    EXPECT_GT(incremental.stats().incremental(),
              incremental.stats().fallbacks);
  }
}

TEST(ThroughputEngine, AcyclicGraphAlwaysReportsUnitThroughput) {
  Digraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  g.add_edge(a, b, "ab");
  g.add_edge(b, c, "bc");
  ThroughputEngine engine(g);
  EXPECT_EQ(engine.throughput({}), 1.0);
  EXPECT_EQ(engine.throughput({{"ab", 3}}), 1.0);
  EXPECT_EQ(engine.throughput({{"bc", 1}}), fresh_ratio(g, {{"bc", 1}}));
}

TEST(ThroughputEngine, UnknownLabelsAreIgnored) {
  const Digraph base = proc::make_cpu_graph();
  ThroughputEngine engine(base);
  const double plain = engine.throughput({});
  EXPECT_EQ(engine.throughput({{"NO-SUCH", 7}}), plain);
  EXPECT_EQ(engine.stats().unchanged, 1u);
}

TEST(ThroughputEngine, WithRsMapMatchesVectorForm) {
  const Digraph base = proc::make_cpu_graph();
  ThroughputEngine by_map(base);
  ThroughputEngine by_vector(base);
  const std::map<std::string, int> rs = {
      {"CU-IC", 1}, {"RF-DC", 2}, {"DC-RF", 1}};
  EXPECT_EQ(by_map.with_rs_map(rs),
            by_vector.throughput({rs.begin(), rs.end()}));
}

TEST(ThroughputEngine, SerialEqualsPooled) {
  const auto bases = family_topologies(24, 9);
  // Serial reference: one engine per topology, a fixed chain each.
  std::vector<std::vector<double>> serial(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    ThroughputEngine engine(bases[i]);
    Rng rng(123 + i);
    for (const auto& demand : demand_chain(labels_of(bases[i]), 30, rng))
      serial[i].push_back(engine.throughput(demand));
  }
  // Pooled: private engine per worker task, same chains.
  std::vector<std::vector<double>> pooled(bases.size());
  ThreadPool pool(4);
  pool.parallel_for(0, bases.size(), [&](std::size_t i) {
    ThroughputEngine engine(bases[i]);
    Rng rng(123 + i);
    for (const auto& demand : demand_chain(labels_of(bases[i]), 30, rng))
      pooled[i].push_back(engine.throughput(demand));
  });
  EXPECT_EQ(serial, pooled);
}

// ------------------------------------------------------------ id queries

/// The labels of a demand, in order (the id form's resolve() input).
std::vector<std::string> labels_in(const Demand& demand) {
  std::vector<std::string> labels;
  for (const auto& entry : demand) labels.push_back(entry.first);
  return labels;
}

std::vector<int> counts_in(const Demand& demand) {
  std::vector<int> counts;
  for (const auto& entry : demand) counts.push_back(entry.second);
  return counts;
}

TEST_P(EngineEquivalence, IdQueryMatchesStringQueryAndFreshHoward) {
  const int nodes = GetParam();
  for (const Digraph& base : family_topologies(nodes, 7000 + nodes)) {
    ThroughputEngine by_label(base);
    ThroughputEngine by_id(base);
    Rng rng(1300 + nodes);
    const auto chain = demand_chain(labels_of(base), 40, rng);
    // demand_chain emits one fixed label sequence, so resolve it once —
    // the annealer's shape.
    const std::vector<int> ids = by_id.resolve(labels_in(chain.front()));
    for (std::size_t i = 0; i < chain.size(); ++i) {
      ASSERT_EQ(labels_in(chain[i]), labels_in(chain.front()));
      const double expected = fresh_ratio(base, chain[i]);
      ASSERT_EQ(by_label.throughput(chain[i]), expected) << "step " << i;
      ASSERT_EQ(by_id.throughput(ids, counts_in(chain[i])), expected)
          << "step " << i;
    }
    // Same path taken for every query, not just the same answers.
    EXPECT_EQ(by_id.stats().queries, by_label.stats().queries);
    EXPECT_EQ(by_id.stats().unchanged, by_label.stats().unchanged);
    EXPECT_EQ(by_id.stats().cycle_hits, by_label.stats().cycle_hits);
    EXPECT_EQ(by_id.stats().warm_hits, by_label.stats().warm_hits);
    EXPECT_EQ(by_id.stats().fallbacks, by_label.stats().fallbacks);
  }
}

TEST(ThroughputEngine, OmittedLabelsRevertToBase) {
  // Each demand names a random subset of the labels: a label set by one
  // demand and omitted by the next must fall back to its base count.
  for (Digraph base : family_topologies(24, 61)) {
    Rng rng(62);
    for (EdgeId e = 0; e < base.num_edges(); ++e)
      base.edge(e).relay_stations = static_cast<int>(rng.below(3));
    ThroughputEngine by_label(base);
    ThroughputEngine by_id(base);
    for (Demand demand : demand_chain(labels_of(base), 40, rng)) {
      const auto dropped = [&](const auto&) { return rng.below(3) == 0; };
      demand.erase(std::remove_if(demand.begin(), demand.end(), dropped),
                   demand.end());
      const double expected = fresh_ratio(base, demand);
      ASSERT_EQ(by_label.throughput(demand), expected);
      ASSERT_EQ(by_id.throughput(by_id.resolve(labels_in(demand)),
                                 counts_in(demand)),
                expected);
    }
  }
}

TEST(ThroughputEngine, ResolveMapsUnknownLabelsToMinusOne) {
  const Digraph base = proc::make_cpu_graph();
  ThroughputEngine engine(base);
  const std::vector<int> ids = engine.resolve({"CU-IC", "NO-SUCH", "CU-IC"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_GE(ids[0], 0);
  EXPECT_EQ(ids[1], -1);
  EXPECT_EQ(ids[2], ids[0]);
  // Duplicates: the last entry wins, as in the string form.
  const Demand demand = {{"CU-IC", 2}, {"NO-SUCH", 9}, {"CU-IC", 1}};
  ThroughputEngine by_label(base);
  EXPECT_EQ(engine.throughput(ids, {2, 9, 1}), by_label.throughput(demand));
  EXPECT_EQ(engine.throughput(ids, {2, 9, 1}), fresh_ratio(base, demand));
}

/// A dressed topology whose instance and graph disagree on purpose: some
/// connections carry several nets (the demand takes their max), some nets
/// name connections the graph lacks (ignored by the engine), and the nets
/// of some graph edges are dropped (those edges keep their base counts,
/// which are made nonzero so a wrong revert would show).
struct MismatchedSystem {
  fplan::Instance instance;
  Digraph base;
};

MismatchedSystem mismatched_system(gen::TopologyFamily family,
                                   std::uint64_t seed) {
  gen::TopologyConfig config;
  config.family = family;
  config.num_nodes = 16;
  Rng rng(seed);
  const Digraph topology = gen::generate_topology(config, rng);
  gen::SystemConfig system;
  system.build_netlist = false;
  MismatchedSystem out;
  out.instance = gen::dress_topology(topology, system, rng).instance;
  out.base = topology;
  const int blocks = static_cast<int>(out.instance.blocks.size());
  std::vector<fplan::Net> nets;
  for (const fplan::Net& net : out.instance.nets) {
    const std::uint64_t roll = rng.below(6);
    if (roll == 0) continue;  // graph label absent from the instance
    nets.push_back(net);
    if (roll == 1) {  // a second, longer-or-shorter net on the connection
      fplan::Net extra = net;
      extra.dst_block = static_cast<int>(rng.below(blocks));
      nets.push_back(extra);
    }
    if (roll == 2) {  // an instance label absent from the graph
      fplan::Net ghost = net;
      ghost.connection = "ghost-" + net.connection;
      nets.push_back(ghost);
    }
  }
  out.instance.nets = std::move(nets);
  for (EdgeId e = 0; e < out.base.num_edges(); ++e)
    out.base.edge(e).relay_stations = static_cast<int>(rng.below(3));
  return out;
}

TEST(ThroughputEngineIdPath, DemandFillMatchesRsDemandAndFreshHoward) {
  fplan::WireDelayModel delay;
  delay.clock_ps = 120.0;  // short reach: most wires need relay stations
  for (const gen::TopologyFamily family :
       {gen::TopologyFamily::kMesh, gen::TopologyFamily::kBarabasiAlbert}) {
    const MismatchedSystem sys =
        mismatched_system(family, 40 + static_cast<std::uint64_t>(family));
    const fplan::Instance& inst = sys.instance;
    const fplan::ConnectionTable table(inst);
    ThroughputEngine by_label(sys.base);
    ThroughputEngine by_id(sys.base);
    const std::vector<int> ids = by_id.resolve(table.labels);
    int ghosts = 0;
    for (const int id : ids) ghosts += id < 0 ? 1 : 0;
    ASSERT_GT(ghosts, 0);

    Rng rng(900 + static_cast<std::uint64_t>(family));
    std::vector<int> demand;
    int multi_net_connections = 0;
    for (int sample = 0; sample < 25; ++sample) {
      const fplan::Placement placement = fplan::pack(
          inst, fplan::SequencePair::random(inst.blocks.size(), rng));
      fplan::fill_rs_demand(inst, table, placement, delay, demand);
      const Demand pairs = fplan::rs_demand(inst, placement, delay);

      // Both are the max over each connection's nets, in ascending label
      // order (the std::map shape rs_demand() has always returned).
      std::map<std::string, int> expected_demand;
      std::map<std::string, int> nets_per_connection;
      for (const fplan::Net& net : inst.nets) {
        const int rs = fplan::relay_stations_for_length(
            fplan::net_length(inst, placement, net), delay);
        const auto [it, inserted] =
            expected_demand.emplace(net.connection, rs);
        if (!inserted) it->second = std::max(it->second, rs);
        ++nets_per_connection[net.connection];
      }
      ASSERT_EQ(pairs, Demand(expected_demand.begin(), expected_demand.end()));
      ASSERT_EQ(table.labels, labels_in(pairs));
      ASSERT_EQ(demand, counts_in(pairs));
      multi_net_connections = 0;
      for (const auto& [label, count] : nets_per_connection)
        multi_net_connections += count > 1 ? 1 : 0;

      // The engine ignores the ghost labels and keeps base counts on the
      // graph labels the instance never mentions, whichever query form.
      const double expected = fresh_ratio(sys.base, pairs);
      ASSERT_EQ(by_label.throughput(pairs), expected) << "sample " << sample;
      ASSERT_EQ(by_id.throughput(ids, demand), expected)
          << "sample " << sample;
    }
    EXPECT_GT(multi_net_connections, 0);
    EXPECT_LT(table.labels.size() - static_cast<std::size_t>(ghosts),
              labels_of(sys.base).size());
    EXPECT_EQ(by_id.stats().fallbacks, by_label.stats().fallbacks);
  }
}

// ---------------------------------------------------------------- annealer

fplan::AnnealOptions throughput_driven_options(std::uint64_t seed) {
  fplan::AnnealOptions options;
  options.iterations = 1200;
  options.seed = seed;
  options.weight_throughput = 300.0;
  options.delay_model.clock_ps = 350.0;
  return options;
}

TEST(ThroughputEngineAnnealer, EngineRunMatchesEvaluatorRun) {
  const fplan::Instance inst = fplan::cpu_instance();
  const Digraph graph = proc::make_cpu_graph();

  fplan::AnnealOptions with_fn = throughput_driven_options(5);
  with_fn.throughput_fn = ThroughputEvaluator(graph);
  const fplan::AnnealResult reference = fplan::anneal(inst, with_fn);

  fplan::AnnealOptions with_engine = throughput_driven_options(5);
  ThroughputEngine engine(graph);
  with_engine.throughput_engine = &engine;
  const fplan::AnnealResult result = fplan::anneal(inst, with_engine);

  // Identical trajectory: the oracle swap must not change a single cost.
  EXPECT_EQ(result.cost, reference.cost);
  EXPECT_EQ(result.placement.x, reference.placement.x);
  EXPECT_EQ(result.placement.y, reference.placement.y);
  EXPECT_EQ(result.throughput, reference.throughput);
  EXPECT_EQ(result.accepted_moves, reference.accepted_moves);
  EXPECT_EQ(result.throughput_evals, reference.throughput_evals);
  EXPECT_EQ(result.throughput_cache_hits, reference.throughput_cache_hits);
  // Counter plumbing: every engine query of the run (move evaluations plus
  // the final placement_cost report) is accounted one way or the other.
  EXPECT_EQ(result.engine_incremental + result.engine_fallbacks,
            static_cast<std::uint64_t>(result.throughput_evals) + 1);
  EXPECT_EQ(reference.engine_incremental + reference.engine_fallbacks, 0u);
}

TEST(ThroughputEngineAnnealer, ParallelEngineFactoryMatchesSerialBestOf) {
  const fplan::Instance inst = fplan::cpu_instance();
  const Digraph graph = proc::make_cpu_graph();

  fplan::ParallelAnnealOptions parallel;
  parallel.base = throughput_driven_options(21);
  parallel.restarts = 3;
  parallel.engine_factory = [&graph]() {
    return std::make_unique<ThroughputEngine>(graph);
  };
  ThreadPool pool(3);
  parallel.pool = &pool;
  const fplan::AnnealResult pooled = fplan::anneal_parallel(inst, parallel);

  fplan::AnnealResult best;
  best.cost = 0;
  for (int i = 0; i < parallel.restarts; ++i) {
    fplan::AnnealOptions options = throughput_driven_options(21 + i);
    ThroughputEngine engine(graph);
    options.throughput_engine = &engine;
    const fplan::AnnealResult result = fplan::anneal(inst, options);
    if (i == 0 || result.cost < best.cost) best = result;
  }
  EXPECT_EQ(pooled.cost, best.cost);
  EXPECT_EQ(pooled.seed, best.seed);
  EXPECT_EQ(pooled.placement.x, best.placement.x);
  EXPECT_EQ(pooled.throughput, best.throughput);
}

/// Engine-backed and evaluator-backed anneals of one served floorplan
/// shape (generate → dress → anneal over a zero-RS base graph, the
/// evaluation service's composition) must walk the same trajectory.
void expect_served_trajectories_match(gen::TopologyFamily family,
                                      std::uint64_t seed) {
  gen::TopologyConfig topology_config;
  topology_config.family = family;
  topology_config.num_nodes = 48;
  Rng rng(seed);
  const Digraph topology = gen::generate_topology(topology_config, rng);
  const gen::GeneratedSystem sys =
      gen::dress_topology(topology, gen::SystemConfig{}, rng);
  Digraph base = topology;
  for (EdgeId e = 0; e < base.num_edges(); ++e)
    base.edge(e).relay_stations = 0;

  fplan::AnnealOptions options;
  options.iterations = 2000;  // the served request's budget
  options.seed = seed + 1;
  options.weight_wirelength = 0.05;
  options.weight_throughput = 50.0;

  fplan::AnnealOptions with_fn = options;
  with_fn.throughput_fn = ThroughputEvaluator(base);
  const fplan::AnnealResult reference = fplan::anneal(sys.instance, with_fn);

  fplan::AnnealOptions with_engine = options;
  ThroughputEngine engine(base);
  with_engine.throughput_engine = &engine;
  const fplan::AnnealResult result =
      fplan::anneal(sys.instance, with_engine);

  EXPECT_EQ(result.cost, reference.cost);
  EXPECT_EQ(result.area, reference.area);
  EXPECT_EQ(result.wirelength, reference.wirelength);
  EXPECT_EQ(result.throughput, reference.throughput);
  EXPECT_EQ(result.sequence_pair.positive, reference.sequence_pair.positive);
  EXPECT_EQ(result.sequence_pair.negative, reference.sequence_pair.negative);
  EXPECT_EQ(result.placement.x, reference.placement.x);
  EXPECT_EQ(result.placement.y, reference.placement.y);
  EXPECT_EQ(result.accepted_moves, reference.accepted_moves);
  EXPECT_EQ(result.throughput_evals, reference.throughput_evals);
  EXPECT_EQ(result.throughput_cache_hits, reference.throughput_cache_hits);
  EXPECT_LT(result.throughput, 1.0);  // the demand actually bit
  EXPECT_EQ(result.engine_incremental + result.engine_fallbacks,
            static_cast<std::uint64_t>(result.throughput_evals) + 1);
}

TEST(ThroughputEngineAnnealer, ServedMesh48MatchesEvaluatorRun) {
  expect_served_trajectories_match(gen::TopologyFamily::kMesh, 11);
}

TEST(ThroughputEngineAnnealer, ServedBa48MatchesEvaluatorRun) {
  expect_served_trajectories_match(gen::TopologyFamily::kBarabasiAlbert, 12);
}

// ---------------------------------------------------------------- ensemble

TEST(ThroughputEngineEnsemble, CountersAreDeterministicAcrossPooling) {
  gen::EnsembleConfig config;
  config.samples_per_family = 3;
  config.anneal.iterations = 250;
  config.max_cycle_enumeration = 2000;

  gen::FamilySpec ba;
  ba.name = "ba-12";
  ba.topology.family = gen::TopologyFamily::kBarabasiAlbert;
  ba.topology.num_nodes = 12;
  ba.topology.ba_attach = 2;
  config.families.push_back(ba);

  gen::FamilySpec mesh;
  mesh.name = "mesh-3x4";
  mesh.topology.family = gen::TopologyFamily::kMesh;
  mesh.topology.num_nodes = 12;
  mesh.topology.mesh_rows = 3;
  mesh.topology.mesh_cols = 4;
  config.families.push_back(mesh);

  const gen::EnsembleReport sequential =
      gen::run_ensemble_sequential(config);
  ThreadPool pool(4);
  const gen::EnsembleReport pooled = gen::run_ensemble(config, &pool);

  // operator== covers the engine counters, so pooling must not change the
  // engine's path selection, not just its results.
  EXPECT_EQ(sequential.samples, pooled.samples);
  EXPECT_EQ(sequential.engine_incremental, pooled.engine_incremental);
  EXPECT_EQ(sequential.engine_fallbacks, pooled.engine_fallbacks);
  std::uint64_t queries = 0;
  for (const auto& s : sequential.samples)
    queries += s.engine_incremental + s.engine_fallbacks;
  EXPECT_GT(queries, 0u);
}

}  // namespace
}  // namespace wp::graph
