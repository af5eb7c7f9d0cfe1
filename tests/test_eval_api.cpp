// EvalRequest/EvalReply API suite: wire primitive round trips and
// truncation behavior, per-kind request/reply serialize→deserialize
// identity, content-hash stability (a default FloorplanJob's wire image
// pinned), rejection of retired pack-engine tags, the inline-program wire
// guard, the
// adapter guarantee (proc::run_experiment / simulate_wp2_throughput /
// ParallelSweep rows are bit-identical to direct SimOracle calls), error
// containment in eval::evaluate, the served floorplan composition
// (evaluate ≡ anneal → rs_demand → engine query, engine counters
// included), and the prefix-hash golden-trace mode (digest equivalence,
// oracle parity with full mode, v2 persistence).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "eval/evaluate.hpp"
#include "eval/request.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/model.hpp"
#include "gen/ensemble.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"
#include "graph/throughput_engine.hpp"
#include "proc/experiment.hpp"
#include "proc/programs.hpp"
#include "sim/golden_cache.hpp"
#include "sim/oracle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace wp::eval {
namespace {

// ---------------------------------------------------------------- wire

TEST(Wire, PrimitiveRoundTrip) {
  wire::Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.b(true);
  w.b(false);
  w.f64(3.14159265358979);
  w.str("hello");
  w.str("");

  wire::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159265358979);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Wire, TruncationThrows) {
  wire::Writer w;
  w.u64(7);
  const std::string bytes = w.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    wire::Reader r(bytes.data(), cut);
    EXPECT_THROW(r.u64(), wire::WireError) << "cut at " << cut;
  }
}

TEST(Wire, StringLengthBeyondBufferThrows) {
  wire::Writer w;
  w.u32(1000);  // claims 1000 bytes follow
  w.raw("abc", 3);
  wire::Reader r(w.bytes());
  EXPECT_THROW(r.str(), wire::WireError);
}

TEST(Wire, TrailingGarbageDetected) {
  wire::Writer w;
  w.u32(1);
  w.u8(0);  // one extra byte
  wire::Reader r(w.bytes());
  r.u32();
  EXPECT_THROW(r.expect_done(), wire::WireError);
}

TEST(Wire, NonCanonicalBoolThrows) {
  wire::Writer w;
  w.u8(2);
  wire::Reader r(w.bytes());
  EXPECT_THROW(r.b(), wire::WireError);
}

// ------------------------------------------------- request round trips

EvalRequest sample_experiment_request() {
  ExperimentJob job;
  job.program = ProgramRef::extraction_sort(12, 9);
  job.cpu.fetch_window = 3;
  job.rs.label = "test-config";
  job.rs.rs = {{"CU-RF", 1}, {"RF-ALU", 2}};
  job.options.max_cycles = 5000;
  job.options.fifo_capacity = 8;
  return EvalRequest(std::move(job));
}

EvalRequest sample_throughput_request() {
  ThroughputJob job;
  job.program = ProgramRef::matmul(3, 5);
  job.rs = {{"CU-IC", 1}};
  job.fifo_capacity = 4;
  return EvalRequest(std::move(job));
}

EvalRequest sample_floorplan_request() {
  FloorplanJob job;
  job.topology.family = gen::TopologyFamily::kMesh;
  job.topology.num_nodes = 9;
  job.seed = 77;
  job.anneal.iterations = 16;
  job.anneal.weight_throughput = 25.0;
  return EvalRequest(std::move(job));
}

EvalRequest sample_ensemble_request() {
  gen::SampleJob job;
  job.family.name = "ws-16";
  job.family.topology.family = gen::TopologyFamily::kWattsStrogatz;
  job.family.topology.num_nodes = 16;
  job.family.anneal_iterations = 80;
  job.sample = 3;
  job.ensemble_seed = 21;
  job.simulate.enabled = true;
  job.simulate.golden_cycles = 32;
  job.simulate.wp_cycles = 128;
  job.anneal.iterations = 200;
  job.max_cycle_enumeration = 500;
  return EvalRequest(job);
}

std::string encoded(const EvalRequest& request) {
  wire::Writer w;
  request.encode(w);
  return w.take();
}

TEST(EvalRequestWire, RoundTripIdentityPerKind) {
  const std::vector<EvalRequest> requests = {
      sample_experiment_request(), sample_throughput_request(),
      sample_floorplan_request(), sample_ensemble_request()};
  for (const EvalRequest& request : requests) {
    const std::string bytes = encoded(request);
    wire::Reader r(bytes);
    const EvalRequest decoded = EvalRequest::decode(r);
    EXPECT_NO_THROW(r.expect_done());
    EXPECT_EQ(decoded.kind, request.kind);
    // decode∘encode must be the identity on the wire image — and the
    // content hash (computed from the canonical encoding) must survive
    // the round trip.
    EXPECT_EQ(encoded(decoded), bytes)
        << request_kind_name(request.kind);
    EXPECT_EQ(decoded.content_hash(), request.content_hash());
  }
}

TEST(EvalRequestWire, ContentHashIsStableAndSensitive) {
  const EvalRequest a = sample_floorplan_request();
  const EvalRequest b = sample_floorplan_request();
  EXPECT_EQ(a.content_hash(), b.content_hash());

  EvalRequest c = sample_floorplan_request();
  c.floorplan.seed += 1;
  EXPECT_NE(a.content_hash(), c.content_hash());

  // Distinct kinds carrying default payloads still hash apart (the kind
  // byte participates).
  EXPECT_NE(EvalRequest(ExperimentJob{}).content_hash(),
            EvalRequest(ThroughputJob{}).content_hash());
}

TEST(EvalRequestWire, InlineProgramIsNotWireable) {
  ExperimentJob job;
  job.program =
      ProgramRef::inlined(proc::extraction_sort_program(8, 1));
  const EvalRequest request((ExperimentJob(job)));
  EXPECT_FALSE(request.experiment.program.wireable());
  wire::Writer w;
  EXPECT_THROW(request.encode(w), wire::WireError);
  // ...but content hashing (in-process cache keys) still works, and two
  // inlined copies of the same program agree.
  const EvalRequest again((ExperimentJob(job)));
  EXPECT_EQ(request.content_hash(), again.content_hash());
}

TEST(EvalRequestWire, ForeignVersionRejected) {
  std::string bytes = encoded(sample_floorplan_request());
  bytes[0] = static_cast<char>(kEvalVersion + 1);
  wire::Reader r(bytes);
  EXPECT_THROW(EvalRequest::decode(r), wire::WireError);
}

TEST(EvalRequestWire, OnlyLivePackEngineTagsDecode) {
  // The pack-engine byte is fplan::PackEngine's number. The numbers of
  // retired engines (1 and 3) stay reserved: they, and every tag no engine
  // ever had, decode to a WireError, which the server answers with a typed
  // kMalformedRequest.
  EvalRequest naive = sample_floorplan_request();
  naive.floorplan.anneal.pack_engine = fplan::PackEngine::kNaive;
  const std::string naive_bytes = encoded(naive);
  const std::string batched_bytes = encoded(sample_floorplan_request());
  ASSERT_EQ(naive_bytes.size(), batched_bytes.size());
  std::size_t tag_at = naive_bytes.size();
  for (std::size_t i = 0; i < naive_bytes.size(); ++i) {
    if (naive_bytes[i] == batched_bytes[i]) continue;
    ASSERT_EQ(tag_at, naive_bytes.size()) << "more than one byte differs";
    tag_at = i;
  }
  ASSERT_LT(tag_at, naive_bytes.size());
  for (int tag = 0; tag <= 255; ++tag) {
    std::string bytes = naive_bytes;
    bytes[tag_at] = static_cast<char>(tag);
    wire::Reader r(bytes);
    if (tag == 0 || tag == 2) {
      const EvalRequest decoded = EvalRequest::decode(r);
      EXPECT_EQ(static_cast<int>(decoded.floorplan.anneal.pack_engine), tag);
      EXPECT_EQ(encoded(decoded), bytes);
    } else {
      EXPECT_THROW(EvalRequest::decode(r), wire::WireError) << "tag " << tag;
    }
  }
}

TEST(EvalRequestWire, DefaultFloorplanJobEncodingIsPinned) {
  // Retiring pack engines left the v2 layout alone: a default (kBatched)
  // FloorplanJob keeps its wire image and its content hash, so caches
  // keyed on either stay valid across the change.
  const EvalRequest request{FloorplanJob{}};
  std::string hex;
  for (const char c : encoded(request)) {
    static const char kDigits[] = "0123456789abcdef";
    const auto byte = static_cast<unsigned char>(c);
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  EXPECT_EQ(hex,
            "0203032000000003000000333333333333d33f0102000000040000009a9999"
            "999999b93f00000000000000000004000000666666666666d63fb81e85eb51"
            "b89e3f0300000067656e000000000000e03f00000000000018400000000000"
            "00e03f000000000000004004000000010100000000000000000000000000f0"
            "3f9a9999999999b93f00000000000000000000000000c06240000000000040"
            "7f40204e0000000000000000f03f96438b6ce7fbef3f2a0000000000000002");
  EXPECT_EQ(request.content_hash(), 0xf54555bfefff3036ULL);
}

TEST(EvalRequestWire, TruncatedRequestRejected) {
  const std::string bytes = encoded(sample_ensemble_request());
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    wire::Reader r(bytes.data(), cut);
    EXPECT_THROW(EvalRequest::decode(r), wire::WireError);
  }
}

TEST(EvalReplyWire, RoundTripPerKind) {
  std::vector<EvalReply> replies;
  replies.push_back(EvalReply::make_error(ErrorCode::kEvalFailed, "boom"));
  {
    EvalReply reply;
    reply.kind = ReplyKind::kExperiment;
    reply.row.label = "row";
    reply.row.golden_cycles = 123;
    reply.row.th_wp2 = 0.75;
    reply.row.wp1_equivalent = false;
    reply.row.detail = "detail text";
    replies.push_back(reply);
  }
  {
    EvalReply reply;
    reply.kind = ReplyKind::kThroughput;
    reply.throughput = 0.625;
    replies.push_back(reply);
  }
  {
    EvalReply reply;
    reply.kind = ReplyKind::kFloorplan;
    reply.floorplan.area = 12.5;
    reply.floorplan.total_rs = 7;
    reply.floorplan.engine_incremental = 99;
    replies.push_back(reply);
  }
  {
    EvalReply reply;
    reply.kind = ReplyKind::kSample;
    reply.sample.family = "mesh-9";
    reply.sample.sample = 2;
    reply.sample.throughput = 0.5;
    reply.sample.anneal_ms = 3.25;  // timings ride the wire too
    replies.push_back(reply);
  }
  for (const EvalReply& reply : replies) {
    wire::Writer w;
    reply.encode(w);
    wire::Reader r(w.bytes());
    const EvalReply decoded = EvalReply::decode(r);
    EXPECT_NO_THROW(r.expect_done());
    EXPECT_EQ(decoded.kind, reply.kind);
    wire::Writer again;
    decoded.encode(again);
    EXPECT_EQ(again.bytes(), w.bytes());
  }
}

// ------------------------------------------------------------ adapters

bool rows_equal(const proc::ExperimentRow& a, const proc::ExperimentRow& b) {
  return a.label == b.label && a.golden_cycles == b.golden_cycles &&
         a.wp1_cycles == b.wp1_cycles && a.wp2_cycles == b.wp2_cycles &&
         a.th_wp1 == b.th_wp1 && a.th_wp2 == b.th_wp2 &&
         a.improvement == b.improvement && a.static_wp1 == b.static_wp1 &&
         a.wp1_equivalent == b.wp1_equivalent &&
         a.wp2_equivalent == b.wp2_equivalent &&
         a.result_ok == b.result_ok && a.detail == b.detail;
}

TEST(EvalAdapters, RunExperimentMatchesDirectOracle) {
  const proc::ProgramSpec program = proc::extraction_sort_program(8, 1);
  const proc::CpuConfig cpu;
  const proc::RsConfig config{"adapter-test", {{"CU-RF", 1}}};
  const proc::ExperimentOptions options;

  // Adapter path: EvalRequest through evaluate against a private oracle.
  sim::SimOracle oracle(8);
  ExperimentJob job;
  job.program = ProgramRef::inlined(program);
  job.cpu = cpu;
  job.rs = config;
  job.options = options;
  EvalContext context;
  context.oracle = &oracle;
  const proc::ExperimentRow via_eval =
      unwrap_row(evaluate(EvalRequest(std::move(job)), context));

  // Direct path.
  sim::SimOracle direct(8);
  const proc::ExperimentRow via_oracle =
      direct.run_experiment(program, cpu, config, options);

  EXPECT_TRUE(rows_equal(via_eval, via_oracle));
}

TEST(EvalAdapters, Wp2ThroughputMatchesDirectOracle) {
  const proc::ProgramSpec program = proc::extraction_sort_program(8, 2);
  const proc::CpuConfig cpu;
  const std::map<std::string, int> rs = {{"CU-RF", 1}, {"RF-ALU", 1}};

  sim::SimOracle oracle(8);
  ThroughputJob job;
  job.program = ProgramRef::inlined(program);
  job.cpu = cpu;
  job.rs = rs;
  job.fifo_capacity = 16;
  EvalContext context;
  context.oracle = &oracle;
  const double via_eval =
      unwrap_throughput(evaluate(EvalRequest(std::move(job)), context));

  sim::SimOracle direct(8);
  EXPECT_EQ(via_eval, direct.wp2_throughput(program, cpu, rs, 16));
}

TEST(EvalAdapters, GeneratorRefMatchesInlineProgram) {
  // The wire path sends (generator, size, seed); the in-process path an
  // inline spec. Both must evaluate identically.
  const proc::CpuConfig cpu;
  const std::map<std::string, int> rs = {{"CU-RF", 1}};

  sim::SimOracle oracle_a(8);
  ThroughputJob by_ref;
  by_ref.program = ProgramRef::extraction_sort(8, 3);
  by_ref.cpu = cpu;
  by_ref.rs = rs;
  EvalContext context_a;
  context_a.oracle = &oracle_a;
  const double via_ref =
      unwrap_throughput(evaluate(EvalRequest(std::move(by_ref)), context_a));

  sim::SimOracle oracle_b(8);
  ThroughputJob by_inline;
  by_inline.program =
      ProgramRef::inlined(proc::extraction_sort_program(8, 3));
  by_inline.cpu = cpu;
  by_inline.rs = rs;
  EvalContext context_b;
  context_b.oracle = &oracle_b;
  const double via_inline = unwrap_throughput(
      evaluate(EvalRequest(std::move(by_inline)), context_b));

  EXPECT_EQ(via_ref, via_inline);
}

TEST(EvalAdapters, ParallelSweepStillMatchesSequentialRuns) {
  const proc::ProgramSpec program = proc::extraction_sort_program(8, 4);
  const proc::CpuConfig cpu;
  const std::vector<proc::RsConfig> configs = {
      {"a", {}}, {"b", {{"CU-RF", 1}}}, {"c", {{"RF-ALU", 2}}}};

  sim::SimOracle oracle(8);
  proc::ParallelSweep sweep(program, cpu, {});
  sweep.set_oracle(&oracle);
  const std::vector<proc::ExperimentRow> rows = sweep.run(configs);
  ASSERT_EQ(rows.size(), configs.size());

  sim::SimOracle reference(8);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const proc::ExperimentRow direct =
        reference.run_experiment(program, cpu, configs[i], {});
    EXPECT_TRUE(rows_equal(rows[i], direct)) << configs[i].label;
  }
}

TEST(EvalAdapters, EnsembleSampleMatchesRunSampleJob) {
  gen::SampleJob job;
  job.family.name = "mesh-9";
  job.family.topology.family = gen::TopologyFamily::kMesh;
  job.family.topology.num_nodes = 9;
  job.sample = 1;
  job.ensemble_seed = 5;
  job.anneal.iterations = 60;
  job.max_cycle_enumeration = 200;

  const gen::SampleResult direct = gen::run_sample_job(job, nullptr);
  const gen::SampleResult via_eval =
      unwrap_sample(evaluate(EvalRequest(job), {}));
  EXPECT_TRUE(direct == via_eval);
}

// ---------------------------------------------------- error containment

TEST(EvalErrors, EvaluationFailureBecomesTypedErrorReply) {
  FloorplanJob bad;
  bad.topology.num_nodes = -3;  // generator precondition violation
  const EvalReply reply = evaluate(EvalRequest(std::move(bad)), {});
  EXPECT_EQ(reply.kind, ReplyKind::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kEvalFailed);
  EXPECT_FALSE(reply.error.message.empty());
  EXPECT_THROW(unwrap_floorplan(reply), ContractViolation);
}

TEST(EvalErrors, UnwrapKindMismatchThrows) {
  EvalReply reply;
  reply.kind = ReplyKind::kThroughput;
  EXPECT_THROW(unwrap_row(reply), ContractViolation);
  EXPECT_NO_THROW(unwrap_throughput(reply));
}

TEST(EvalErrors, BatchKeepsGoodResultsAroundFailures) {
  std::vector<EvalRequest> requests;
  requests.push_back(sample_floorplan_request());
  FloorplanJob bad;
  bad.topology.num_nodes = -1;
  requests.emplace_back(std::move(bad));
  requests.push_back(sample_floorplan_request());

  const std::vector<EvalReply> replies = evaluate_batch(requests, {});
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(replies[0].ok());
  EXPECT_FALSE(replies[1].ok());
  EXPECT_TRUE(replies[2].ok());
  EXPECT_TRUE(replies[0].floorplan == replies[2].floorplan);
}

TEST(EvalErrors, FloorplanEvaluationIsDeterministic) {
  const EvalReply a = evaluate(sample_floorplan_request(), {});
  const EvalReply b = evaluate(sample_floorplan_request(), {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.floorplan == b.floorplan);
}

/// The floorplan composition spelled out step by step: generate → dress →
/// anneal with a private incremental engine over the zero-RS topology →
/// rs_demand of the best placement → one engine query. servebench's
/// replayer composes a served reply the same way and checks the daemon
/// against it, so evaluate() must stay equal to this.
FloorplanResult compose_floorplan(const FloorplanJob& job) {
  Rng rng(job.seed);
  const graph::Digraph topology = gen::generate_topology(job.topology, rng);
  const gen::GeneratedSystem sys =
      gen::dress_topology(topology, job.system, rng);
  graph::Digraph base = topology;
  for (graph::EdgeId e = 0; e < base.num_edges(); ++e)
    base.edge(e).relay_stations = 0;
  graph::ThroughputEngine engine(std::move(base));
  fplan::AnnealOptions options = job.anneal.to_options();
  options.throughput_fn = nullptr;
  options.throughput_engine = &engine;
  const fplan::AnnealResult annealed = fplan::anneal(sys.instance, options);

  FloorplanResult result;
  result.area = annealed.area;
  result.wirelength = annealed.wirelength;
  result.cost = annealed.cost;
  result.accepted_moves = annealed.accepted_moves;
  result.evaluations = annealed.evaluations;
  const auto demand =
      fplan::rs_demand(sys.instance, annealed.placement, options.delay_model);
  for (const auto& entry : demand) result.total_rs += entry.second;
  result.throughput = engine.throughput(demand);
  result.engine_incremental = engine.stats().incremental();
  result.engine_fallbacks = engine.stats().fallbacks;
  return result;
}

TEST(EvalFloorplan, ServedShapesMatchTheStepwiseComposition) {
  // One throughput-driven and one area-driven job of the served shapes
  // (mesh-48 at 2000 iterations, BA-64 at 6000), each sent through a wire
  // round trip first, as a served request is.
  FloorplanJob throughput_job;
  throughput_job.topology.family = gen::TopologyFamily::kMesh;
  throughput_job.topology.num_nodes = 48;
  throughput_job.seed = 11;
  throughput_job.anneal.seed = 12;
  throughput_job.anneal.weight_wirelength = 0.05;
  throughput_job.anneal.iterations = 2000;
  throughput_job.anneal.weight_throughput = 50.0;
  FloorplanJob area_job;
  area_job.topology.family = gen::TopologyFamily::kBarabasiAlbert;
  area_job.topology.num_nodes = 64;
  area_job.seed = 13;
  area_job.anneal.seed = 14;
  area_job.anneal.weight_wirelength = 0.05;
  area_job.anneal.iterations = 6000;
  area_job.anneal.weight_throughput = 0.0;

  for (const FloorplanJob& job : {throughput_job, area_job}) {
    const std::string bytes = encoded(EvalRequest(job));
    wire::Reader r(bytes);
    const EvalRequest request = EvalRequest::decode(r);
    const EvalReply reply = evaluate(request, {});
    ASSERT_TRUE(reply.ok()) << reply.error.message;
    const FloorplanResult expected = compose_floorplan(request.floorplan);
    EXPECT_TRUE(reply.floorplan == expected)
        << "weight_throughput " << job.anneal.weight_throughput
        << ": served cost " << reply.floorplan.cost << " vs "
        << expected.cost << ", throughput " << reply.floorplan.throughput
        << " vs " << expected.throughput << ", engine "
        << reply.floorplan.engine_incremental << "/"
        << reply.floorplan.engine_fallbacks << " vs "
        << expected.engine_incremental << "/" << expected.engine_fallbacks;
    if (job.anneal.weight_throughput > 0.0) {
      EXPECT_GT(expected.engine_incremental + expected.engine_fallbacks,
                1u);
    }
  }
}

// ----------------------------------------------------- prefix-hash mode

Trace small_trace() {
  Trace trace;
  trace["a"] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  trace["b"] = {10, 20, 30};
  return trace;
}

TEST(TraceDigest, IdenticalTracePasses) {
  const Trace golden = small_trace();
  const sim::TraceDigest digest = sim::make_trace_digest(golden, 4);
  const auto result = sim::check_equivalence_digest(digest, golden);
  EXPECT_TRUE(result.equivalent) << result.detail;
}

TEST(TraceDigest, MutationWithinWindowDetected) {
  const Trace golden = small_trace();
  const sim::TraceDigest digest = sim::make_trace_digest(golden, 4);
  Trace mutated = golden;
  mutated["a"][1] = 999;  // inside the first window
  const auto result = sim::check_equivalence_digest(digest, mutated);
  EXPECT_FALSE(result.equivalent);
  EXPECT_NE(result.detail.find("a"), std::string::npos);
}

TEST(TraceDigest, MutationInLaterWindowDetected) {
  const Trace golden = small_trace();
  const sim::TraceDigest digest = sim::make_trace_digest(golden, 4);
  Trace mutated = golden;
  mutated["a"][7] = 999;  // second window
  EXPECT_FALSE(sim::check_equivalence_digest(digest, mutated).equivalent);
}

TEST(TraceDigest, ShorterWpRunCheckedAtCoveredCheckpoints) {
  const Trace golden = small_trace();
  const sim::TraceDigest digest = sim::make_trace_digest(golden, 4);
  Trace shorter = golden;
  shorter["a"].resize(8);  // both checkpoints at 4 and 8 still covered
  shorter["a"][2] = 777;
  EXPECT_FALSE(sim::check_equivalence_digest(digest, shorter).equivalent);
}

TEST(TraceDigest, GoldenRecordDispatchesOnMode) {
  sim::GoldenRecord record;
  record.trace = small_trace();
  record.trace_mode = sim::TraceMode::kFull;
  EXPECT_TRUE(
      sim::check_golden_equivalence(record, small_trace()).equivalent);

  sim::GoldenRecord digested;
  digested.trace_mode = sim::TraceMode::kPrefixHash;
  digested.digest = sim::make_trace_digest(small_trace(), 2);
  EXPECT_TRUE(
      sim::check_golden_equivalence(digested, small_trace()).equivalent);
  Trace mutated = small_trace();
  mutated["b"][0] = 11;
  EXPECT_FALSE(
      sim::check_golden_equivalence(digested, mutated).equivalent);
}

TEST(PrefixHashOracle, RowsMatchFullTraceMode) {
  const proc::ProgramSpec program = proc::extraction_sort_program(8, 6);
  const proc::CpuConfig cpu;
  const proc::RsConfig config{"prefix-parity", {{"CU-RF", 1}}};

  sim::OracleOptions full_options;
  full_options.use_env_persist = false;
  full_options.use_env_trace_mode = false;
  sim::SimOracle full(full_options);

  sim::OracleOptions prefix_options = full_options;
  prefix_options.trace_mode = sim::TraceMode::kPrefixHash;
  prefix_options.prefix_window = 16;
  sim::SimOracle prefix(prefix_options);

  const proc::ExperimentRow full_row =
      full.run_experiment(program, cpu, config, {});
  const proc::ExperimentRow prefix_row =
      prefix.run_experiment(program, cpu, config, {});
  EXPECT_TRUE(rows_equal(full_row, prefix_row));

  // The digested record dropped its trace but kept the digest and the
  // fingerprint (computed before the drop).
  const auto record = prefix.golden(program, cpu, 2000000);
  EXPECT_EQ(record->trace_mode, sim::TraceMode::kPrefixHash);
  EXPECT_TRUE(record->trace.empty());
  EXPECT_FALSE(record->digest.streams.empty());
  EXPECT_NE(record->fingerprint, 0u);

  const auto full_record = full.golden(program, cpu, 2000000);
  EXPECT_EQ(full_record->fingerprint, record->fingerprint);
}

TEST(PrefixHashOracle, DigestRecordPersistsAndReloads) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("wp_eval_api_digest_" + std::to_string(::getpid()) + ".golden"))
          .string();
  sim::GoldenRecord record;
  record.cycles = 64;
  record.trace_mode = sim::TraceMode::kPrefixHash;
  record.digest = sim::make_trace_digest(small_trace(), 4);
  record.fingerprint = sim::trace_fingerprint(small_trace());
  ASSERT_TRUE(sim::save_golden_record(record, "test:key", path));

  const auto loaded = sim::load_golden_record(path, "test:key");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->trace_mode, sim::TraceMode::kPrefixHash);
  EXPECT_EQ(loaded->cycles, 64u);
  EXPECT_TRUE(loaded->trace.empty());
  ASSERT_EQ(loaded->digest.streams.size(), record.digest.streams.size());
  EXPECT_EQ(loaded->digest.window, 4u);
  EXPECT_EQ(loaded->digest.streams[0].checkpoints,
            record.digest.streams[0].checkpoints);
  EXPECT_TRUE(
      sim::check_golden_equivalence(*loaded, small_trace()).equivalent);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wp::eval
