// Evaluation-service suite: frame codec round trips and strict rejection
// of every framing violation (bad magic / foreign version / reserved bits
// / oversize / checksum / trailing bytes), batch payload codecs, and an
// in-process EvalServer driven over real AF_UNIX sockets — replies must
// equal eval::evaluate_batch, a malformed payload (a retired pack-engine
// tag included) must cost one kError frame but not the connection, a
// framing violation must cost the connection but never the server, seeded
// random byte blobs must never crash it, and evaluate_sharded across two
// servers must merge back to the single-process reply stream.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "eval/evaluate.hpp"
#include "eval/request.hpp"
#include "svc/eval_client.hpp"
#include "svc/eval_server.hpp"
#include "svc/protocol.hpp"

namespace wp::svc {
namespace {

// ----------------------------------------------------------- frame codec

std::vector<eval::EvalRequest> tiny_floorplan_batch(int count,
                                                    std::uint64_t seed0 = 50) {
  std::vector<eval::EvalRequest> requests;
  for (int i = 0; i < count; ++i) {
    eval::FloorplanJob job;
    job.topology.family = gen::TopologyFamily::kMesh;
    job.topology.num_nodes = 9;
    job.seed = seed0 + static_cast<std::uint64_t>(i);
    job.anneal.iterations = 12;
    job.anneal.weight_throughput = 10.0;
    requests.emplace_back(std::move(job));
  }
  return requests;
}

TEST(FrameCodec, RoundTripEveryType) {
  const std::vector<FrameType> types = {
      FrameType::kEvalBatch, FrameType::kReplyBatch, FrameType::kError,
      FrameType::kPing,      FrameType::kPong,       FrameType::kShutdown};
  for (const FrameType type : types) {
    const std::string payload =
        type == FrameType::kPing ? "" : "payload-for-type";
    const std::string bytes = encode_frame(type, payload);
    const Frame frame = decode_frame(bytes.data(), bytes.size());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
  }
}

eval::ErrorCode decode_failure_code(std::string bytes) {
  try {
    decode_frame(bytes.data(), bytes.size());
  } catch (const ProtocolError& e) {
    return e.code();
  }
  return eval::ErrorCode::kNone;  // decoded fine — the test will notice
}

TEST(FrameCodec, RejectsEveryFramingViolation) {
  const std::string good = encode_frame(FrameType::kPing, "abc");

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(decode_failure_code(bad_magic),
            eval::ErrorCode::kMalformedFrame);

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(kFrameVersion + 1);
  EXPECT_EQ(decode_failure_code(bad_version), eval::ErrorCode::kBadVersion);

  std::string bad_type = good;
  bad_type[5] = 99;
  EXPECT_EQ(decode_failure_code(bad_type), eval::ErrorCode::kMalformedFrame);

  std::string reserved_bits = good;
  reserved_bits[6] = 1;
  EXPECT_EQ(decode_failure_code(reserved_bits),
            eval::ErrorCode::kMalformedFrame);

  // Declared length over the cap: patch payload_len (offset 8, LE u32) to
  // kMaxFramePayload + 1.
  std::string oversize = good;
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(&oversize[8], &huge, sizeof huge);
  EXPECT_EQ(decode_failure_code(oversize), eval::ErrorCode::kOversizedFrame);

  std::string bad_checksum = good;
  bad_checksum[bad_checksum.size() - 1] ^= 0x5a;
  EXPECT_EQ(decode_failure_code(bad_checksum),
            eval::ErrorCode::kMalformedFrame);

  std::string flipped_payload = good;
  flipped_payload[12] ^= 0x01;  // payload no longer matches the checksum
  EXPECT_EQ(decode_failure_code(flipped_payload),
            eval::ErrorCode::kMalformedFrame);

  EXPECT_EQ(decode_failure_code(good + "x"),
            eval::ErrorCode::kMalformedFrame);
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_EQ(decode_failure_code(good.substr(0, cut)),
              eval::ErrorCode::kMalformedFrame)
        << "cut at " << cut;
}

TEST(FrameCodec, OversizedPayloadRefusedAtEncode) {
  EXPECT_THROW(
      encode_frame(FrameType::kEvalBatch,
                   std::string(kMaxFramePayload + 1, 'a')),
      ProtocolError);
}

TEST(FrameCodec, RequestBatchPayloadRoundTrip) {
  const std::vector<eval::EvalRequest> batch = tiny_floorplan_batch(3);
  const std::string payload = encode_request_batch(batch);
  const std::vector<eval::EvalRequest> decoded =
      decode_request_batch(payload);
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(decoded[i].content_hash(), batch[i].content_hash()) << i;
  EXPECT_THROW(decode_request_batch("garbage bytes"), wire::WireError);
}

TEST(FrameCodec, ErrorPayloadRoundTrip) {
  const std::string payload =
      encode_error(eval::ErrorCode::kMalformedRequest, "what happened");
  const eval::EvalError error = decode_error(payload);
  EXPECT_EQ(error.code, eval::ErrorCode::kMalformedRequest);
  EXPECT_EQ(error.message, "what happened");
}

// ------------------------------------------------------- server fixture

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/wp_svc_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

EvalServerOptions test_server_options() {
  EvalServerOptions options;
  options.socket_path = unique_socket_path();
  options.workers = 2;
  options.oracle.use_env_persist = false;
  options.oracle.use_env_trace_mode = false;
  return options;
}

/// Raw client socket, for writing bytes the EvalClient would refuse to.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << path;
  return fd;
}

TEST(EvalServer, BatchRepliesMatchInProcessEvaluation) {
  EvalServer server(test_server_options());
  server.start();

  std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(4);
  {
    eval::FloorplanJob bad;
    bad.topology.num_nodes = -1;
    requests.emplace_back(std::move(bad));
  }

  EvalClient client;
  client.connect(server.socket_path(), /*retries=*/10, /*retry_ms=*/50);
  const std::vector<eval::EvalReply> remote = client.evaluate(requests);
  const std::vector<eval::EvalReply> local =
      eval::evaluate_batch(requests, {});

  ASSERT_EQ(remote.size(), requests.size());
  ASSERT_EQ(local.size(), requests.size());
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    ASSERT_TRUE(remote[i].ok()) << remote[i].error.message;
    EXPECT_TRUE(remote[i].floorplan == local[i].floorplan) << i;
  }
  // The poisoned request became a typed error reply, not a dead server.
  EXPECT_FALSE(remote.back().ok());
  EXPECT_EQ(remote.back().error.code, eval::ErrorCode::kEvalFailed);
  EXPECT_TRUE(client.ping());

  client.close();
  server.stop();
  const EvalServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_EQ(stats.dropped_connections, 0u);
}

TEST(EvalServer, MalformedPayloadCostsOneErrorFrameNotTheConnection) {
  EvalServer server(test_server_options());
  server.start();

  const int fd = raw_connect(server.socket_path());
  // Well-framed garbage: the frame decodes, the payload does not.
  write_frame(fd, FrameType::kEvalBatch, "this is not a request batch");
  auto reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(decode_error(reply->payload).code,
            eval::ErrorCode::kMalformedRequest);

  // Same connection, now a valid batch: it must still be served.
  write_frame(fd, FrameType::kEvalBatch,
              encode_request_batch(tiny_floorplan_batch(1)));
  auto good = read_frame(fd);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->type, FrameType::kReplyBatch);
  EXPECT_EQ(decode_reply_batch(good->payload).size(), 1u);

  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().dropped_connections, 0u);
  EXPECT_GE(server.stats().error_frames, 1u);
}

TEST(EvalServer, RetiredPackEngineTagCostsOneErrorFrameNotTheConnection) {
  // A well-framed batch — correct payload checksum, valid request layout —
  // whose pack-engine tag names a retired engine (tag 3) must come back as
  // a typed kMalformedRequest on a connection that keeps serving.
  std::vector<eval::EvalRequest> naive = tiny_floorplan_batch(1);
  naive[0].floorplan.anneal.pack_engine = fplan::PackEngine::kNaive;
  std::string payload = encode_request_batch(naive);
  const std::string batched = encode_request_batch(tiny_floorplan_batch(1));
  ASSERT_EQ(payload.size(), batched.size());
  std::size_t tag_bytes = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] == batched[i]) continue;
    payload[i] = 3;
    ++tag_bytes;
  }
  ASSERT_EQ(tag_bytes, 1u);  // the engine tag is the only differing byte

  EvalServer server(test_server_options());
  server.start();
  const int fd = raw_connect(server.socket_path());
  write_frame(fd, FrameType::kEvalBatch, payload);
  auto reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(decode_error(reply->payload).code,
            eval::ErrorCode::kMalformedRequest);

  write_frame(fd, FrameType::kEvalBatch,
              encode_request_batch(tiny_floorplan_batch(1)));
  auto good = read_frame(fd);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->type, FrameType::kReplyBatch);
  EXPECT_EQ(decode_reply_batch(good->payload).size(), 1u);

  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().dropped_connections, 0u);
  EXPECT_EQ(server.stats().error_frames, 1u);
}

TEST(EvalServer, FramingViolationDropsOnlyThatConnection) {
  EvalServer server(test_server_options());
  server.start();

  const int fd = raw_connect(server.socket_path());
  const std::string junk = "NOT A FRAME AT ALL, JUST BYTES";
  ASSERT_EQ(::write(fd, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  ::shutdown(fd, SHUT_WR);
  // The server answers with a best-effort kError frame and closes; all we
  // require here is that the connection ends instead of hanging.
  try {
    while (read_frame(fd).has_value()) {
    }
  } catch (const ProtocolError&) {
    // mid-frame EOF on the error frame is also an acceptable ending
  }
  ::close(fd);

  // The server is still alive for new connections.
  EvalClient client;
  client.connect(server.socket_path(), /*retries=*/10, /*retry_ms=*/50);
  EXPECT_TRUE(client.ping());
  client.close();
  server.stop();
  EXPECT_GE(server.stats().dropped_connections, 1u);
}

TEST(EvalServer, OversizedDeclaredLengthIsRefused) {
  EvalServer server(test_server_options());
  server.start();

  const int fd = raw_connect(server.socket_path());
  // Hand-build a header declaring a payload over the cap.
  wire::Writer w;
  w.u32(kFrameMagic);
  w.u8(kFrameVersion);
  w.u8(static_cast<std::uint8_t>(FrameType::kEvalBatch));
  w.u16(0);
  w.u32(kMaxFramePayload + 1);
  const std::string& header = w.bytes();
  ASSERT_EQ(::write(fd, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));

  auto reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(decode_error(reply->payload).code,
            eval::ErrorCode::kOversizedFrame);
  ::close(fd);

  EvalClient client;
  client.connect(server.socket_path(), /*retries=*/10, /*retry_ms=*/50);
  EXPECT_TRUE(client.ping());
  client.close();
  server.stop();
}

TEST(EvalServer, SurvivesSeededRandomBlobFuzzing) {
  EvalServer server(test_server_options());
  server.start();

  std::mt19937_64 rng(0xf00dULL);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> length(1, 512);
  for (int round = 0; round < 40; ++round) {
    const int fd = raw_connect(server.socket_path());
    std::string blob(length(rng), '\0');
    for (char& c : blob) c = static_cast<char>(byte(rng));
    // Half the rounds lead with the real magic so the fuzz also exercises
    // the post-header validation paths, not just the magic check.
    if (round % 2 == 0 && blob.size() >= 4)
      std::memcpy(&blob[0], &kFrameMagic, sizeof kFrameMagic);
    (void)!::write(fd, blob.data(), blob.size());
    ::shutdown(fd, SHUT_WR);
    try {
      while (read_frame(fd).has_value()) {
      }
    } catch (const ProtocolError&) {
    }
    ::close(fd);
  }

  // After 40 hostile connections the server still evaluates correctly.
  EvalClient client;
  client.connect(server.socket_path(), /*retries=*/10, /*retry_ms=*/50);
  EXPECT_TRUE(client.ping());
  const std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(2);
  const std::vector<eval::EvalReply> remote = client.evaluate(requests);
  const std::vector<eval::EvalReply> local =
      eval::evaluate_batch(requests, {});
  ASSERT_EQ(remote.size(), 2u);
  EXPECT_TRUE(remote[0].floorplan == local[0].floorplan);
  EXPECT_TRUE(remote[1].floorplan == local[1].floorplan);
  client.close();
  server.stop();
}

TEST(EvalServer, ShutdownFrameEndsWait) {
  EvalServer server(test_server_options());
  server.start();

  EvalClient client;
  client.connect(server.socket_path(), /*retries=*/10, /*retry_ms=*/50);
  client.shutdown_server();
  server.wait();  // must return now instead of blocking
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(EvalServer, ShardedEvaluationMatchesSingleProcess) {
  EvalServer server_a(test_server_options());
  EvalServer server_b(test_server_options());
  server_a.start();
  server_b.start();

  EvalClient client_a, client_b;
  client_a.connect(server_a.socket_path(), /*retries=*/10, /*retry_ms=*/50);
  client_b.connect(server_b.socket_path(), /*retries=*/10, /*retry_ms=*/50);

  const std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(7);
  const std::vector<eval::EvalReply> sharded =
      evaluate_sharded({&client_a, &client_b}, requests);
  const std::vector<eval::EvalReply> local =
      eval::evaluate_batch(requests, {});

  ASSERT_EQ(sharded.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(sharded[i].ok()) << sharded[i].error.message;
    EXPECT_TRUE(sharded[i].floorplan == local[i].floorplan) << i;
  }
  // The work genuinely split: each server saw a strict subset.
  client_a.close();
  client_b.close();
  server_a.stop();
  server_b.stop();
  EXPECT_EQ(server_a.stats().requests + server_b.stats().requests,
            requests.size());
  EXPECT_GT(server_a.stats().requests, 0u);
  EXPECT_GT(server_b.stats().requests, 0u);
}

}  // namespace
}  // namespace wp::svc
