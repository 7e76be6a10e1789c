// Wire equivalence battery: the tuple coding must produce byte-identical
// join results across every transport (inproc, loopback, tcp) at every
// batch size — serialization is an encoding choice, not a semantics
// choice. Edge values ride along: records with empty token arrays,
// singleton tokens, and ceiling token ids flow through the join;
// INT64_MIN/INT64_MAX fields and null payloads flow through the envelope
// coding directly. A scripted mid-stream disconnect must not break equivalence
// either (frames cross the cut via FIN-after-data + exactly-once replay).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_topology.h"
#include "net/frame_arena.h"
#include "net/transport.h"
#include "net/wire.h"
#include "workload/generator.h"

namespace dssj {
namespace {

using stream::Envelope;
using stream::MakeTuple;
using stream::Tuple;

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

/// Workload stream plus hand-built edge records: empty token array,
/// singleton, and tokens at the id ceiling. The join must route and match
/// them identically on every transport (empty records match nothing, but
/// they still cross the wire and the exactly-once ledger).
std::vector<RecordPtr> MakeStream(uint64_t seed, size_t n) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 400;
  options.zipf_skew = 0.6;
  options.length = LengthModel::Uniform(1, 24);
  options.duplicate_fraction = 0.4;
  options.mutation_rate = 0.12;
  options.dup_locality = 200;
  std::vector<RecordPtr> stream = WorkloadGenerator(options).Generate(n);
  const std::vector<std::vector<TokenId>> edges = {
      {}, {7}, {0xfffffffeu, 0xffffffffu}};
  for (size_t i = 0; i < edges.size(); ++i) {
    auto r = std::make_shared<Record>();
    r->id = 900000 + i;
    r->seq = stream.size();
    r->tokens = edges[i];
    stream.push_back(std::move(r));
  }
  return stream;
}

DistributedJoinOptions BaseOptions(const std::vector<RecordPtr>& stream) {
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
  options.num_joiners = 4;
  options.collect_results = true;
  options.length_partition = PlanLengthPartition(stream, options.sim, options.num_joiners,
                                                 PartitionMethod::kLoadAwareGreedy);
  return options;
}

std::string LocalhostCluster(const std::vector<uint16_t>& ports) {
  std::string spec;
  for (const uint16_t port : ports) {
    if (!spec.empty()) spec += ',';
    spec += "127.0.0.1:" + std::to_string(port);
  }
  return spec;
}

struct ClusterRun {
  DistributedJoinResult coordinator;
  std::vector<DistributedJoinResult> workers;  ///< index = rank - 1
};

ClusterRun RunTcpCluster(const std::vector<RecordPtr>& input,
                         const DistributedJoinOptions& base, const std::string& cluster,
                         int ranks) {
  ClusterRun run;
  run.workers.resize(ranks - 1);
  std::vector<std::thread> threads;
  for (int rank = 1; rank < ranks; ++rank) {
    threads.emplace_back([&, rank] {
      DistributedJoinOptions options = base;
      options.transport = JoinTransport::kTcp;
      options.cluster = cluster;
      options.rank = rank;
      run.workers[rank - 1] = RunDistributedJoin({}, options);
    });
  }
  DistributedJoinOptions options = base;
  options.transport = JoinTransport::kTcp;
  options.cluster = cluster;
  options.rank = 0;
  run.coordinator = RunDistributedJoin(input, options);
  for (std::thread& t : threads) t.join();
  return run;
}

class WireEquivalenceTest : public ::testing::Test {
 protected:
  std::string ClusterOrSkip(int ranks) {
    const std::vector<uint16_t> ports = net::PickFreePorts(ranks);
    if (ports.empty()) return "";
    return LocalhostCluster(ports);
  }
};

TEST_F(WireEquivalenceTest, LoopbackMatchesInprocForEveryBatchSize) {
  const auto stream = MakeStream(61, 600);
  DistributedJoinOptions options = BaseOptions(stream);
  const DistributedJoinResult inproc = RunDistributedJoin(stream, options);
  ASSERT_GT(inproc.result_count, 0u) << "vacuous stream";
  const auto reference = Canonical(inproc.pairs);
  options.transport = JoinTransport::kLoopback;
  options.num_workers = 2;
  for (const size_t batch : {size_t{1}, size_t{16}, size_t{128}}) {
    options.batch_size = batch;
    const DistributedJoinResult got = RunDistributedJoin(stream, options);
    ASSERT_TRUE(got.ok) << got.failure_message;
    EXPECT_EQ(Canonical(got.pairs), reference) << "batch=" << batch;
    EXPECT_EQ(got.result_count, inproc.result_count);
  }
}

TEST_F(WireEquivalenceTest, TcpMatchesInprocForEveryBatchSize) {
  const auto stream = MakeStream(67, 500);
  DistributedJoinOptions base = BaseOptions(stream);
  const DistributedJoinResult inproc = RunDistributedJoin(stream, base);
  ASSERT_GT(inproc.result_count, 0u) << "vacuous stream";
  const auto reference = Canonical(inproc.pairs);
  for (const size_t batch : {size_t{1}, size_t{16}, size_t{128}}) {
    const std::string cluster = ClusterOrSkip(2);
    if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
    base.batch_size = batch;
    const ClusterRun run = RunTcpCluster(stream, base, cluster, 2);
    ASSERT_TRUE(run.coordinator.ok) << run.coordinator.failure_message;
    ASSERT_TRUE(run.workers[0].ok) << run.workers[0].failure_message;
    EXPECT_EQ(Canonical(run.coordinator.pairs), reference) << "batch=" << batch;
  }
}

TEST_F(WireEquivalenceTest, ScriptedDisconnectPreservesEquivalence) {
  const auto stream = MakeStream(71, 500);
  DistributedJoinOptions base = BaseOptions(stream);
  const DistributedJoinResult inproc = RunDistributedJoin(stream, base);
  const auto reference = Canonical(inproc.pairs);
  // joiner:1 lives on rank 1 (placement i % workers): the cut severs a real
  // socket mid-stream and redials after 20ms. Exactly-once replay must make
  // the result identical to the unfaulted single-process run.
  base.fault_script = "disconnect:dispatcher:0->joiner:1@10x20000";
  base.supervise = true;
  base.supervision.checkpoint_interval = 16;
  const std::string cluster = ClusterOrSkip(2);
  if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
  const ClusterRun run = RunTcpCluster(stream, base, cluster, 2);
  ASSERT_TRUE(run.coordinator.ok) << run.coordinator.failure_message;
  ASSERT_TRUE(run.workers[0].ok) << run.workers[0].failure_message;
  EXPECT_EQ(Canonical(run.coordinator.pairs), reference);
  EXPECT_EQ(run.coordinator.result_count, inproc.result_count);
}

// ---------------------------------------------------------------------------
// Envelope-level equivalence: a batch — including INT64_MIN and INT64_MAX
// fields, null payloads, and empty token arrays — must decode to identical
// content from its frame bytes, on both the owning and the zero-copy arena
// parse paths.
// ---------------------------------------------------------------------------

std::vector<Envelope> EdgeValueBatch() {
  const std::vector<std::vector<TokenId>> shapes = {{}, {3}, {1, 2, 900000}};
  std::vector<Envelope> envs;
  for (size_t i = 0; i < shapes.size(); ++i) {
    auto record = std::make_shared<Record>();
    record->id = i;
    record->seq = i + 10;
    record->timestamp = static_cast<int64_t>(i) - 1;
    record->tokens = shapes[i];
    Envelope e;
    e.tuple = MakeTuple(std::shared_ptr<const void>(record), int64_t{INT64_MIN},
                        std::shared_ptr<const void>(), int64_t{INT64_MAX});
    e.source_task = 2;
    e.link_seq = 1 + i * 3;
    envs.push_back(std::move(e));
  }
  return envs;
}

std::vector<Envelope> DecodeAll(const std::string& bytes, const net::PayloadCodec& codec,
                                const std::shared_ptr<net::FrameArena>& arena) {
  const char* data = bytes.data();
  if (arena != nullptr) {
    arena->bytes() = bytes;
    data = arena->bytes().data();
  }
  std::vector<Envelope> out;
  size_t pos = 0;
  while (pos < bytes.size()) {
    net::Frame frame;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(net::ParseFrame(data + pos, bytes.size() - pos, &codec,
                              net::kDefaultMaxFrameBytes, &frame, &consumed, &error, arena),
              net::ParseStatus::kFrame)
        << error;
    if (consumed == 0) break;
    pos += consumed;
    for (Envelope& e : frame.envelopes) out.push_back(std::move(e));
  }
  return out;
}

void ExpectSameContent(const std::vector<Envelope>& got,
                       const std::vector<Envelope>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].source_task, want[i].source_task);
    EXPECT_EQ(got[i].link_seq, want[i].link_seq);
    const Tuple& g = got[i].tuple;
    const Tuple& w = want[i].tuple;
    ASSERT_EQ(g.num_fields(), w.num_fields());
    const auto grec = g.Ptr<Record>(0);
    const auto wrec = w.Ptr<Record>(0);
    ASSERT_NE(grec, nullptr);
    EXPECT_EQ(grec->id, wrec->id);
    EXPECT_EQ(grec->seq, wrec->seq);
    EXPECT_EQ(grec->timestamp, wrec->timestamp);
    EXPECT_EQ(grec->tokens, wrec->tokens);
    EXPECT_EQ(g.Int(1), w.Int(1));
    EXPECT_EQ(g.Ptr<Record>(2), nullptr);
    EXPECT_EQ(w.Ptr<Record>(2), nullptr);
    EXPECT_EQ(g.Int(3), w.Int(3));
  }
}

TEST(WireEnvelopeEquivalenceTest, EdgeValuesDecodeIdenticallyOnBothParsePaths) {
  const net::PayloadCodec codec = RecordWireCodec();
  const std::vector<Envelope> batch = EdgeValueBatch();
  net::FrameArenaPool pool(0);
  std::string bytes;
  net::AppendEnvelopeFrames(7, batch, &codec, &bytes);
  ExpectSameContent(DecodeAll(bytes, codec, nullptr), batch);
  ExpectSameContent(DecodeAll(bytes, codec, pool.Acquire()), batch);
}

}  // namespace
}  // namespace dssj
