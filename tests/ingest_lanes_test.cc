// Sharded-ingestion equivalence battery: a run with N ingestion lanes
// (lane-striped spouts, one router instance per lane, seq-merge at each
// joiner) must produce a result set byte-identical to the single-lane run —
// across lane counts, batch sizes, and transports, through dispatcher/
// source kills, link disconnects, and live joiner migrations mid-run. The
// shared adaptive router rides along: with lanes it is exact (same pair
// set) though its replan timing is interleaving-dependent.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "core/join_topology.h"
#include "net/transport.h"
#include "store/format.h"
#include "workload/generator.h"

namespace dssj {
namespace {

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

std::vector<RecordPtr> MakeStream(uint64_t seed, size_t n) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 500;
  options.zipf_skew = 0.6;
  options.length = LengthModel::Uniform(1, 30);
  options.duplicate_fraction = 0.4;
  options.mutation_rate = 0.12;
  options.dup_locality = 300;
  options.timestamp_step_us = 1000;
  return WorkloadGenerator(options).Generate(n);
}

DistributedJoinOptions BaseOptions(const std::vector<RecordPtr>& stream) {
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 750);
  options.num_joiners = 4;
  options.collect_results = true;
  options.length_partition = PlanLengthPartition(stream, options.sim, options.num_joiners,
                                                 PartitionMethod::kLoadAwareGreedy);
  options.supervision.initial_backoff_micros = 50;  // keep fault tests fast
  options.supervision.max_backoff_micros = 1000;
  return options;
}

std::string LocalhostCluster(const std::vector<uint16_t>& ports) {
  std::string spec;
  for (uint16_t port : ports) {
    if (!spec.empty()) spec += ",";
    spec += "127.0.0.1:" + std::to_string(port);
  }
  return spec;
}

DistributedJoinResult RunTcpCoordinator(const std::vector<RecordPtr>& input,
                                        const DistributedJoinOptions& base,
                                        const std::string& cluster, int ranks) {
  std::vector<std::thread> threads;
  for (int rank = 1; rank < ranks; ++rank) {
    threads.emplace_back([&, rank] {
      DistributedJoinOptions options = base;
      options.transport = JoinTransport::kTcp;
      options.cluster = cluster;
      options.rank = rank;
      RunDistributedJoin({}, options);
    });
  }
  DistributedJoinOptions options = base;
  options.transport = JoinTransport::kTcp;
  options.cluster = cluster;
  options.rank = 0;
  DistributedJoinResult result = RunDistributedJoin(input, options);
  for (std::thread& t : threads) t.join();
  return result;
}

class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string tmpl = ::testing::TempDir() + "dssj_lanes_XXXXXX";
    const char* made = mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path_ = tmpl;
  }
  ~ScopedTempDir() { store::RemoveTree(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class IngestLanesTest : public ::testing::Test {
 protected:
  IngestLanesTest() : stream_(MakeStream(733, 900)), options_(BaseOptions(stream_)) {}

  /// The single-lane inproc run every variant must reproduce byte for byte.
  std::vector<ResultPair> Reference() {
    DistributedJoinOptions reference = options_;
    reference.ingest_lanes = 1;
    DistributedJoinResult result = RunDistributedJoin(stream_, reference);
    EXPECT_TRUE(result.ok) << result.failure_message;
    EXPECT_GT(result.result_count, 0u) << "vacuous test stream";
    return Canonical(result.pairs);
  }

  std::vector<RecordPtr> stream_;
  DistributedJoinOptions options_;
};

// The core matrix of the lane-equivalence guarantee: lanes x batch size x
// transport, every cell byte-identical to lanes=1.
TEST_F(IngestLanesTest, ByteIdenticalAcrossLanesBatchesAndTransports) {
  const std::vector<ResultPair> expected = Reference();
  for (int lanes : {1, 2, 4}) {
    for (size_t batch : {1, 16, 128}) {
      for (JoinTransport transport : {JoinTransport::kInproc, JoinTransport::kLoopback}) {
        DistributedJoinOptions options = options_;
        options.ingest_lanes = lanes;
        options.batch_size = batch;
        options.transport = transport;
        if (transport == JoinTransport::kLoopback) options.num_workers = 2;
        const DistributedJoinResult result = RunDistributedJoin(stream_, options);
        const std::string label = "lanes=" + std::to_string(lanes) +
                                  " batch=" + std::to_string(batch) + " transport=" +
                                  JoinTransportName(transport);
        ASSERT_TRUE(result.ok) << label << ": " << result.failure_message;
        EXPECT_EQ(result.result_count, expected.size()) << label;
        EXPECT_EQ(Canonical(result.pairs), expected) << label;
      }
    }
  }
}

TEST_F(IngestLanesTest, TcpClusterMatchesSingleLane) {
  const std::vector<uint16_t> ports = net::PickFreePorts(2);
  if (ports.empty()) GTEST_SKIP() << "no free localhost ports";
  const std::string cluster = LocalhostCluster(ports);
  const std::vector<ResultPair> expected = Reference();
  for (int lanes : {1, 2, 4}) {
    DistributedJoinOptions options = options_;
    options.ingest_lanes = lanes;
    const DistributedJoinResult result =
        RunTcpCoordinator(stream_, options, cluster, /*ranks=*/2);
    ASSERT_TRUE(result.ok) << "lanes=" << lanes << ": " << result.failure_message;
    EXPECT_EQ(Canonical(result.pairs), expected) << "lanes=" << lanes;
  }
}

TEST_F(IngestLanesTest, PrefixStrategyShardsToo) {
  options_.strategy = DistributionStrategy::kPrefixBased;
  options_.length_partition = LengthPartition();
  const std::vector<ResultPair> expected = Reference();
  DistributedJoinOptions options = options_;
  options.ingest_lanes = 4;
  const DistributedJoinResult result = RunDistributedJoin(stream_, options);
  ASSERT_TRUE(result.ok) << result.failure_message;
  EXPECT_EQ(Canonical(result.pairs), expected);
}

// Lane-aware fault DSL: kill a dispatcher lane, a source lane, and a
// joiner mid-stream. Recovery replays through the lane merge (checkpointed
// merge buffers + watermark cadence), so the result set must still be the
// clean single-lane set.
TEST_F(IngestLanesTest, RecoversExactlyFromLaneKills) {
  const std::vector<ResultPair> expected = Reference();
  DistributedJoinOptions faulty = options_;
  faulty.ingest_lanes = 4;
  faulty.supervise = true;
  faulty.fault_script = "kill:dispatcher:2@150; kill:source:1@250; kill:joiner:1@300";
  const DistributedJoinResult result = RunDistributedJoin(stream_, faulty);
  ASSERT_TRUE(result.ok) << result.failure_message;
  EXPECT_GT(result.restarts, 0u);
  EXPECT_EQ(result.result_count, expected.size());
  EXPECT_EQ(Canonical(result.pairs), expected);
}

// The same lane recovery through the async store: joiners checkpoint as
// base + delta chains, where a delta carries only each lane buffer's pops
// and appended suffix since the previous freeze, encoded on the checkpoint
// thread from the captured records. Each kill lands one to six checkpoints
// into its joiner's run (every 64 tuples, a base every 4th), so recovery
// composes a base with zero to three deltas, as far as they are durable,
// and replays the rest. Every cell must reproduce the clean single-lane
// run of the same local joiner byte for byte.
TEST_F(IngestLanesTest, RecoversExactlyThroughAsyncDeltaChains) {
  for (LocalAlgorithm local : {LocalAlgorithm::kRecord, LocalAlgorithm::kBundle}) {
    options_.local = local;
    const std::vector<ResultPair> expected = Reference();
    for (int lanes : {2, 4}) {
      for (size_t batch : {1, 16, 128}) {
        for (JoinTransport transport : {JoinTransport::kInproc, JoinTransport::kLoopback}) {
          for (const char* kills : {"kill:joiner:0@150; kill:joiner:1@220",
                                    "kill:joiner:2@100; kill:joiner:3@300; kill:joiner:0@400"}) {
            ScopedTempDir dir;
            DistributedJoinOptions faulty = options_;
            faulty.ingest_lanes = lanes;
            faulty.batch_size = batch;
            faulty.transport = transport;
            if (transport == JoinTransport::kLoopback) faulty.num_workers = 2;
            faulty.supervise = true;
            faulty.supervision.checkpoint_interval = 64;
            faulty.store_dir = dir.path();
            faulty.checkpoint_mode = store::CheckpointMode::kAsync;
            faulty.delta_base_interval = 4;
            faulty.fault_script = kills;
            const DistributedJoinResult result = RunDistributedJoin(stream_, faulty);
            const std::string label = std::string(LocalAlgorithmName(local)) +
                                      " lanes=" + std::to_string(lanes) +
                                      " batch=" + std::to_string(batch) + " transport=" +
                                      JoinTransportName(transport) + " kills=" + kills;
            ASSERT_TRUE(result.ok) << label << ": " << result.failure_message;
            EXPECT_GE(result.restarts, 2u) << label;
            EXPECT_GT(result.delta_checkpoints, 0u) << label;
            EXPECT_EQ(result.result_count, expected.size()) << label;
            EXPECT_EQ(Canonical(result.pairs), expected) << label;
          }
        }
      }
    }
  }
}

// Severed link mid-stream (loopback wire path): frames cross the cut via
// FIN-after-data + exactly-once replay; lane merge must come out unharmed.
TEST_F(IngestLanesTest, SurvivesDisconnectUnderLanes) {
  const std::vector<ResultPair> expected = Reference();
  DistributedJoinOptions faulty = options_;
  faulty.ingest_lanes = 2;
  faulty.transport = JoinTransport::kLoopback;
  faulty.num_workers = 2;
  faulty.supervise = true;
  faulty.fault_script = "disconnect:dispatcher:1->joiner:1@100x2000";
  const DistributedJoinResult result = RunDistributedJoin(stream_, faulty);
  ASSERT_TRUE(result.ok) << result.failure_message;
  EXPECT_EQ(Canonical(result.pairs), expected);
}

// A live joiner migration while four lanes are feeding it: the migrated
// snapshot carries the merge buffers and lane frontiers.
TEST_F(IngestLanesTest, ElasticMigrationMidRunStaysExact) {
  const std::vector<ResultPair> expected = Reference();
  DistributedJoinOptions elastic = options_;
  elastic.ingest_lanes = 4;
  elastic.fault_script = "migrate:joiner:1->2@300; migrate:joiner:1->0@600";
  // Pace the source so the scheduled migrations land mid-stream.
  elastic.arrival_rate_per_sec = 25'000;
  const DistributedJoinResult result = RunDistributedJoin(stream_, elastic);
  ASSERT_TRUE(result.ok) << result.failure_message;
  EXPECT_EQ(result.migrations, 2u);
  EXPECT_EQ(Canonical(result.pairs), expected);
}

// Adaptive routing with lanes shares one CAS-published epoch list across
// all lane routers. Replan *timing* depends on lane interleaving, so the
// guarantee is exactness (the brute-force pair set), not byte-identical
// replan counters.
TEST_F(IngestLanesTest, SharedAdaptiveRouterStaysExact) {
  options_.window = WindowSpec::ByTime(300 * 1000);
  BruteForceJoiner brute(options_.sim, options_.window);
  const std::vector<ResultPair> expected = Canonical(SingleNodeJoin(stream_, brute));
  ASSERT_GT(expected.size(), 0u);
  DistributedJoinOptions adaptive = options_;
  adaptive.adaptive = true;
  adaptive.adaptive_options.replan_interval = 150;
  adaptive.adaptive_options.half_life_records = 300;
  adaptive.ingest_lanes = 4;
  const DistributedJoinResult result = RunDistributedJoin(stream_, adaptive);
  ASSERT_TRUE(result.ok) << result.failure_message;
  EXPECT_EQ(Canonical(result.pairs), expected);
}

TEST_F(IngestLanesTest, RejectsStatefulRouters) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DistributedJoinOptions broadcast = options_;
  broadcast.ingest_lanes = 2;
  broadcast.strategy = DistributionStrategy::kBroadcast;
  EXPECT_DEATH(RunDistributedJoin(stream_, broadcast), "stateless routing strategy");
}

TEST_F(IngestLanesTest, RejectsNonMonotoneSeqs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<RecordPtr> shuffled = stream_;
  std::swap(shuffled[10], shuffled[11]);
  DistributedJoinOptions options = options_;
  options.ingest_lanes = 2;
  EXPECT_DEATH(RunDistributedJoin(shuffled, options), "strictly increasing");
}

}  // namespace
}  // namespace dssj
