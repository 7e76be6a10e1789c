// Elastic scaling and live state migration (docs/INTERNALS.md §12): the
// migration blob codec must reject every corruption cleanly, and any
// schedule of live migrations — alone, chained, racing kills, or driven by
// the elastic controller — must leave the result set byte-identical to an
// unmigrated run. The MigrationScenario fixture mirrors FaultScenario from
// fault_recovery_test.cc: configure a join, attach a schedule, compare
// against the clean run.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_topology.h"
#include "core/repartition.h"
#include "net/transport.h"
#include "store/format.h"
#include "store/state_store.h"
#include "stream/fault.h"
#include "stream/migration.h"
#include "stream/topology.h"
#include "workload/generator.h"

namespace dssj {
namespace {

// --- Blob codec robustness ----------------------------------------------

stream::MigrationState SampleState() {
  stream::MigrationState st;
  st.task_id = 7;
  st.executed_total = 123456789;
  st.remaining_eos = 3;
  st.has_bolt_state = true;
  st.bolt_state = std::string("hello\0world", 11);
  st.rr = {5, 0, 9, 1ull << 40};
  st.emitted = {{2, 10}, {4, 0}, {9, 1ull << 33}};
  st.next_seq = {{1, 7}, {3, 1}};
  return st;
}

TEST(MigrationBlobTest, RoundtripPreservesEveryField) {
  const stream::MigrationState st = SampleState();
  std::string blob;
  stream::EncodeMigrationState(st, &blob);
  stream::MigrationState out;
  const Status status = stream::DecodeMigrationState(blob.data(), blob.size(), &out);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(out.task_id, st.task_id);
  EXPECT_EQ(out.executed_total, st.executed_total);
  EXPECT_EQ(out.remaining_eos, st.remaining_eos);
  EXPECT_EQ(out.has_bolt_state, st.has_bolt_state);
  EXPECT_EQ(out.bolt_state, st.bolt_state);
  EXPECT_EQ(out.rr, st.rr);
  EXPECT_EQ(out.emitted, st.emitted);
  EXPECT_EQ(out.next_seq, st.next_seq);
}

TEST(MigrationBlobTest, EveryTruncationIsRejected) {
  std::string blob;
  stream::EncodeMigrationState(SampleState(), &blob);
  for (size_t len = 0; len < blob.size(); ++len) {
    stream::MigrationState out;
    const Status status = stream::DecodeMigrationState(blob.data(), len, &out);
    EXPECT_FALSE(status.ok()) << "truncation to " << len << " bytes was accepted";
  }
}

TEST(MigrationBlobTest, EverySingleBitFlipIsRejected) {
  std::string blob;
  stream::EncodeMigrationState(SampleState(), &blob);
  for (size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = blob;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      stream::MigrationState out;
      const Status status = stream::DecodeMigrationState(corrupt.data(), corrupt.size(), &out);
      EXPECT_FALSE(status.ok()) << "bit " << bit << " of byte " << i << " accepted";
    }
  }
}

// The same battery over a blob carrying ~4 KiB of joiner state, the size
// the checksum has to cover in a real handoff.
TEST(MigrationBlobTest, EveryFlipAndTruncationOf4KiBStateIsRejected) {
  stream::MigrationState st = SampleState();
  st.bolt_state.clear();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 4096; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    st.bolt_state.push_back(static_cast<char>(x >> 56));
  }
  std::string blob;
  stream::EncodeMigrationState(st, &blob);
  stream::MigrationState out;
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(stream::DecodeMigrationState(blob.data(), len, &out).ok())
        << "truncation to " << len << " bytes was accepted";
  }
  for (size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      blob[i] = static_cast<char>(blob[i] ^ (1 << bit));
      EXPECT_FALSE(stream::DecodeMigrationState(blob.data(), blob.size(), &out).ok())
          << "bit " << bit << " of byte " << i << " accepted";
      blob[i] = static_cast<char>(blob[i] ^ (1 << bit));
    }
  }
  ASSERT_TRUE(stream::DecodeMigrationState(blob.data(), blob.size(), &out).ok());
  EXPECT_EQ(out.bolt_state, st.bolt_state);
}

TEST(MigrationBlobTest, TrailingBytesAreRejected) {
  std::string blob;
  stream::EncodeMigrationState(SampleState(), &blob);
  blob.push_back('\0');
  stream::MigrationState out;
  EXPECT_FALSE(stream::DecodeMigrationState(blob.data(), blob.size(), &out).ok());
}

TEST(MigrationBlobTest, EmptyAndGarbageAreRejected) {
  stream::MigrationState out;
  EXPECT_FALSE(stream::DecodeMigrationState("", 0, &out).ok());
  const std::string garbage(64, '\x5a');
  EXPECT_FALSE(stream::DecodeMigrationState(garbage.data(), garbage.size(), &out).ok());
}

// --- Worker-migration planner -------------------------------------------

TEST(PlanWorkerMigrationsTest, BalancedPlacementYieldsNoMoves) {
  const std::vector<double> load = {10, 10, 10, 10};
  const std::vector<int> cur = {0, 1, 0, 1};
  EXPECT_TRUE(PlanWorkerMigrations(load, cur, 2, 0.5).empty());
}

TEST(PlanWorkerMigrationsTest, ShrinkEvacuatesInactiveWorkers) {
  const std::vector<double> load = {10, 10, 10, 10};
  const std::vector<int> cur = {0, 1, 2, 3};
  const auto moves = PlanWorkerMigrations(load, cur, 2, 0.5);
  ASSERT_EQ(moves.size(), 2u);
  for (const WorkerMove& mv : moves) {
    EXPECT_TRUE(mv.task_index == 2 || mv.task_index == 3);
    EXPECT_LT(mv.target_worker, 2);
  }
  // Deterministic LPT: both active workers end with one evictee each.
  EXPECT_NE(moves[0].target_worker, moves[1].target_worker);
}

TEST(PlanWorkerMigrationsTest, GrowRebalancesOntoFreedWorkers) {
  const std::vector<double> load = {10, 10, 10, 10};
  const std::vector<int> cur = {0, 0, 0, 0};  // all packed on worker 0
  const auto moves = PlanWorkerMigrations(load, cur, 4, 0.25);
  EXPECT_EQ(moves.size(), 3u);  // bottleneck 40 vs mean 10: spread out
  std::vector<int> assigned = cur;
  for (const WorkerMove& mv : moves) assigned[mv.task_index] = mv.target_worker;
  std::sort(assigned.begin(), assigned.end());
  EXPECT_EQ(assigned, (std::vector<int>{0, 1, 2, 3}));
}

TEST(PlanWorkerMigrationsTest, ToleratedImbalanceStaysPut) {
  const std::vector<double> load = {12, 10};
  const std::vector<int> cur = {0, 1};
  // Bottleneck 12 <= (1 + 0.5) * mean 11: inside the threshold.
  EXPECT_TRUE(PlanWorkerMigrations(load, cur, 2, 0.5).empty());
}

// --- Substrate-level API statuses ---------------------------------------

class IntSpout : public stream::Spout {
 public:
  explicit IntSpout(int64_t n) : n_(n) {}
  bool NextTuple(stream::OutputCollector& out) override {
    if (next_ >= n_) return false;
    out.Emit(stream::MakeTuple(next_++));
    return true;
  }

 private:
  int64_t n_;
  int64_t next_ = 0;
};

class NullBolt : public stream::Bolt {
 public:
  void Execute(stream::Tuple /*tuple*/, stream::OutputCollector& /*out*/) override {}
};

TEST(MigrateTaskApiTest, RejectsWhenNotElastic) {
  stream::TopologyBuilder b;
  b.SetNumWorkers(2);
  b.SetSpout("src", [] { return std::make_unique<IntSpout>(50); });
  b.SetBolt("sink", [] { return std::make_unique<NullBolt>(); }, 2).ShuffleGrouping("src");
  auto topo = b.Build();
  topo->Run();
  EXPECT_EQ(topo->MigrateTask("sink", 0, 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(topo->ok());
}

TEST(MigrateTaskApiTest, ErrorStatusPerFailureMode) {
  stream::TopologyBuilder b;
  b.SetNumWorkers(2).SetElastic(true);
  b.SetSpout("src", [] { return std::make_unique<IntSpout>(50); });
  b.SetBolt("sink", [] { return std::make_unique<NullBolt>(); }, 2).ShuffleGrouping("src");
  auto topo = b.Build();
  // Before Submit: elastic but not running yet.
  EXPECT_EQ(topo->MigrateTask("sink", 0, 1).code(), StatusCode::kFailedPrecondition);
  topo->Run();
  EXPECT_EQ(topo->MigrateTask("nope", 0, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(topo->MigrateTask("sink", 7, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(topo->MigrateTask("src", 0, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(topo->MigrateTask("sink", 0, 9).code(), StatusCode::kOutOfRange);
  // Same-worker migration is a no-op success even after the run.
  EXPECT_TRUE(topo->MigrateTask("sink", 0, 0).ok());
  // A real move after the stream ended: the task is gone.
  EXPECT_EQ(topo->MigrateTask("sink", 0, 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(topo->ok());
  EXPECT_EQ(topo->TaskWorker("sink", 0), 0);
  EXPECT_EQ(topo->TaskWorker("sink", 1), 1);
}

// --- Exactness under scheduled migrations (join level) ------------------

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

std::vector<RecordPtr> MakeStream(uint64_t seed, size_t n) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 400;
  options.zipf_skew = 0.6;
  options.length = LengthModel::Uniform(1, 24);
  options.duplicate_fraction = 0.4;
  options.mutation_rate = 0.12;
  options.dup_locality = 200;
  options.timestamp_step_us = 1000;
  return WorkloadGenerator(options).Generate(n);
}

/// Harness: run the join once clean (static placement, no migrations) and
/// once with an elastic schedule; the elastic run must produce the exact
/// clean result set. `expect_migrations` asserts the schedule actually
/// moved state.
class MigrationScenario : public ::testing::Test {
 protected:
  MigrationScenario() {
    stream_ = MakeStream(1311, 900);
    options_.sim = SimilaritySpec(SimilarityFunction::kJaccard, 750);
    options_.num_joiners = 3;
    options_.collect_results = true;
    options_.length_partition = PlanLengthPartition(stream_, options_.sim, options_.num_joiners,
                                                    PartitionMethod::kLoadAwareGreedy);
    options_.supervision.initial_backoff_micros = 50;  // keep tests fast
    options_.supervision.max_backoff_micros = 1000;
  }

  DistributedJoinResult RunClean() {
    DistributedJoinOptions clean = options_;
    clean.supervise = false;
    clean.elastic = false;
    clean.fault_script.clear();
    DistributedJoinResult result = RunDistributedJoin(stream_, clean);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.migrations, 0u);
    return result;
  }

  DistributedJoinResult RunScheduled(const std::string& script) {
    DistributedJoinOptions elastic = options_;
    elastic.fault_script = script;
    // Pace the source so scheduled seq points land mid-stream: unpaced, the
    // 900-record stream drains in a few ms and late actions race stream end
    // (a benign no-op in production, but these tests assert the actions
    // actually fired). Pacing never changes the result set.
    if (elastic.arrival_rate_per_sec == 0.0) elastic.arrival_rate_per_sec = 25'000;
    return RunDistributedJoin(stream_, elastic);
  }

  void ExpectExact(const std::string& script, uint64_t expect_migrations) {
    const DistributedJoinResult clean = RunClean();
    const DistributedJoinResult elastic = RunScheduled(script);
    ASSERT_TRUE(elastic.ok) << elastic.failure_message;
    EXPECT_EQ(elastic.migrations, expect_migrations) << "script: " << script;
    if (expect_migrations > 0) {
      EXPECT_GT(elastic.migration_bytes, 0u);
    }
    EXPECT_EQ(elastic.result_count, clean.result_count);
    const auto expect = Canonical(clean.pairs);
    const auto got = Canonical(elastic.pairs);
    ASSERT_EQ(got.size(), expect.size()) << "script: " << script;
    EXPECT_EQ(got, expect) << "migrated result set diverged; script: " << script;
    EXPECT_GT(expect.size(), 0u) << "vacuous test stream";
  }

  std::vector<RecordPtr> stream_;
  DistributedJoinOptions options_;
};

TEST_F(MigrationScenario, SingleMigrationIsExact) {
  ExpectExact("migrate:joiner:1->2@300", 1);
}

TEST_F(MigrationScenario, MigrationChainThereAndBackIsExact) {
  ExpectExact("migrate:joiner:0->1@200; migrate:joiner:0->2@400; migrate:joiner:0->0@600", 3);
}

TEST_F(MigrationScenario, NoOpAndDuplicateTargetsAreExact) {
  // First statement targets the task's own worker (no-op); the repeated
  // move finds the task already at its target the second time.
  ExpectExact("migrate:joiner:1->1@150; migrate:joiner:1->2@300; migrate:joiner:1->2@500", 1);
}

TEST_F(MigrationScenario, MigrationWithBundleJoinerIsExact) {
  options_.local = LocalAlgorithm::kBundle;
  ExpectExact("migrate:joiner:2->0@250", 1);
}

TEST_F(MigrationScenario, KillFlaggedBeforeMigrationAtSameProgress) {
  // The crash lands inside the migration window: the task recovers from its
  // checkpoint first, then freezes and moves.
  options_.supervision.checkpoint_interval = 64;
  const DistributedJoinResult clean = RunClean();
  const DistributedJoinResult elastic =
      RunScheduled("kill_worker:1@200; migrate:joiner:1->2@200");
  ASSERT_TRUE(elastic.ok) << elastic.failure_message;
  EXPECT_EQ(elastic.migrations, 1u);
  EXPECT_GT(elastic.restarts, 0u);
  EXPECT_EQ(Canonical(elastic.pairs), Canonical(clean.pairs));
}

TEST_F(MigrationScenario, KillAfterMigrationLandsOnMovedTask) {
  // joiner 1 moves to worker 2 at 250, then worker 2 is killed at 500: the
  // kill must crash the *migrated* incarnation and recover exactly.
  options_.supervision.checkpoint_interval = 64;
  const DistributedJoinResult clean = RunClean();
  const DistributedJoinResult elastic =
      RunScheduled("migrate:joiner:1->2@250; kill_worker:2@500");
  ASSERT_TRUE(elastic.ok) << elastic.failure_message;
  EXPECT_EQ(elastic.migrations, 1u);
  EXPECT_GT(elastic.restarts, 0u);
  EXPECT_EQ(Canonical(elastic.pairs), Canonical(clean.pairs));
}

TEST_F(MigrationScenario, TaskKillRacingMigrationIsExact) {
  // Per-task kill (executed-count trigger) interleaving with a migration of
  // the same task at a nearby point.
  options_.supervision.checkpoint_interval = 32;
  const DistributedJoinResult clean = RunClean();
  const DistributedJoinResult elastic =
      RunScheduled("kill:joiner:0@120; migrate:joiner:0->1@300; kill:joiner:0@260");
  ASSERT_TRUE(elastic.ok) << elastic.failure_message;
  EXPECT_EQ(elastic.migrations, 1u);
  EXPECT_GE(elastic.restarts, 2u);
  EXPECT_EQ(Canonical(elastic.pairs), Canonical(clean.pairs));
}

TEST_F(MigrationScenario, WatchdogToleratesQuiescedFreeze) {
  // The freeze is held far past the stall timeout: without quiesce-awareness
  // the watchdog would fail the run while producers are parked and no task
  // progresses.
  options_.stall_timeout_micros = 40'000;
  options_.supervision.migration_freeze_hold_micros = 150'000;
  const DistributedJoinResult clean = RunClean();
  const DistributedJoinResult elastic = RunScheduled("migrate:joiner:1->0@300");
  ASSERT_TRUE(elastic.ok) << "watchdog tripped during a migration freeze: "
                          << elastic.failure_message;
  EXPECT_EQ(elastic.migrations, 1u);
  EXPECT_EQ(Canonical(elastic.pairs), Canonical(clean.pairs));
}

TEST_F(MigrationScenario, ScriptedAutoscale242WithWorkerKill) {
  // The tentpole scenario: 4 joiners start packed on 2 workers, scale out
  // to 4, lose worker 3 mid-flight, and pack back down to 2 — results must
  // match the static clean run exactly.
  options_.num_joiners = 4;
  options_.num_workers = 4;
  options_.length_partition = PlanLengthPartition(stream_, options_.sim, options_.num_joiners,
                                                  PartitionMethod::kLoadAwareGreedy);
  options_.elastic = true;
  options_.elastic_initial_workers = 2;
  options_.elastic_interval_micros = 1'000'000'000;  // scripted, not load-driven
  options_.supervision.checkpoint_interval = 64;
  const DistributedJoinResult clean = RunClean();
  const DistributedJoinResult elastic = RunScheduled(
      "migrate:joiner:2->2@150; migrate:joiner:3->3@150;"
      " kill_worker:3@400;"
      " migrate:joiner:2->0@600; migrate:joiner:3->1@600");
  ASSERT_TRUE(elastic.ok) << elastic.failure_message;
  EXPECT_EQ(elastic.migrations, 4u);
  EXPECT_GT(elastic.migration_bytes, 0u);
  EXPECT_GT(elastic.restarts, 0u);
  EXPECT_EQ(elastic.result_count, clean.result_count);
  EXPECT_EQ(Canonical(elastic.pairs), Canonical(clean.pairs));
}

TEST_F(MigrationScenario, LoadDrivenControllerIsExact) {
  // Free-running elastic controller (no script): whatever migrations it
  // decides on, the result set must not change.
  options_.elastic = true;
  options_.elastic_initial_workers = 1;
  options_.elastic_interval_micros = 2'000;
  options_.migrate_threshold = 0.2;
  options_.arrival_rate_per_sec = 30'000;  // stretch the run past a few ticks
  const DistributedJoinResult clean = RunClean();
  DistributedJoinOptions elastic_options = options_;
  const DistributedJoinResult elastic = RunDistributedJoin(stream_, elastic_options);
  ASSERT_TRUE(elastic.ok) << elastic.failure_message;
  EXPECT_EQ(elastic.result_count, clean.result_count);
  EXPECT_EQ(Canonical(elastic.pairs), Canonical(clean.pairs));
}

// --- Distributed (TCP) handoff ------------------------------------------

std::string LocalhostCluster(const std::vector<uint16_t>& ports) {
  std::string spec;
  for (const uint16_t port : ports) {
    if (!spec.empty()) spec += ',';
    spec += "127.0.0.1:" + std::to_string(port);
  }
  return spec;
}

TEST(TcpMigrationTest, ElasticClusterMatchesInproc) {
  const std::vector<uint16_t> ports = net::PickFreePorts(2);
  if (ports.empty()) GTEST_SKIP() << "no localhost sockets available";
  const auto stream = MakeStream(907, 700);

  DistributedJoinOptions base;
  base.sim = SimilaritySpec(SimilarityFunction::kJaccard, 750);
  base.num_joiners = 2;
  base.collect_results = true;
  base.length_partition =
      PlanLengthPartition(stream, base.sim, base.num_joiners, PartitionMethod::kLoadAwareGreedy);
  const DistributedJoinResult inproc = RunDistributedJoin(stream, base);
  ASSERT_TRUE(inproc.ok);

  // Elastic cluster: joiners start packed on rank 0; the controller spreads
  // them onto rank 1 over live PREPARE/STATE/HANDOFF/ACK handoffs.
  DistributedJoinOptions elastic = base;
  elastic.transport = JoinTransport::kTcp;
  elastic.cluster = LocalhostCluster(ports);
  elastic.elastic = true;
  elastic.elastic_initial_workers = 1;
  elastic.elastic_interval_micros = 3'000;
  elastic.migrate_threshold = 0.2;
  elastic.arrival_rate_per_sec = 25'000;  // stretch the run past a few ticks

  DistributedJoinResult worker;
  std::thread worker_thread([&] {
    DistributedJoinOptions options = elastic;
    options.rank = 1;
    worker = RunDistributedJoin({}, options);
  });
  DistributedJoinOptions coord = elastic;
  coord.rank = 0;
  const DistributedJoinResult got = RunDistributedJoin(stream, coord);
  worker_thread.join();

  ASSERT_TRUE(got.ok) << got.failure_message;
  ASSERT_TRUE(worker.ok) << worker.failure_message;
  EXPECT_EQ(got.result_count, inproc.result_count);
  EXPECT_EQ(Canonical(got.pairs), Canonical(inproc.pairs));
}

// A joiner that rank 1 adopts mid-run must checkpoint into a chain of its
// own under rank 1's store directory, like any task hosted from the start.
TEST(TcpMigrationTest, AdoptedTaskCheckpointsIntoItsOwnChain) {
  const std::vector<uint16_t> ports = net::PickFreePorts(2);
  if (ports.empty()) GTEST_SKIP() << "no localhost sockets available";
  const auto stream = MakeStream(907, 700);
  std::string tmpl = ::testing::TempDir() + "dssj_adopt_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
  const std::string root = tmpl;

  DistributedJoinOptions base;
  base.sim = SimilaritySpec(SimilarityFunction::kJaccard, 750);
  base.num_joiners = 2;
  base.collect_results = true;
  base.length_partition =
      PlanLengthPartition(stream, base.sim, base.num_joiners, PartitionMethod::kLoadAwareGreedy);
  const DistributedJoinResult inproc = RunDistributedJoin(stream, base);
  ASSERT_TRUE(inproc.ok);

  DistributedJoinOptions elastic = base;
  elastic.transport = JoinTransport::kTcp;
  elastic.cluster = LocalhostCluster(ports);
  elastic.elastic = true;
  elastic.elastic_initial_workers = 1;  // rank 1 hosts nothing at start
  elastic.elastic_interval_micros = 3'000;
  elastic.migrate_threshold = 0.2;
  elastic.arrival_rate_per_sec = 25'000;
  elastic.supervision.checkpoint_interval = 32;

  DistributedJoinResult worker;
  std::thread worker_thread([&] {
    DistributedJoinOptions options = elastic;
    options.rank = 1;
    options.store_dir = root + "/rank1";
    worker = RunDistributedJoin({}, options);
  });
  DistributedJoinOptions coord = elastic;
  coord.rank = 0;
  coord.store_dir = root + "/rank0";
  const DistributedJoinResult got = RunDistributedJoin(stream, coord);
  worker_thread.join();

  ASSERT_TRUE(got.ok) << got.failure_message;
  ASSERT_TRUE(worker.ok) << worker.failure_message;
  EXPECT_EQ(Canonical(got.pairs), Canonical(inproc.pairs));
  if (got.migrations > 0) {
    EXPECT_GT(worker.base_checkpoints, 0u) << "adopted joiners wrote no chain on rank 1";
    size_t chains = 0;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(root + "/rank1", ec)) {
      if (e.path().filename().string().rfind("task_", 0) != 0) continue;
      store::RecoveredChain chain;
      ASSERT_TRUE(store::StateStore(e.path().string()).Recover(&chain).ok());
      EXPECT_TRUE(chain.valid) << "no intact chain in " << e.path();
      ++chains;
    }
    EXPECT_GT(chains, 0u) << "rank 1's store holds no task chain";
  }
  store::RemoveTree(root);
}

}  // namespace
}  // namespace dssj
