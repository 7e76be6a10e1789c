// Transport tests: loopback (wire-encoded single process) and real TCP
// clusters — each rank is a thread calling RunDistributedJoin, exactly the
// multi-process code path minus fork/exec (net_smoke_test covers that).
// Every run's result set must be byte-identical to the single-process
// reference, including under scripted link disconnects and task kills.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "core/join_topology.h"
#include "net/transport.h"
#include "net/wire.h"
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
  options.token_universe = 400;
  options.zipf_skew = 0.6;
  options.length = LengthModel::Uniform(1, 24);
  options.duplicate_fraction = 0.4;
  options.mutation_rate = 0.12;
  options.dup_locality = 200;
  return WorkloadGenerator(options).Generate(n);
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

/// Runs `ranks` copies of RunDistributedJoin (rank 0 on the calling thread)
/// against a fresh localhost cluster. `coordinator_delay_ms` starts rank 0
/// late, exercising the workers' connect retry.
ClusterRun RunTcpCluster(const std::vector<RecordPtr>& input,
                         const DistributedJoinOptions& base, const std::string& cluster,
                         int ranks, int coordinator_delay_ms = 0) {
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
  if (coordinator_delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(coordinator_delay_ms));
  }
  DistributedJoinOptions options = base;
  options.transport = JoinTransport::kTcp;
  options.cluster = cluster;
  options.rank = 0;
  run.coordinator = RunDistributedJoin(input, options);
  for (std::thread& t : threads) t.join();
  return run;
}

TEST(ClusterSpecTest, ParsesHostsAndPorts) {
  auto parsed = net::ParseClusterSpec("127.0.0.1:9000,example.org:80");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].host, "127.0.0.1");
  EXPECT_EQ(parsed.value()[0].port, 9000);
  EXPECT_EQ(parsed.value()[1].host, "example.org");
  EXPECT_EQ(parsed.value()[1].port, 80);
}

TEST(ClusterSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(net::ParseClusterSpec("").ok());
  EXPECT_FALSE(net::ParseClusterSpec("hostonly").ok());
  EXPECT_FALSE(net::ParseClusterSpec("h:notaport").ok());
  EXPECT_FALSE(net::ParseClusterSpec("h:70000").ok());
  EXPECT_FALSE(net::ParseClusterSpec("h:0").ok());
  EXPECT_FALSE(net::ParseClusterSpec(":123").ok());
  EXPECT_FALSE(net::ParseClusterSpec("a:1,,b:2").ok());
}

TEST(LoopbackTransportTest, MatchesInprocResultSet) {
  const auto stream = MakeStream(17, 600);
  DistributedJoinOptions options = BaseOptions(stream);
  const DistributedJoinResult inproc = RunDistributedJoin(stream, options);
  for (const int workers : {2, 3}) {
    options.transport = JoinTransport::kLoopback;
    options.num_workers = workers;
    const DistributedJoinResult loopback = RunDistributedJoin(stream, options);
    EXPECT_TRUE(loopback.ok) << loopback.failure_message;
    EXPECT_EQ(Canonical(loopback.pairs), Canonical(inproc.pairs)) << "workers=" << workers;
    EXPECT_EQ(loopback.result_count, inproc.result_count);
  }
}

TEST(LoopbackTransportTest, BatchSizeInvariant) {
  const auto stream = MakeStream(23, 400);
  DistributedJoinOptions options = BaseOptions(stream);
  const DistributedJoinResult reference = RunDistributedJoin(stream, options);
  options.transport = JoinTransport::kLoopback;
  options.num_workers = 2;
  for (const size_t batch : {size_t{1}, size_t{16}, size_t{128}}) {
    options.batch_size = batch;
    const DistributedJoinResult got = RunDistributedJoin(stream, options);
    EXPECT_EQ(Canonical(got.pairs), Canonical(reference.pairs)) << "batch=" << batch;
  }
}

class TcpClusterTest : public ::testing::Test {
 protected:
  /// Binds a fresh localhost cluster spec or skips on sandboxed runners.
  std::string ClusterOrSkip(int ranks) {
    const std::vector<uint16_t> ports = net::PickFreePorts(ranks);
    if (ports.empty()) return "";
    return LocalhostCluster(ports);
  }
};

TEST_F(TcpClusterTest, TwoRanksMatchSingleProcessAtEveryBatchSize) {
  const auto stream = MakeStream(31, 600);
  DistributedJoinOptions base = BaseOptions(stream);
  const DistributedJoinResult reference = RunDistributedJoin(stream, base);
  ASSERT_GT(reference.result_count, 0u) << "vacuous stream";
  for (const size_t batch : {size_t{1}, size_t{16}, size_t{128}}) {
    const std::string cluster = ClusterOrSkip(2);
    if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
    base.batch_size = batch;
    const ClusterRun run = RunTcpCluster(stream, base, cluster, 2);
    ASSERT_TRUE(run.coordinator.ok) << run.coordinator.failure_message;
    ASSERT_TRUE(run.workers[0].ok) << run.workers[0].failure_message;
    EXPECT_EQ(Canonical(run.coordinator.pairs), Canonical(reference.pairs))
        << "batch=" << batch;
    EXPECT_EQ(run.coordinator.result_count, reference.result_count) << "batch=" << batch;
  }
}

TEST_F(TcpClusterTest, ThreeRanksMatchSingleProcess) {
  const auto stream = MakeStream(37, 600);
  DistributedJoinOptions base = BaseOptions(stream);
  base.num_joiners = 6;  // two joiners per rank
  base.length_partition = PlanLengthPartition(stream, base.sim, base.num_joiners,
                                              PartitionMethod::kLoadAwareGreedy);
  const DistributedJoinResult reference = RunDistributedJoin(stream, base);
  const std::string cluster = ClusterOrSkip(3);
  if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
  const ClusterRun run = RunTcpCluster(stream, base, cluster, 3);
  ASSERT_TRUE(run.coordinator.ok) << run.coordinator.failure_message;
  EXPECT_EQ(Canonical(run.coordinator.pairs), Canonical(reference.pairs));
  EXPECT_EQ(run.coordinator.result_count, reference.result_count);
}

TEST_F(TcpClusterTest, LateCoordinatorIsCoveredByConnectRetry) {
  const auto stream = MakeStream(41, 300);
  DistributedJoinOptions base = BaseOptions(stream);
  const DistributedJoinResult reference = RunDistributedJoin(stream, base);
  const std::string cluster = ClusterOrSkip(2);
  if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
  const ClusterRun run = RunTcpCluster(stream, base, cluster, 2, /*coordinator_delay_ms=*/250);
  ASSERT_TRUE(run.coordinator.ok) << run.coordinator.failure_message;
  EXPECT_EQ(Canonical(run.coordinator.pairs), Canonical(reference.pairs));
}

TEST_F(TcpClusterTest, ScriptedDisconnectRecoversExactly) {
  const auto stream = MakeStream(43, 600);
  DistributedJoinOptions base = BaseOptions(stream);
  const DistributedJoinResult reference = RunDistributedJoin(stream, base);
  const std::string cluster = ClusterOrSkip(2);
  if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
  // joiner:1 lives on rank 1 (placement i % workers), so this severs a real
  // socket mid-stream and redials after 20ms.
  base.fault_script = "disconnect:dispatcher:0->joiner:1@10x20000";
  base.supervise = true;
  base.supervision.checkpoint_interval = 16;
  const ClusterRun run = RunTcpCluster(stream, base, cluster, 2);
  ASSERT_TRUE(run.coordinator.ok) << run.coordinator.failure_message;
  ASSERT_TRUE(run.workers[0].ok) << run.workers[0].failure_message;
  EXPECT_EQ(Canonical(run.coordinator.pairs), Canonical(reference.pairs));
  EXPECT_EQ(run.coordinator.result_count, reference.result_count);
}

TEST_F(TcpClusterTest, RemoteTaskKillRecoversViaCheckpointReplay) {
  const auto stream = MakeStream(47, 600);
  DistributedJoinOptions base = BaseOptions(stream);
  const DistributedJoinResult reference = RunDistributedJoin(stream, base);
  const std::string cluster = ClusterOrSkip(2);
  if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
  // joiner:1 is hosted on rank 1: the kill, checkpoint restore, and replay
  // all happen in the worker process-equivalent, and the coordinator's
  // restart counter still sees it through the metrics barrier.
  base.fault_script = "kill:joiner:1@40; disconnect:dispatcher:0->joiner:1@80x10000";
  base.supervise = true;
  base.supervision.checkpoint_interval = 16;
  const ClusterRun run = RunTcpCluster(stream, base, cluster, 2);
  ASSERT_TRUE(run.coordinator.ok) << run.coordinator.failure_message;
  ASSERT_TRUE(run.workers[0].ok) << run.workers[0].failure_message;
  EXPECT_EQ(Canonical(run.coordinator.pairs), Canonical(reference.pairs));
  EXPECT_EQ(run.coordinator.result_count, reference.result_count);
  EXPECT_GE(run.coordinator.restarts, 1u) << "kill did not reach the remote joiner";
}

TEST_F(TcpClusterTest, LossAccountingIsClusterWide) {
  const auto stream = MakeStream(59, 600);
  DistributedJoinOptions base = BaseOptions(stream);
  base.max_index_bytes = 4000;
  const DistributedJoinResult reference = RunDistributedJoin(stream, base);
  ASSERT_GT(reference.budget_evictions, 0u) << "budget never engaged; vacuous test";
  const std::string cluster = ClusterOrSkip(2);
  if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
  // Half the joiners evict on rank 1; the coordinator must count them too.
  const ClusterRun run = RunTcpCluster(stream, base, cluster, 2);
  ASSERT_TRUE(run.coordinator.ok) << run.coordinator.failure_message;
  ASSERT_TRUE(run.workers[0].ok) << run.workers[0].failure_message;
  EXPECT_EQ(run.coordinator.budget_evictions, reference.budget_evictions);
  EXPECT_EQ(run.coordinator.eviction_horizon_seq, reference.eviction_horizon_seq);
  EXPECT_EQ(run.coordinator.result_count, reference.result_count);
  EXPECT_EQ(Canonical(run.coordinator.pairs), Canonical(reference.pairs));
}

TEST_F(TcpClusterTest, ShedAccountingIsClusterWide) {
  const auto stream = MakeStream(61, 3000);
  DistributedJoinOptions base = BaseOptions(stream);
  // Brute-force joiners behind tiny queues: the dispatcher outruns their
  // O(stored) probes, so the joiners on both ranks shed.
  base.local = LocalAlgorithm::kBruteForce;
  base.strategy = DistributionStrategy::kBroadcast;
  base.num_joiners = 2;
  base.queue_capacity = 8;
  base.batch_size = 4;
  base.shed_policy = stream::ShedPolicy::kProbe;
  base.shed_watermark = 0.75;
  const std::string cluster = ClusterOrSkip(2);
  if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
  const ClusterRun run = RunTcpCluster(stream, base, cluster, 2);
  ASSERT_TRUE(run.coordinator.ok) << run.coordinator.failure_message;
  ASSERT_TRUE(run.workers[0].ok) << run.workers[0].failure_message;
  // Each rank lists the sheds of the joiners it hosts; the coordinator's
  // count must cover both ranks'.
  EXPECT_GT(run.workers[0].shed_probe_seqs.size(), 0u) << "the worker never shed";
  EXPECT_EQ(run.coordinator.shed_probes,
            run.coordinator.shed_probe_seqs.size() + run.workers[0].shed_probe_seqs.size());
}

TEST_F(TcpClusterTest, RemoteFailurePropagatesToCoordinator) {
  const auto stream = MakeStream(53, 400);
  DistributedJoinOptions base = BaseOptions(stream);
  const std::string cluster = ClusterOrSkip(2);
  if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
  // Restart budget 0: the first kill on the remote joiner exhausts it and
  // the worker's failure must surface in the coordinator's result.
  base.fault_script = "kill:joiner:1@40";
  base.supervise = true;
  base.supervision.checkpoint_interval = 16;
  base.supervision.max_restarts = 0;
  const ClusterRun run = RunTcpCluster(stream, base, cluster, 2);
  EXPECT_FALSE(run.coordinator.ok);
  EXPECT_FALSE(run.coordinator.failure_message.empty());
  EXPECT_FALSE(run.workers[0].ok);
}

// kFinish has no wire frame, so sending it to a remote rank must fail
// without queueing anything: no sender starts dialing that rank.
TEST_F(TcpClusterTest, FinishToARemoteRankIsNotSent) {
  const std::string cluster = ClusterOrSkip(2);
  if (cluster.empty()) GTEST_SKIP() << "no localhost sockets available";
  net::TcpTransportOptions options;
  options.cluster = net::ParseClusterSpec(cluster).value();
  net::TcpTransport transport(std::move(options));
  transport.Start(stream::TransportPlan{},
                  [](int, std::vector<stream::Envelope>&& batch) { return batch.size(); },
                  [](const std::string&) {});
  stream::ControlFrame finish;
  finish.kind = stream::ControlKind::kFinish;
  EXPECT_FALSE(transport.SendControl(1, finish));
  EXPECT_EQ(transport.Stats().connect_attempts, 0u) << "a sender was started for rank 1";
}

// A rank-0 transport fed by raw sockets that speak for rank 1, so a test
// controls exactly when each connection's bytes arrive.
class RawPeerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<uint16_t> ports = net::PickFreePorts(2);
    if (ports.empty()) GTEST_SKIP() << "no localhost sockets available";
    port_ = ports[0];
    net::TcpTransportOptions options;
    options.cluster = net::ParseClusterSpec(LocalhostCluster(ports)).value();
    transport_ = std::make_unique<net::TcpTransport>(std::move(options));
    stream::TransportPlan plan;
    plan.num_tasks = 2;
    plan.task_worker = {0, 1};
    transport_->Start(
        plan,
        [this](int, std::vector<stream::Envelope>&& batch) {
          std::lock_guard<std::mutex> lock(mu_);
          for (const stream::Envelope& e : batch) seqs_.push_back(e.link_seq);
          cv_.notify_all();
          return batch.size();
        },
        [this](const std::string& message) {
          std::lock_guard<std::mutex> lock(mu_);
          failure_ = message;
          cv_.notify_all();
        });
  }

  void TearDown() override { transport_.reset(); }

  /// A blocking socket connected to the transport's listener.
  int Dial() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  static void Write(int fd, const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  /// HELLO from rank 1 with `connection`, then one DATA frame from task 1
  /// to task 0 carrying link_seqs [first, last].
  static std::string HelloAndData(uint32_t connection, uint64_t first, uint64_t last) {
    std::string bytes;
    net::AppendHelloFrame(1, connection, &bytes);
    std::vector<stream::Envelope> batch;
    for (uint64_t seq = first; seq <= last; ++seq) {
      stream::Envelope e;
      e.tuple = stream::MakeTuple(static_cast<int64_t>(seq));
      e.source_task = 1;
      e.link_seq = seq;
      batch.push_back(std::move(e));
    }
    net::AppendDataFrame(1, 0, batch, nullptr, &bytes);
    return bytes;
  }

  /// Waits until `n` envelopes arrived or the run failed.
  void AwaitSeqsOrFailure(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(10),
                 [&] { return seqs_.size() >= n || !failure_.empty(); });
  }

  uint16_t port_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint64_t> seqs_;
  std::string failure_;
  std::unique_ptr<net::TcpTransport> transport_;  ///< last: its readers use the above
};

// A redial's reader can parse its HELLO before the reader of the connection
// it replaces, for example when both connections still sit in the listen
// backlog as the accept thread starts. Connection B (index 1) speaks first
// here; its frames must still wait until connection A (index 0) reached
// EOF, or link_seq 10 overtakes 1-9 and the consumer's link guard aborts on
// the gap.
TEST_F(RawPeerTest, DisconnectedConnectionDeliversBeforeItsRedial) {
  const int a = Dial();
  const int b = Dial();
  Write(b, HelloAndData(1, 10, 10));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // B's reader claims first
  Write(a, HelloAndData(0, 1, 9));
  ::close(a);
  ::close(b);
  AwaitSeqsOrFailure(10);
  std::lock_guard<std::mutex> lock(mu_);
  EXPECT_EQ(failure_, "");
  EXPECT_EQ(seqs_, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST_F(RawPeerTest, ReusedConnectionIndexFailsTheRun) {
  const int a = Dial();
  Write(a, HelloAndData(0, 1, 1));
  AwaitSeqsOrFailure(1);
  const int b = Dial();
  Write(b, HelloAndData(0, 2, 2));
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(10), [&] { return !failure_.empty(); });
    EXPECT_NE(failure_.find("reuses connection 0"), std::string::npos) << failure_;
    EXPECT_EQ(seqs_, std::vector<uint64_t>{1});
  }
  ::close(a);
  ::close(b);
}

}  // namespace
}  // namespace dssj
