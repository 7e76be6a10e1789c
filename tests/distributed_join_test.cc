#include "core/join_topology.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "workload/generator.h"

namespace dssj {
namespace {

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

std::vector<RecordPtr> MakeStream(uint64_t seed, size_t n, double dup_fraction = 0.4) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 500;
  options.zipf_skew = 0.6;
  options.length = LengthModel::Uniform(1, 30);
  options.duplicate_fraction = dup_fraction;
  options.mutation_rate = 0.12;
  options.dup_locality = 300;
  return WorkloadGenerator(options).Generate(n);
}

std::vector<ResultPair> Reference(const std::vector<RecordPtr>& stream,
                                  const SimilaritySpec& sim, const WindowSpec& window) {
  BruteForceJoiner joiner(sim, window);
  return Canonical(SingleNodeJoin(stream, joiner));
}

// (strategy, local algorithm, num_joiners, use_time_window)
using DistParam = std::tuple<DistributionStrategy, LocalAlgorithm, int, bool>;

class DistributedJoinEquivalenceTest : public ::testing::TestWithParam<DistParam> {};

TEST_P(DistributedJoinEquivalenceTest, MatchesSingleNodeReference) {
  const auto [strategy, local, joiners, timed] = GetParam();
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 750);
  // Time windows have identical semantics in distributed and single-node
  // runs (they depend only on record timestamps); count windows are
  // per-partition by design and are tested at the local level.
  const WindowSpec window = timed ? WindowSpec::ByTime(300 * 1000) : WindowSpec::Unbounded();
  const auto stream = MakeStream(91, 800);

  DistributedJoinOptions options;
  options.sim = sim;
  options.window = window;
  options.strategy = strategy;
  options.local = local;
  options.num_joiners = joiners;
  options.collect_results = true;
  if (strategy == DistributionStrategy::kLengthBased) {
    options.length_partition =
        PlanLengthPartition(stream, sim, joiners, PartitionMethod::kLoadAwareGreedy);
  }

  const DistributedJoinResult result = RunDistributedJoin(stream, options);
  const auto expected = Reference(stream, sim, window);
  const auto actual = Canonical(result.pairs);
  EXPECT_EQ(result.result_count, expected.size());
  ASSERT_EQ(actual.size(), expected.size())
      << DistributionStrategyName(strategy) << "/" << LocalAlgorithmName(local)
      << " joiners=" << joiners;
  EXPECT_EQ(actual, expected);
  EXPECT_GT(expected.size(), 0u) << "vacuous test stream";
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DistributedJoinEquivalenceTest,
    ::testing::Values(
        DistParam{DistributionStrategy::kLengthBased, LocalAlgorithm::kRecord, 1, false},
        DistParam{DistributionStrategy::kLengthBased, LocalAlgorithm::kRecord, 4, false},
        DistParam{DistributionStrategy::kLengthBased, LocalAlgorithm::kRecord, 7, false},
        DistParam{DistributionStrategy::kLengthBased, LocalAlgorithm::kRecord, 4, true},
        DistParam{DistributionStrategy::kLengthBased, LocalAlgorithm::kBundle, 4, false},
        DistParam{DistributionStrategy::kLengthBased, LocalAlgorithm::kBundle, 4, true},
        DistParam{DistributionStrategy::kLengthBased, LocalAlgorithm::kBruteForce, 3, false},
        DistParam{DistributionStrategy::kPrefixBased, LocalAlgorithm::kRecord, 1, false},
        DistParam{DistributionStrategy::kPrefixBased, LocalAlgorithm::kRecord, 4, false},
        DistParam{DistributionStrategy::kPrefixBased, LocalAlgorithm::kRecord, 7, true},
        DistParam{DistributionStrategy::kBroadcast, LocalAlgorithm::kRecord, 4, false},
        DistParam{DistributionStrategy::kBroadcast, LocalAlgorithm::kBundle, 4, false},
        DistParam{DistributionStrategy::kBroadcast, LocalAlgorithm::kRecord, 7, true},
        DistParam{DistributionStrategy::kReplicated, LocalAlgorithm::kRecord, 4, false},
        DistParam{DistributionStrategy::kReplicated, LocalAlgorithm::kBundle, 4, true},
        DistParam{DistributionStrategy::kReplicated, LocalAlgorithm::kRecord, 7, false}),
    [](const auto& info) {
      const auto& p = info.param;
      return std::string(DistributionStrategyName(std::get<0>(p))) + "_" +
             LocalAlgorithmName(std::get<1>(p)) + "_k" + std::to_string(std::get<2>(p)) +
             (std::get<3>(p) ? "_timed" : "_unbounded");
    });

TEST(DistributedJoinTest, ReplicatedStrategyKeepsGlobalCountWindowSemantics) {
  // Every joiner holds the full window under kReplicated, so a per-joiner
  // count window behaves exactly like the single-node count window — the
  // only strategy with that property.
  const auto stream = MakeStream(44, 700);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 750);
  const WindowSpec window = WindowSpec::ByCount(120);
  DistributedJoinOptions options;
  options.sim = sim;
  options.window = window;
  options.strategy = DistributionStrategy::kReplicated;
  options.num_joiners = 5;
  const auto result = RunDistributedJoin(stream, options);
  EXPECT_EQ(Canonical(result.pairs), Reference(stream, sim, window));
  EXPECT_NEAR(result.replication_factor, 5.0, 0.2);
}

TEST(DistributedJoinTest, LengthBasedHasNoReplication) {
  const auto stream = MakeStream(5, 600);
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 800);
  options.strategy = DistributionStrategy::kLengthBased;
  options.num_joiners = 6;
  options.length_partition =
      PlanLengthPartition(stream, options.sim, 6, PartitionMethod::kLoadAwareGreedy);
  const auto result = RunDistributedJoin(stream, options);
  // Every non-degenerate record is stored exactly once.
  EXPECT_LE(result.replication_factor, 1.0);
  EXPECT_GT(result.replication_factor, 0.95);
}

TEST(DistributedJoinTest, PrefixBasedReplicatesAndBroadcastDoesNot) {
  const auto stream = MakeStream(6, 600);
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
  options.num_joiners = 6;

  options.strategy = DistributionStrategy::kPrefixBased;
  const auto prefix_result = RunDistributedJoin(stream, options);
  EXPECT_GT(prefix_result.replication_factor, 1.0);

  options.strategy = DistributionStrategy::kBroadcast;
  const auto broadcast_result = RunDistributedJoin(stream, options);
  EXPECT_LE(broadcast_result.replication_factor, 1.0);
  // But broadcast probes everywhere: one dispatch message per joiner per
  // record (minus degenerate records).
  EXPECT_GT(broadcast_result.dispatch_messages, prefix_result.dispatch_messages);
}

TEST(DistributedJoinTest, LengthBasedSendsFewerBytesThanBroadcast) {
  const auto stream = MakeStream(7, 800);
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 800);
  options.num_joiners = 8;
  options.collect_results = false;

  options.strategy = DistributionStrategy::kLengthBased;
  options.length_partition =
      PlanLengthPartition(stream, options.sim, 8, PartitionMethod::kLoadAwareGreedy);
  const auto length_result = RunDistributedJoin(stream, options);

  options.strategy = DistributionStrategy::kBroadcast;
  const auto broadcast_result = RunDistributedJoin(stream, options);

  EXPECT_LT(length_result.dispatch_bytes, broadcast_result.dispatch_bytes);
  EXPECT_LT(length_result.remote_bytes, broadcast_result.remote_bytes);
}

TEST(DistributedJoinTest, NoDuplicatePairsUnderAnyStrategy) {
  const auto stream = MakeStream(8, 500);
  for (const DistributionStrategy strategy :
       {DistributionStrategy::kLengthBased, DistributionStrategy::kPrefixBased,
        DistributionStrategy::kBroadcast}) {
    DistributedJoinOptions options;
    options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
    options.strategy = strategy;
    options.num_joiners = 5;
    if (strategy == DistributionStrategy::kLengthBased) {
      options.length_partition =
          PlanLengthPartition(stream, options.sim, 5, PartitionMethod::kUniform);
    }
    const auto result = RunDistributedJoin(stream, options);
    auto canon = Canonical(result.pairs);
    EXPECT_TRUE(std::adjacent_find(canon.begin(), canon.end()) == canon.end())
        << DistributionStrategyName(strategy) << " emitted a duplicate pair";
  }
}

TEST(DistributedJoinTest, BatchSizeDoesNotChangeTheResultSet) {
  // The batched transport must be a pure performance lever: per-link FIFO is
  // preserved, so the exactly-once rule sees the same interleavings and every
  // batch size yields the identical pair set.
  const auto stream = MakeStream(12, 800);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 750);
  const auto expected = Reference(stream, sim, WindowSpec::Unbounded());
  ASSERT_GT(expected.size(), 0u) << "vacuous test stream";
  for (const size_t batch_size : {size_t{1}, size_t{32}, size_t{256}}) {
    DistributedJoinOptions options;
    options.sim = sim;
    options.strategy = DistributionStrategy::kLengthBased;
    options.num_joiners = 4;
    options.collect_results = true;
    options.batch_size = batch_size;
    options.length_partition =
        PlanLengthPartition(stream, sim, 4, PartitionMethod::kLoadAwareGreedy);
    const auto result = RunDistributedJoin(stream, options);
    EXPECT_EQ(Canonical(result.pairs), expected)
        << "batch_size=" << batch_size << " changed the result set";
  }
}

TEST(DistributedJoinTest, ThroughputAndLatencyArePopulated) {
  const auto stream = MakeStream(10, 400);
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 800);
  options.strategy = DistributionStrategy::kBroadcast;
  options.num_joiners = 2;
  options.collect_results = false;
  const auto result = RunDistributedJoin(stream, options);
  EXPECT_EQ(result.input_records, stream.size());
  EXPECT_GT(result.elapsed_seconds, 0.0);
  EXPECT_GT(result.throughput_rps, 0.0);
  EXPECT_GT(result.latency.count, 0u);
  EXPECT_GE(result.latency.p99_us, result.latency.p50_us);
  ASSERT_EQ(result.joiner_stats.size(), 2u);
  EXPECT_GT(result.joiner_stats[0].probes + result.joiner_stats[1].probes, 0u);
}

TEST(DistributedJoinTest, ArrivalRatePacesTheSource) {
  const auto stream = MakeStream(11, 200);
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 900);
  options.strategy = DistributionStrategy::kBroadcast;
  options.num_joiners = 2;
  options.collect_results = false;
  options.arrival_rate_per_sec = 2000.0;  // 200 records → >= ~0.1 s
  const auto result = RunDistributedJoin(stream, options);
  EXPECT_GE(result.elapsed_seconds, 0.08);
  EXPECT_LE(result.throughput_rps, 2500.0);
}

}  // namespace
}  // namespace dssj
