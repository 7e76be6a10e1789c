// Unit tests of the join-topology facade: factories, naming, degenerate
// inputs, and configuration validation (complements the end-to-end
// equivalence tests in distributed_join_test.cc).

#include "core/join_topology.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "dssj.h"  // umbrella header must compile and suffice on its own

namespace dssj {
namespace {

std::vector<ResultPair> SortedPairs(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

TEST(NamesTest, AllEnumeratorsHaveNames) {
  EXPECT_STREQ(DistributionStrategyName(DistributionStrategy::kLengthBased), "length");
  EXPECT_STREQ(DistributionStrategyName(DistributionStrategy::kPrefixBased), "prefix");
  EXPECT_STREQ(DistributionStrategyName(DistributionStrategy::kBroadcast), "broadcast");
  EXPECT_STREQ(LocalAlgorithmName(LocalAlgorithm::kRecord), "record");
  EXPECT_STREQ(LocalAlgorithmName(LocalAlgorithm::kBundle), "bundle");
  EXPECT_STREQ(LocalAlgorithmName(LocalAlgorithm::kBruteForce), "bruteforce");
  EXPECT_STREQ(PartitionMethodName(PartitionMethod::kLoadAwareGreedy), "load-aware-greedy");
  EXPECT_STREQ(PartitionMethodName(PartitionMethod::kLoadAwareFull), "load-aware-full");
  EXPECT_STREQ(SimilarityFunctionName(SimilarityFunction::kOverlap), "overlap");
  EXPECT_STREQ(DatasetPresetName(DatasetPreset::kDblp), "DBLP");
}

TEST(MakeLocalJoinerTest, BuildsEveryAlgorithm) {
  DistributedJoinOptions options;
  options.local = LocalAlgorithm::kRecord;
  EXPECT_NE(MakeLocalJoiner(options, 0), nullptr);
  options.local = LocalAlgorithm::kBundle;
  EXPECT_NE(MakeLocalJoiner(options, 0), nullptr);
  options.local = LocalAlgorithm::kBruteForce;
  EXPECT_NE(MakeLocalJoiner(options, 0), nullptr);
}

TEST(MakeLocalJoinerDeathTest, PrefixStrategyRestrictsAlgorithms) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DistributedJoinOptions options;
  options.strategy = DistributionStrategy::kPrefixBased;
  options.local = LocalAlgorithm::kBundle;
  EXPECT_DEATH(MakeLocalJoiner(options, 0), "not defined for the prefix");
  options.local = LocalAlgorithm::kBruteForce;
  EXPECT_DEATH(MakeLocalJoiner(options, 0), "dedup");
}

TEST(RunDistributedJoinTest, EmptyInputCompletesCleanly) {
  DistributedJoinOptions options;
  options.num_joiners = 3;
  options.strategy = DistributionStrategy::kBroadcast;
  const DistributedJoinResult result = RunDistributedJoin({}, options);
  EXPECT_EQ(result.input_records, 0u);
  EXPECT_EQ(result.result_count, 0u);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.replication_factor, 0.0);
  EXPECT_EQ(result.latency.count, 0u);
}

TEST(RunDistributedJoinTest, AllEmptyRecordsYieldNothing) {
  std::vector<RecordPtr> stream;
  for (uint64_t i = 0; i < 50; ++i) stream.push_back(MakeRecord(i, i, {}));
  DistributedJoinOptions options;
  options.num_joiners = 2;
  options.strategy = DistributionStrategy::kLengthBased;
  options.length_partition = LengthPartition({0, 8, 64});
  const DistributedJoinResult result = RunDistributedJoin(stream, options);
  EXPECT_EQ(result.result_count, 0u);
  EXPECT_EQ(result.stores, 0u);
  EXPECT_EQ(result.dispatch_messages, 0u);
}

TEST(RunDistributedJoinTest, SingleRecordHasNoPartner) {
  const std::vector<RecordPtr> stream{MakeRecord(0, 0, {1, 2, 3})};
  DistributedJoinOptions options;
  options.num_joiners = 2;
  options.strategy = DistributionStrategy::kBroadcast;
  const DistributedJoinResult result = RunDistributedJoin(stream, options);
  EXPECT_EQ(result.result_count, 0u);
  EXPECT_EQ(result.stores, 1u);
}

TEST(RunDistributedJoinTest, IdenticalRunsGiveIdenticalResultSets) {
  WorkloadOptions wo;
  wo.seed = 71;
  wo.token_universe = 300;
  wo.duplicate_fraction = 0.4;
  const auto stream = WorkloadGenerator(wo).Generate(500);
  DistributedJoinOptions options;
  options.num_joiners = 4;
  options.strategy = DistributionStrategy::kLengthBased;
  options.length_partition =
      PlanLengthPartition(stream, options.sim, 4, PartitionMethod::kLoadAwareGreedy);
  const auto a = SortedPairs(RunDistributedJoin(stream, options).pairs);
  const auto b = SortedPairs(RunDistributedJoin(stream, options).pairs);
  EXPECT_EQ(a, b);
}

// A paced source waits for each record's due time by sleeping, so its
// thread uses a small fraction of the run's wall time (a source that polled
// the clock between records 50 us apart would use nearly all of it), while
// catching up after each oversleep keeps the offered rate. Pacing changes
// only when records arrive, never the result set. A CPU ratio means little
// under a sanitizer's slowdown, so this suite stays out of the sanitizer
// sets.
TEST(RunDistributedJoinTest, PacedSourceSleepsAndHoldsTheOfferedRate) {
  constexpr double kRate = 20000;
  WorkloadOptions wo;
  wo.seed = 74;
  wo.token_universe = 300;
  wo.duplicate_fraction = 0.4;
  const auto stream = WorkloadGenerator(wo).Generate(8000);  // 0.4 s at kRate
  DistributedJoinOptions options;
  options.num_joiners = 4;
  options.strategy = DistributionStrategy::kLengthBased;
  options.length_partition =
      PlanLengthPartition(stream, options.sim, 4, PartitionMethod::kLoadAwareGreedy);
  const auto unpaced = SortedPairs(RunDistributedJoin(stream, options).pairs);
  ASSERT_FALSE(unpaced.empty());

  options.arrival_rate_per_sec = kRate;
  const DistributedJoinResult paced = RunDistributedJoin(stream, options);
  ASSERT_TRUE(paced.ok) << paced.failure_message;
  EXPECT_EQ(SortedPairs(paced.pairs), unpaced);
  EXPECT_NEAR(paced.throughput_rps, kRate, kRate * 0.05);
  const auto source = std::find_if(
      paced.stage_times.begin(), paced.stage_times.end(),
      [](const DistributedJoinResult::StageTime& st) { return st.component == "source"; });
  ASSERT_NE(source, paced.stage_times.end());
  EXPECT_LT(static_cast<double>(source->busy_micros), paced.elapsed_seconds * 1e6 / 4)
      << "the paced source used " << source->busy_micros << " us of CPU in a "
      << paced.elapsed_seconds << " s run";
}

TEST(WindowSpecTest, ToStringAndPredicates) {
  EXPECT_EQ(WindowSpec::Unbounded().ToString(), "window=unbounded");
  EXPECT_EQ(WindowSpec::ByCount(5).ToString(), "window=count:5");
  EXPECT_EQ(WindowSpec::ByTime(100).ToString(), "window=time:100us");
  const WindowSpec count = WindowSpec::ByCount(3);
  EXPECT_FALSE(count.OverCount(2));
  EXPECT_TRUE(count.OverCount(3));
  EXPECT_FALSE(count.ExpiredByTime(0, 1 << 20));
  const WindowSpec timed = WindowSpec::ByTime(100);
  EXPECT_TRUE(timed.ExpiredByTime(0, 101));
  EXPECT_FALSE(timed.ExpiredByTime(1, 101));
  EXPECT_FALSE(timed.OverCount(1u << 20));
}

TEST(LatencySummaryTest, PopulatedFromRun) {
  WorkloadOptions wo;
  wo.seed = 72;
  const auto stream = WorkloadGenerator(wo).Generate(300);
  DistributedJoinOptions options;
  options.num_joiners = 2;
  options.strategy = DistributionStrategy::kBroadcast;
  options.collect_results = false;
  const DistributedJoinResult result = RunDistributedJoin(stream, options);
  EXPECT_GT(result.latency.count, 0u);
  EXPECT_GE(result.latency.p95_us, result.latency.p50_us);
  EXPECT_GE(result.latency.p99_us, result.latency.p95_us);
  EXPECT_GE(result.latency.max_us, result.latency.p99_us);
  EXPECT_GT(result.latency.mean_us, 0.0);
}

TEST(RemoteByteCostTest, InflatesScaledCostOnly) {
  WorkloadOptions wo;
  wo.seed = 73;
  const auto stream = WorkloadGenerator(wo).Generate(2000);
  DistributedJoinOptions options;
  options.num_joiners = 4;
  options.strategy = DistributionStrategy::kBroadcast;
  options.collect_results = false;
  const auto free_run = RunDistributedJoin(stream, options);
  options.remote_byte_cost_ns = 50.0;  // exaggerated to dominate
  const auto costly_run = RunDistributedJoin(stream, options);
  EXPECT_EQ(free_run.result_count, costly_run.result_count);
  EXPECT_EQ(free_run.dispatch_bytes, costly_run.dispatch_bytes);
  EXPECT_LT(costly_run.scaled_throughput_rps, free_run.scaled_throughput_rps);
}

}  // namespace
}  // namespace dssj
