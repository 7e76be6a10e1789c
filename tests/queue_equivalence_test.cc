// Every co-located link runs on one lock-free multi-producer,
// single-consumer RingQueue. Whatever configuration a topology runs —
// dataset shape, batch size, fault script, armed shed policy, broadcast
// fan-in — the ring fabric must deliver exactly the brute-force oracle's
// pair set. Every test here runs one workload through
// RunDistributedJoin and compares the canonicalized pairs with
// SingleNodeJoin over a BruteForceJoiner.
#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "core/join_topology.h"
#include "workload/generator.h"

namespace dssj {
namespace {

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

std::vector<RecordPtr> PresetStream(DatasetPreset preset, uint64_t seed, size_t n) {
  WorkloadOptions options = PresetOptions(preset);
  options.seed = seed;
  return WorkloadGenerator(options).Generate(n);
}

std::vector<ResultPair> Oracle(const DistributedJoinOptions& options,
                               const std::vector<RecordPtr>& stream) {
  BruteForceJoiner oracle(options.sim, options.window);
  return Canonical(SingleNodeJoin(stream, oracle));
}

DistributedJoinResult RunJoin(const DistributedJoinOptions& options,
                              const std::vector<RecordPtr>& stream) {
  DistributedJoinResult result = RunDistributedJoin(stream, options);
  EXPECT_TRUE(result.ok) << result.failure_message;
  return result;
}

/// The core assertion: a run of `options` produces the oracle's result set
/// (and publishes the matching result count).
void ExpectOracleResults(const DistributedJoinOptions& options,
                         const std::vector<RecordPtr>& stream, const std::string& what) {
  const DistributedJoinResult run = RunJoin(options, stream);
  const auto expect = Oracle(options, stream);
  EXPECT_EQ(run.result_count, expect.size()) << what;
  const auto got = Canonical(run.pairs);
  ASSERT_EQ(got.size(), expect.size()) << what;
  EXPECT_EQ(got, expect) << what << ": ring run diverged from the oracle";
  EXPECT_GT(expect.size(), 0u) << what << ": vacuous test stream";
}

// (dataset preset, batch size)
using EquivParam = std::tuple<DatasetPreset, size_t>;

class QueueEquivalenceTest : public ::testing::TestWithParam<EquivParam> {
 protected:
  QueueEquivalenceTest() {
    const auto [preset, batch_size] = GetParam();
    stream_ = PresetStream(preset, 2024, 700);
    options_.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
    options_.strategy = DistributionStrategy::kLengthBased;
    options_.num_joiners = 3;
    options_.collect_results = true;
    options_.batch_size = batch_size;
    options_.length_partition = PlanLengthPartition(stream_, options_.sim, options_.num_joiners,
                                                    PartitionMethod::kLoadAwareGreedy);
    what_ = std::string(DatasetPresetName(preset)) + "/batch=" + std::to_string(batch_size);
  }

  std::vector<RecordPtr> stream_;
  DistributedJoinOptions options_;
  std::string what_;
};

TEST_P(QueueEquivalenceTest, CleanRunMatchesOracle) {
  ExpectOracleResults(options_, stream_, what_);
}

TEST_P(QueueEquivalenceTest, FaultScriptRunMatchesOracle) {
  // A joiner kill plus a dropped and a duplicated link envelope: recovery is
  // exactly-once, so the run still yields the oracle's pairs.
  options_.supervise = true;
  options_.fault_script =
      "kill:joiner:1@150; drop:dispatcher:0->joiner:0@40; dup:dispatcher:0->joiner:2@60";
  options_.supervision.checkpoint_interval = 100;
  options_.supervision.initial_backoff_micros = 50;
  options_.supervision.max_backoff_micros = 1000;
  ExpectOracleResults(options_, stream_, what_ + "/faults");
}

TEST_P(QueueEquivalenceTest, ArmedShedPolicyRunMatchesOracle) {
  // Shedding armed but never engaged (ample queue, unhurried stream): the
  // run must report zero sheds and the full result set. (When a flood does
  // engage the policy, which tuples get shed is timing-dependent by design;
  // overload_test covers the loss accounting.)
  options_.shed_policy = stream::ShedPolicy::kProbe;
  options_.shed_watermark = 0.9;
  options_.queue_capacity = 4096;
  const DistributedJoinResult run = RunJoin(options_, stream_);
  EXPECT_EQ(run.shed_probes, 0u) << what_;
  EXPECT_EQ(Canonical(run.pairs), Oracle(options_, stream_)) << what_;
  EXPECT_GT(run.pairs.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndBatchSizes, QueueEquivalenceTest,
    ::testing::Values(EquivParam{DatasetPreset::kTweet, 1},
                      EquivParam{DatasetPreset::kTweet, 16},
                      EquivParam{DatasetPreset::kTweet, 128},
                      EquivParam{DatasetPreset::kDblp, 1},
                      EquivParam{DatasetPreset::kDblp, 16},
                      EquivParam{DatasetPreset::kDblp, 128}),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      return std::string(DatasetPresetName(std::get<0>(info.param))) + "Batch" +
             std::to_string(std::get<1>(info.param));
    });

// Fan-in through the MPMC ring: with broadcast routing every one of the
// four joiners emits results, so the sink's inbound link has four producer
// tasks. Exercised at the batch-size extremes.
TEST(QueueEquivalenceFanInTest, BroadcastBundleJoinMatchesOracle) {
  const auto stream = PresetStream(DatasetPreset::kTweet, 7, 500);
  for (size_t batch_size : {1u, 128u}) {
    DistributedJoinOptions options;
    options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
    options.strategy = DistributionStrategy::kBroadcast;
    options.local = LocalAlgorithm::kBundle;
    options.num_joiners = 4;
    options.collect_results = true;
    options.batch_size = batch_size;
    ExpectOracleResults(options, stream, "broadcast/batch=" + std::to_string(batch_size));
  }
}

}  // namespace
}  // namespace dssj
