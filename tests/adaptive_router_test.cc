#include "core/adaptive_router.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "core/join_topology.h"
#include "workload/drift.h"
#include "workload/generator.h"

namespace dssj {
namespace {

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

std::vector<RecordPtr> DriftStream(uint64_t seed, size_t n) {
  DriftOptions options;
  options.base.seed = seed;
  options.base.token_universe = 2000;
  options.base.zipf_skew = 0.6;
  options.base.length = LengthModel::LogNormal(8.0, 0.4, 2, 120);
  options.base.duplicate_fraction = 0.35;
  options.base.mutation_rate = 0.1;
  options.base.dup_locality = 400;
  options.end_length_mean = 30.0;
  options.drift_records = n;
  return DriftingGenerator(options).Generate(n);
}

AdaptiveRouterOptions FastAdapt() {
  AdaptiveRouterOptions options;
  options.replan_interval = 2000;
  options.half_life_records = 2000;
  options.policy.min_improvement = 1.05;
  return options;
}

TEST(AdaptiveLengthRouterTest, ReplansUnderDriftAndStoresExactlyOnce) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  const auto stream = DriftStream(61, 20000);
  const std::vector<RecordPtr> head(stream.begin(), stream.begin() + 2000);
  AdaptiveLengthRouter router(
      sim, PlanLengthPartition(head, sim, 6, PartitionMethod::kLoadAwareGreedy),
      FastAdapt());
  std::vector<RouteTarget> targets;
  for (const RecordPtr& r : stream) {
    router.Route(*r, targets);
    int stores = 0;
    for (const RouteTarget& t : targets) {
      EXPECT_TRUE(t.probe);
      stores += t.store ? 1 : 0;
    }
    if (!targets.empty()) {
      EXPECT_EQ(stores, 1);
    }
  }
  EXPECT_GT(router.replans(), 0u) << "drift never triggered a replan";
  EXPECT_LE(router.live_epochs(), FastAdapt().max_epochs);
}

TEST(AdaptiveLengthRouterTest, EpochsRetireWithTimeWindows) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  const auto stream = DriftStream(62, 30000);
  AdaptiveRouterOptions options = FastAdapt();
  options.window_span_micros = 2000 * 1000;  // 2000 records of stream time
  const std::vector<RecordPtr> head(stream.begin(), stream.begin() + 2000);
  AdaptiveLengthRouter router(
      sim, PlanLengthPartition(head, sim, 6, PartitionMethod::kLoadAwareGreedy), options);
  std::vector<RouteTarget> targets;
  size_t max_live = 0;
  for (const RecordPtr& r : stream) {
    router.Route(*r, targets);
    max_live = std::max(max_live, router.live_epochs());
  }
  EXPECT_GT(router.replans(), 1u);
  // replans()+1 epochs were created in total; retirement must have culled
  // some, and the live set stays small (current + those within one window
  // span of the last two replans).
  EXPECT_LT(router.live_epochs(), router.replans() + 1);
  EXPECT_LE(router.live_epochs(), 3u);
  EXPECT_GE(max_live, 2u);
}

TEST(AdaptiveLengthRouterTest, StopsReplanningAtEpochCapWithoutRetirement) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  const auto stream = DriftStream(63, 40000);
  AdaptiveRouterOptions options = FastAdapt();
  options.max_epochs = 3;
  options.window_span_micros = 0;  // never retire
  const std::vector<RecordPtr> head(stream.begin(), stream.begin() + 2000);
  AdaptiveLengthRouter router(
      sim, PlanLengthPartition(head, sim, 6, PartitionMethod::kLoadAwareGreedy), options);
  std::vector<RouteTarget> targets;
  for (const RecordPtr& r : stream) router.Route(*r, targets);
  EXPECT_LE(router.live_epochs(), 3u);
  EXPECT_LE(router.replans(), 2u);
}

// --- Epoch-retirement boundary behavior --------------------------------------

/// Options that accept every proposed replan (improvement bar at zero), so
/// epoch creation is driven purely by replan_interval and max_epochs.
AdaptiveRouterOptions ForcedReplans(uint64_t interval, int64_t span_micros,
                                    size_t max_epochs) {
  AdaptiveRouterOptions options;
  options.replan_interval = interval;
  options.policy.min_improvement = 0.0;
  options.window_span_micros = span_micros;
  options.max_epochs = max_epochs;
  return options;
}

RecordPtr TimedRecord(uint64_t seq, std::initializer_list<TokenId> tokens, int64_t ts) {
  return MakeRecord(seq, seq, tokens, ts);
}

TEST(AdaptiveLengthRouterTest, RetirementBoundaryIsExclusive) {
  // An epoch closed exactly window_span ago still covers unexpired records
  // (time windows evict strictly-older entries), so it must be retained; one
  // microsecond past the span it must retire.
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  constexpr int64_t kSpan = 1000;
  AdaptiveLengthRouter router(sim, LengthPartition({0, 8, 64}),
                              ForcedReplans(/*interval=*/100, kSpan, /*max_epochs=*/8));
  std::vector<RouteTarget> targets;
  uint64_t seq = 0;
  // 100 records at ts=0: the 100th triggers a replan closing epoch 0 at 0.
  for (int i = 0; i < 100; ++i) {
    router.Route(*TimedRecord(seq++, {1, 2, 3, 4}, 0), targets);
  }
  ASSERT_EQ(router.replans(), 1u);
  ASSERT_EQ(router.live_epochs(), 2u);
  // Exactly window_span later: retained.
  router.Route(*TimedRecord(seq++, {1, 2, 3, 4}, kSpan), targets);
  EXPECT_EQ(router.live_epochs(), 2u) << "epoch closed exactly window_span ago must stay";
  // One past: retired.
  router.Route(*TimedRecord(seq++, {1, 2, 3, 4}, kSpan + 1), targets);
  EXPECT_EQ(router.live_epochs(), 1u);
}

TEST(AdaptiveLengthRouterTest, ZeroRecordEpochsRetireCleanly) {
  // Zero-length records are observed by the drift monitor and drive both
  // retirement and replanning even though Route emits no targets for them —
  // an epoch can therefore close having stored nothing. Retiring it must
  // not crash or disturb the store-exactly-once invariant.
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  AdaptiveLengthRouter router(sim, LengthPartition({0, 8, 64}),
                              ForcedReplans(/*interval=*/10, /*span=*/1000,
                                            /*max_epochs=*/8));
  std::vector<RouteTarget> targets;
  uint64_t seq = 0;
  for (int i = 0; i < 10; ++i) {
    router.Route(*TimedRecord(seq++, {1, 2, 3, 4}, 0), targets);
  }
  ASSERT_EQ(router.replans(), 1u);
  // Ten empty records: no targets, but the interval elapses and the young
  // epoch closes with zero stored records.
  for (int i = 0; i < 10; ++i) {
    router.Route(*TimedRecord(seq++, {}, 0), targets);
    EXPECT_TRUE(targets.empty()) << "empty records must not route anywhere";
  }
  ASSERT_EQ(router.replans(), 2u);
  ASSERT_EQ(router.live_epochs(), 3u);
  // Far in the future: both closed epochs (one empty) retire.
  router.Route(*TimedRecord(seq++, {1, 2, 3, 4}, 5000), targets);
  EXPECT_EQ(router.live_epochs(), 1u);
  int stores = 0;
  for (const RouteTarget& t : targets) stores += t.store ? 1 : 0;
  EXPECT_EQ(stores, 1) << "store-exactly-once must survive retirement";
}

TEST(AdaptiveLengthRouterTest, BackwardTimestampsDoNotRetireOrCrash) {
  // Replay after a fault can re-deliver records whose timestamps precede
  // the newest epoch's close time. now - span goes far negative; nothing
  // may retire and routing must stay well-formed.
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  AdaptiveLengthRouter router(sim, LengthPartition({0, 8, 64}),
                              ForcedReplans(/*interval=*/10, /*span=*/1000,
                                            /*max_epochs=*/8));
  std::vector<RouteTarget> targets;
  uint64_t seq = 0;
  for (int i = 0; i < 10; ++i) {
    router.Route(*TimedRecord(seq++, {1, 2, 3, 4}, 10000), targets);
  }
  ASSERT_EQ(router.live_epochs(), 2u);
  for (int i = 0; i < 5; ++i) {
    router.Route(*TimedRecord(seq++, {1, 2, 3, 4}, 500), targets);
    EXPECT_EQ(router.live_epochs(), 2u) << "backward time must never retire";
    int stores = 0;
    for (const RouteTarget& t : targets) {
      EXPECT_TRUE(t.probe);
      stores += t.store ? 1 : 0;
    }
    EXPECT_EQ(stores, 1);
  }
}

TEST(AdaptiveDistributedJoinTest, MatchesBruteForceUnderDrift) {
  // End-to-end: adaptive routing must not lose or duplicate any pair, even
  // while epochs are created and retired mid-stream.
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 750);
  const auto stream = DriftStream(64, 12000);
  const WindowSpec window = WindowSpec::ByTime(1500 * 1000);

  DistributedJoinOptions options;
  options.sim = sim;
  options.window = window;
  options.strategy = DistributionStrategy::kLengthBased;
  options.num_joiners = 6;
  options.collect_results = true;
  options.adaptive = true;
  options.adaptive_options = FastAdapt();
  const std::vector<RecordPtr> head(stream.begin(), stream.begin() + 2000);
  options.length_partition =
      PlanLengthPartition(head, sim, 6, PartitionMethod::kLoadAwareGreedy);

  const DistributedJoinResult result = RunDistributedJoin(stream, options);
  EXPECT_GT(result.router_replans, 0u) << "test did not exercise adaptation";

  BruteForceJoiner oracle(sim, window);
  const auto expected = Canonical(SingleNodeJoin(stream, oracle));
  EXPECT_EQ(Canonical(result.pairs), expected);
  EXPECT_GT(expected.size(), 100u) << "vacuous stream";
  // Still no replication: every non-degenerate record stored exactly once.
  EXPECT_LE(result.replication_factor, 1.0);
}

}  // namespace
}  // namespace dssj
