// Overload-control scenario tests: bounded load shedding with exactly
// quantified recall loss, the stall watchdog, and per-joiner memory budgets
// (docs/INTERNALS.md §8).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "core/bundle_joiner.h"
#include "core/join_topology.h"
#include "core/record_joiner.h"
#include "stream/overload.h"
#include "stream/topology.h"
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
  return WorkloadGenerator(options).Generate(n);
}

std::vector<ResultPair> Oracle(const std::vector<RecordPtr>& stream,
                               const SimilaritySpec& sim) {
  BruteForceJoiner joiner(sim, WindowSpec::Unbounded());
  return Canonical(SingleNodeJoin(stream, joiner));
}

/// A single brute-force joiner behind a tiny queue: the dispatcher outruns
/// the O(stored) probes, so the joiner's inbound queue saturates and any
/// shed policy engages. With one joiner every tuple arrives in seq order,
/// making the loss exactly predictable.
DistributedJoinOptions FloodedOptions(stream::ShedPolicy policy) {
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
  options.window = WindowSpec::Unbounded();
  options.strategy = DistributionStrategy::kBroadcast;
  options.local = LocalAlgorithm::kBruteForce;
  options.num_joiners = 1;
  options.collect_results = true;
  options.queue_capacity = 8;
  options.batch_size = 4;
  options.shed_policy = policy;
  options.shed_watermark = 0.75;
  return options;
}

/// Stores always land, so the result set must equal the oracle minus
/// exactly the pairs whose probe seq was shed — no more, no fewer.
void ExpectExactShedAccounting(const std::vector<RecordPtr>& stream,
                               const DistributedJoinResult& result,
                               const SimilaritySpec& sim) {
  ASSERT_EQ(result.shed_probes, result.shed_probe_seqs.size());
  std::set<uint64_t> shed;
  for (const auto& [seq, partition] : result.shed_probe_seqs) {
    EXPECT_GE(partition, 0);
    EXPECT_TRUE(shed.insert(seq).second) << "probe " << seq << " shed twice";
  }
  const auto expected = Oracle(stream, sim);
  ASSERT_GT(expected.size(), 0u) << "vacuous test stream";
  uint64_t lost = 0;
  std::vector<ResultPair> kept;
  for (const ResultPair& p : expected) {
    if (shed.count(p.probe_seq)) {
      ++lost;
    } else {
      kept.push_back(p);
    }
  }
  EXPECT_EQ(Canonical(result.pairs), Canonical(kept))
      << "recall loss does not match the shed probes exactly";
  EXPECT_LE(lost, result.shed_pairs_upper_bound);
}

TEST(ShedPolicyTest, NamesRoundTripThroughParse) {
  for (const stream::ShedPolicy policy :
       {stream::ShedPolicy::kNone, stream::ShedPolicy::kProbe,
        stream::ShedPolicy::kOldest, stream::ShedPolicy::kBundle}) {
    stream::ShedPolicy parsed = stream::ShedPolicy::kNone;
    EXPECT_TRUE(stream::ParseShedPolicy(stream::ShedPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  stream::ShedPolicy untouched = stream::ShedPolicy::kProbe;
  EXPECT_FALSE(stream::ParseShedPolicy("bogus", &untouched));
  EXPECT_EQ(untouched, stream::ShedPolicy::kProbe);
}

TEST(OverloadControlTest, ProbeSheddingLossIsExactlyQuantified) {
  const auto stream = MakeStream(31, 3000);
  const auto options = FloodedOptions(stream::ShedPolicy::kProbe);
  const auto result = RunDistributedJoin(stream, options);
  ASSERT_TRUE(result.ok) << result.failure_message;
  EXPECT_GT(result.shed_probes, 0u) << "flood never engaged the shed policy";
  EXPECT_LT(result.shed_probes, stream.size()) << "everything was shed";
  ExpectExactShedAccounting(stream, result, options.sim);
}

TEST(OverloadControlTest, OldestSheddingLossIsExactlyQuantified) {
  const auto stream = MakeStream(35, 3000);
  const auto options = FloodedOptions(stream::ShedPolicy::kOldest);
  const auto result = RunDistributedJoin(stream, options);
  ASSERT_TRUE(result.ok) << result.failure_message;
  EXPECT_GT(result.shed_probes, 0u) << "flood never engaged the shed policy";
  EXPECT_LT(result.shed_probes, stream.size()) << "everything was shed";
  ExpectExactShedAccounting(stream, result, options.sim);
}

TEST(OverloadControlTest, TwiceCapacityCompletesWithBoundedLatency) {
  // The acceptance scenario: offer 2x the measured capacity. Without
  // shedding the queue pins at capacity and p99 grows with the backlog;
  // with probe shedding the run completes with a lower p99 and the recall
  // loss still matches shed_probes exactly.
  const auto stream = MakeStream(32, 2500);
  DistributedJoinOptions options = FloodedOptions(stream::ShedPolicy::kNone);
  options.queue_capacity = 64;
  options.batch_size = 8;
  const auto unthrottled = RunDistributedJoin(stream, options);
  ASSERT_TRUE(unthrottled.ok);
  ASSERT_GT(unthrottled.throughput_rps, 0.0);

  options.arrival_rate_per_sec = 2.0 * unthrottled.throughput_rps;
  const auto congested = RunDistributedJoin(stream, options);
  ASSERT_TRUE(congested.ok);
  EXPECT_EQ(congested.shed_probes, 0u);

  options.shed_policy = stream::ShedPolicy::kProbe;
  options.shed_watermark = 0.5;
  const auto shed = RunDistributedJoin(stream, options);
  ASSERT_TRUE(shed.ok) << shed.failure_message;
  EXPECT_GT(shed.shed_probes, 0u) << "2x offered load never triggered shedding";
  ExpectExactShedAccounting(stream, shed, options.sim);
  EXPECT_LE(shed.latency.p99_us, congested.latency.p99_us)
      << "shedding failed to bound the probe backlog";
}

TEST(OverloadControlTest, WatchdogInstrumentationAloneChangesNothing) {
  // Arming the watchdog (health tracking on, policy none) must leave the
  // result set byte-identical to a plain run.
  const auto stream = MakeStream(33, 1200);
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 750);
  options.strategy = DistributionStrategy::kLengthBased;
  options.local = LocalAlgorithm::kRecord;
  options.num_joiners = 4;
  options.collect_results = true;
  options.length_partition =
      PlanLengthPartition(stream, options.sim, 4, PartitionMethod::kLoadAwareGreedy);
  const auto plain = RunDistributedJoin(stream, options);

  options.stall_timeout_micros = 60'000'000;  // armed but far from tripping
  const auto instrumented = RunDistributedJoin(stream, options);
  ASSERT_TRUE(instrumented.ok) << instrumented.failure_message;
  EXPECT_EQ(instrumented.shed_probes, 0u);
  EXPECT_EQ(Canonical(instrumented.pairs), Canonical(plain.pairs));
  EXPECT_EQ(Canonical(plain.pairs), Oracle(stream, options.sim));
}

/// Emits the integers [0, n).
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

/// Spins inside Execute until released — a deterministic wedged topology.
class WedgeBolt : public stream::Bolt {
 public:
  explicit WedgeBolt(std::shared_ptr<std::atomic<bool>> release)
      : release_(std::move(release)) {}
  void Execute(stream::Tuple /*tuple*/, stream::OutputCollector& /*out*/) override {
    while (!release_->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

 private:
  std::shared_ptr<std::atomic<bool>> release_;
};

TEST(StallWatchdogTest, DetectsWedgedBoltAndDumpsTaskState) {
  auto release = std::make_shared<std::atomic<bool>>(false);
  stream::TopologyBuilder builder;
  builder.SetQueueCapacity(16);
  stream::OverloadOptions overload;
  overload.stall_timeout_micros = 150'000;
  overload.watchdog_interval_micros = 20'000;
  builder.SetOverload(overload);
  builder.SetSpout("ints", [] { return std::make_unique<IntSpout>(64); });
  builder.SetBolt("wedge", [release] { return std::make_unique<WedgeBolt>(release); })
      .ShuffleGrouping("ints");
  auto topology = builder.Build();
  topology->Submit();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (topology->ok() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(topology->ok()) << "watchdog never tripped on a wedged bolt";
  release->store(true, std::memory_order_release);
  topology->Wait();

  const std::string msg = topology->failure_message();
  EXPECT_NE(msg.find("stall watchdog"), std::string::npos) << msg;
  // The dump names every task with its progress counters and queue state.
  EXPECT_NE(msg.find("wedge"), std::string::npos) << msg;
  EXPECT_NE(msg.find("executed="), std::string::npos) << msg;
  EXPECT_NE(msg.find("queue="), std::string::npos) << msg;
}

TEST(StallWatchdogTest, SustainedOverloadWithoutSheddingFailsFast) {
  // With shedding disabled, a joiner that cannot keep up leaves tuples
  // queued past the stall timeout; the watchdog must fail the run and say
  // why instead of letting latency grow without bound.
  const auto stream = MakeStream(34, 12000);
  DistributedJoinOptions options = FloodedOptions(stream::ShedPolicy::kNone);
  // A deep queue: the unpaced source fills it while the O(stored) probes
  // slow down, so the oldest queued tuple ages far past the stall timeout.
  options.queue_capacity = 2048;
  options.batch_size = 32;
  options.collect_results = false;
  options.stall_timeout_micros = 40'000;
  const auto result = RunDistributedJoin(stream, options);
  EXPECT_FALSE(result.ok) << "watchdog never tripped under sustained overload";
  EXPECT_NE(result.failure_message.find("stall watchdog"), std::string::npos)
      << result.failure_message;
  EXPECT_NE(result.failure_message.find("joiner"), std::string::npos)
      << result.failure_message;
}

/// Missing pairs must all have their stored partner at or below the
/// eviction horizon; pairs the budgeted run does emit must be oracle pairs.
void ExpectBudgetLossBoundedByHorizon(const std::vector<ResultPair>& full,
                                      const std::vector<ResultPair>& got,
                                      uint64_t horizon) {
  std::set<std::pair<uint64_t, uint64_t>> full_set, got_set;
  for (const ResultPair& p : full) full_set.insert({p.probe_seq, p.partner_seq});
  for (const ResultPair& p : got) got_set.insert({p.probe_seq, p.partner_seq});
  for (const ResultPair& p : got) {
    EXPECT_TRUE(full_set.count({p.probe_seq, p.partner_seq}))
        << "budgeted run invented pair " << p.probe_seq << "," << p.partner_seq;
  }
  uint64_t missing = 0;
  for (const ResultPair& p : full) {
    if (got_set.count({p.probe_seq, p.partner_seq})) continue;
    ++missing;
    EXPECT_LE(p.partner_seq, horizon)
        << "lost a pair whose partner was never evicted early";
  }
  EXPECT_GT(missing, 0u) << "budget never cost a pair; tighten the test budget";
}

TEST(MemoryBudgetTest, RecordJoinerBoundsIndexAndReportsHorizon) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const auto stream = MakeStream(21, 3000);
  RecordJoinerOptions budgeted_options;
  budgeted_options.max_index_bytes = 32 * 1024;
  RecordJoiner budgeted(sim, WindowSpec::Unbounded(), budgeted_options);
  RecordJoiner unbounded(sim, WindowSpec::Unbounded(), RecordJoinerOptions{});
  const auto got = Canonical(SingleNodeJoin(stream, budgeted));
  const auto full = Canonical(SingleNodeJoin(stream, unbounded));
  EXPECT_LT(budgeted.StoredCount(), unbounded.StoredCount() / 2);
  EXPECT_GT(budgeted.stats().budget_evictions, 0u);
  EXPECT_GE(budgeted.stats().evictions, budgeted.stats().budget_evictions);
  const uint64_t horizon = budgeted.stats().eviction_horizon_seq;
  EXPECT_GT(horizon, 0u);
  ExpectBudgetLossBoundedByHorizon(full, got, horizon);
}

TEST(MemoryBudgetTest, BundleJoinerBoundsIndexAndReportsHorizon) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const auto stream = MakeStream(22, 3000);
  BundleJoinerOptions budgeted_options;
  budgeted_options.max_index_bytes = 32 * 1024;
  BundleJoiner budgeted(sim, WindowSpec::Unbounded(), budgeted_options);
  BundleJoiner unbounded(sim, WindowSpec::Unbounded(), BundleJoinerOptions{});
  const auto got = Canonical(SingleNodeJoin(stream, budgeted));
  const auto full = Canonical(SingleNodeJoin(stream, unbounded));
  EXPECT_LT(budgeted.StoredCount(), unbounded.StoredCount() / 2);
  EXPECT_GT(budgeted.stats().budget_evictions, 0u);
  const uint64_t horizon = budgeted.stats().eviction_horizon_seq;
  EXPECT_GT(horizon, 0u);
  ExpectBudgetLossBoundedByHorizon(full, got, horizon);
}

/// Feeds the first half into `a`, snapshots, restores into a fresh joiner,
/// then feeds the second half into both: budget evictions are part of the
/// deterministic state machine, so the tails must match exactly.
void ExpectBudgetedSnapshotDeterminism(
    const std::vector<RecordPtr>& stream, LocalJoiner& a,
    const std::function<std::unique_ptr<LocalJoiner>()>& fresh) {
  ASSERT_TRUE(a.SupportsSnapshot());
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    a.Process(stream[i], /*store=*/true, /*probe=*/true, [](const ResultPair&) {});
  }
  std::string blob;
  a.Snapshot(&blob);
  auto b = fresh();
  b->Restore(blob);
  EXPECT_EQ(a.StoredCount(), b->StoredCount());

  std::vector<ResultPair> tail_a, tail_b;
  for (size_t i = half; i < stream.size(); ++i) {
    a.Process(stream[i], true, true, [&](const ResultPair& p) { tail_a.push_back(p); });
    b->Process(stream[i], true, true, [&](const ResultPair& p) { tail_b.push_back(p); });
  }
  EXPECT_EQ(tail_a, tail_b) << "restored joiner diverged (same order required)";
  EXPECT_EQ(a.StoredCount(), b->StoredCount());
  EXPECT_EQ(a.stats().budget_evictions, b->stats().budget_evictions);
  EXPECT_EQ(a.stats().eviction_horizon_seq, b->stats().eviction_horizon_seq);
  EXPECT_GT(a.stats().budget_evictions, 0u) << "budget never engaged; vacuous test";
}

TEST(MemoryBudgetTest, BudgetedRecordJoinerSnapshotRestoreIsDeterministic) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const auto stream = MakeStream(23, 2400);
  RecordJoinerOptions options;
  options.max_index_bytes = 24 * 1024;
  RecordJoiner joiner(sim, WindowSpec::Unbounded(), options);
  ExpectBudgetedSnapshotDeterminism(stream, joiner, [&] {
    return std::make_unique<RecordJoiner>(sim, WindowSpec::Unbounded(), options);
  });
}

TEST(MemoryBudgetTest, BudgetedBundleJoinerSnapshotRestoreIsDeterministic) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const auto stream = MakeStream(24, 2400);
  BundleJoinerOptions options;
  options.max_index_bytes = 24 * 1024;
  BundleJoiner joiner(sim, WindowSpec::Unbounded(), options);
  ExpectBudgetedSnapshotDeterminism(stream, joiner, [&] {
    return std::make_unique<BundleJoiner>(sim, WindowSpec::Unbounded(), options);
  });
}

TEST(MemoryBudgetTest, DistributedRunReportsBudgetEvictions) {
  const auto stream = MakeStream(25, 3000);
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
  options.strategy = DistributionStrategy::kBroadcast;
  options.local = LocalAlgorithm::kRecord;
  options.num_joiners = 2;
  options.collect_results = true;
  options.max_index_bytes = 32 * 1024;
  const auto result = RunDistributedJoin(stream, options);
  ASSERT_TRUE(result.ok) << result.failure_message;
  EXPECT_GT(result.budget_evictions, 0u);
  EXPECT_GT(result.eviction_horizon_seq, 0u);
  // Budget evictions only ever lose pairs, never invent or duplicate them.
  const auto expected = Oracle(stream, options.sim);
  const auto got = Canonical(result.pairs);
  EXPECT_LT(got.size(), expected.size());
  std::set<std::pair<uint64_t, uint64_t>> expected_set;
  for (const ResultPair& p : expected) expected_set.insert({p.probe_seq, p.partner_seq});
  for (const ResultPair& p : got) {
    EXPECT_TRUE(expected_set.count({p.probe_seq, p.partner_seq}))
        << "invented pair " << p.probe_seq << "," << p.partner_seq;
  }
  EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
}

}  // namespace
}  // namespace dssj
