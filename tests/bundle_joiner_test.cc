#include "core/bundle_joiner.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "core/join_topology.h"
#include "core/record_joiner.h"
#include "workload/generator.h"

namespace dssj {
namespace {

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

std::vector<RecordPtr> DupStream(uint64_t seed, size_t n, double dup_fraction) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 3000;
  options.zipf_skew = 0.5;
  options.length = LengthModel::Uniform(4, 30);
  options.duplicate_fraction = dup_fraction;
  options.mutation_rate = 0.06;
  options.dup_locality = 500;
  return WorkloadGenerator(options).Generate(n);
}

TEST(BundleJoinerTest, BundlesActuallyForm) {
  const auto stream = DupStream(31, 2000, 0.6);
  BundleJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 800),
                      WindowSpec::Unbounded());
  SingleNodeJoin(stream, joiner);
  const JoinerStats& s = joiner.stats();
  EXPECT_GT(s.members_added, 0u) << "no record ever joined an existing bundle";
  EXPECT_LT(joiner.BundleCount(), joiner.StoredCount())
      << "every record founded its own bundle";
  EXPECT_GT(s.batch_accepts + s.batch_rejects + s.member_diff_resolutions, 0u);
}

TEST(BundleJoinerTest, PivotSelfPairIsExact) {
  BundleJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 800),
                      WindowSpec::Unbounded());
  std::vector<ResultPair> pairs;
  const auto cb = [&pairs](const ResultPair& p) { pairs.push_back(p); };
  joiner.Process(MakeRecord(0, 0, {1, 2, 3, 4, 5}), true, true, cb);
  joiner.Process(MakeRecord(1, 1, {1, 2, 3, 4, 5}), true, true, cb);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].partner_seq, 0u);
  EXPECT_EQ(joiner.BundleCount(), 1u);  // duplicate joined the pivot's bundle
  EXPECT_EQ(joiner.StoredCount(), 2u);
}

TEST(BundleJoinerTest, MaxDiffLimitsBundleGrowth) {
  const auto stream = DupStream(32, 1500, 0.6);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 600);
  BundleJoinerOptions tight, loose;
  tight.max_diff = 2;
  loose.max_diff = 1000;
  BundleJoiner a(sim, WindowSpec::Unbounded(), tight);
  BundleJoiner b(sim, WindowSpec::Unbounded(), loose);
  const auto pa = Canonical(SingleNodeJoin(stream, a));
  const auto pb = Canonical(SingleNodeJoin(stream, b));
  EXPECT_EQ(pa, pb) << "max_diff is an efficiency knob, not a semantic one";
  EXPECT_GE(a.BundleCount(), b.BundleCount());
}

TEST(BundleJoinerTest, IndividualVerificationModeIsEquivalent) {
  const auto stream = DupStream(33, 1500, 0.5);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 750);
  BundleJoinerOptions batch, individual;
  batch.batch_verify = true;
  individual.batch_verify = false;
  BundleJoiner a(sim, WindowSpec::Unbounded(), batch);
  BundleJoiner b(sim, WindowSpec::Unbounded(), individual);
  const auto pa = Canonical(SingleNodeJoin(stream, a));
  const auto pb = Canonical(SingleNodeJoin(stream, b));
  EXPECT_EQ(pa, pb);
  // Batch verification touches far fewer tokens.
  EXPECT_LT(a.stats().verify.merge_steps, b.stats().verify.merge_steps);
  EXPECT_GT(a.stats().batch_accepts + a.stats().batch_rejects, 0u);
  EXPECT_EQ(b.stats().batch_accepts, 0u);
}

TEST(BundleJoinerTest, AdmissionThresholdControlsBundleTightness) {
  const auto stream = DupStream(34, 1500, 0.6);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 600);
  BundleJoinerOptions loose_opt, tight_opt;
  loose_opt.admission_permille = 600;
  tight_opt.admission_permille = 950;
  BundleJoiner loose(sim, WindowSpec::Unbounded(), loose_opt);
  BundleJoiner tight(sim, WindowSpec::Unbounded(), tight_opt);
  const auto pl = Canonical(SingleNodeJoin(stream, loose));
  const auto pt = Canonical(SingleNodeJoin(stream, tight));
  EXPECT_EQ(pl, pt);
  EXPECT_LE(loose.BundleCount(), tight.BundleCount());
}

TEST(BundleJoinerTest, EvictionDissolvesBundles) {
  BundleJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 800),
                      WindowSpec::ByCount(3));
  const auto cb = [](const ResultPair&) {};
  // Three exact duplicates form one bundle of three members.
  for (uint64_t i = 0; i < 3; ++i) {
    joiner.Process(MakeRecord(i, i, {10, 20, 30, 40}), true, true, cb);
  }
  EXPECT_EQ(joiner.BundleCount(), 1u);
  EXPECT_EQ(joiner.StoredCount(), 3u);
  // Unrelated records push the members out one by one.
  for (uint64_t i = 3; i < 6; ++i) {
    joiner.Process(
        MakeRecord(i, i, {static_cast<TokenId>(100 + 10 * i), static_cast<TokenId>(101 + 10 * i),
                          static_cast<TokenId>(102 + 10 * i)}),
        true, true, cb);
  }
  EXPECT_EQ(joiner.StoredCount(), 3u);
  EXPECT_EQ(joiner.stats().evictions, 3u);
  // The duplicate bundle is fully gone; a fresh duplicate matches nothing.
  std::vector<ResultPair> pairs;
  joiner.Process(MakeRecord(9, 9, {10, 20, 30, 40}), false, true,
                 [&pairs](const ResultPair& p) { pairs.push_back(p); });
  EXPECT_TRUE(pairs.empty());
}

TEST(BundleJoinerTest, TimeWindowMatchesBruteForceUnderHeavyChurn) {
  const auto stream = DupStream(35, 3000, 0.7);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const WindowSpec window = WindowSpec::ByTime(200 * 1000);
  BundleJoiner bundle(sim, window);
  BruteForceJoiner brute(sim, window);
  EXPECT_EQ(Canonical(SingleNodeJoin(stream, bundle)),
            Canonical(SingleNodeJoin(stream, brute)));
  EXPECT_GT(bundle.stats().evictions, 0u);
}

TEST(BundleJoinerTest, BatchVerificationSharesCostAgainstRecordJoiner) {
  // On duplicate-rich streams the bundle joiner should scan fewer postings
  // than the record-at-a-time joiner (bundles collapse posting lists).
  const auto stream = DupStream(36, 4000, 0.7);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  BundleJoiner bundle(sim, WindowSpec::Unbounded());
  RecordJoiner record(sim, WindowSpec::Unbounded());
  const auto pb = Canonical(SingleNodeJoin(stream, bundle));
  const auto pr = Canonical(SingleNodeJoin(stream, record));
  EXPECT_EQ(pb, pr);
  EXPECT_LT(bundle.stats().postings_scanned, record.stats().postings_scanned);
}

// State must track the time window, not the stream's history: a retired
// bundle takes its postings with it, so on a large-vocabulary stream (whose
// rare prefix tokens are seldom probed again) neither the index nor a
// checkpoint base keeps growing once the window is full.
TEST(BundleJoinerTest, IndexAndBaseStayBoundedByTheWindow) {
  constexpr size_t kPerWindow = 1000;
  constexpr size_t kWindows = 12;
  WorkloadOptions wo;
  wo.seed = 41;
  wo.token_universe = 1u << 20;
  wo.zipf_skew = 0.9;
  wo.duplicate_fraction = 0.4;
  wo.dup_locality = 500;
  wo.timestamp_step_us = 1000;
  const auto stream = WorkloadGenerator(wo).Generate(kPerWindow * kWindows);
  BundleJoinerOptions opts;
  BundleJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 800),
                      WindowSpec::ByTime(static_cast<int64_t>(kPerWindow) * wo.timestamp_step_us),
                      opts);
  const auto cb = [](const ResultPair&) {};
  size_t memory_at_2 = 0;
  size_t base_at_2 = 0;
  for (size_t w = 1; w <= kWindows; ++w) {
    for (size_t i = (w - 1) * kPerWindow; i < w * kPerWindow; ++i) {
      joiner.Process(stream[i], true, true, cb);
    }
    std::string base;
    joiner.FreezeBase().encode(&base);
    if (w == 2) {
      memory_at_2 = joiner.MemoryBytes();
      base_at_2 = base.size();
    } else if (w >= 10) {
      EXPECT_LE(joiner.MemoryBytes(), memory_at_2 * 3 / 2) << "after window " << w;
      EXPECT_LE(base.size(), base_at_2 * 3 / 2) << "after window " << w;
    }
  }
  EXPECT_GT(joiner.stats().evictions, kPerWindow * (kWindows - 2));
  EXPECT_GT(joiner.stats().dead_postings_purged, 0u);
}

// The delta logs feed the next checkpoint, so a joiner that is never
// frozen (an unsupervised run, or checkpoint_interval = 0) must not keep
// them: over many windows with no freeze they stay within one window's
// worth of entries. Once frozen, a FreezeDelta drains them again.
TEST(BundleJoinerTest, DeltaLogsStayBoundedWithoutFreezes) {
  constexpr size_t kPerWindow = 200;
  constexpr size_t kWindows = 25;
  WorkloadOptions wo;
  wo.seed = 43;
  wo.token_universe = 1u << 16;
  wo.duplicate_fraction = 0.4;
  wo.dup_locality = 100;
  wo.timestamp_step_us = 1000;
  const auto stream = WorkloadGenerator(wo).Generate(kPerWindow * (kWindows + 1));
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  const WindowSpec window =
      WindowSpec::ByTime(static_cast<int64_t>(kPerWindow) * wo.timestamp_step_us);
  BundleJoiner joiner(sim, window);
  const auto cb = [](const ResultPair&) {};
  const size_t unfrozen = kPerWindow * kWindows;
  for (size_t i = 0; i < unfrozen; ++i) joiner.Process(stream[i], true, true, cb);
  ASSERT_GT(joiner.stats().evictions, kPerWindow * (kWindows - 2));
  EXPECT_LE(joiner.DeltaLogEntries(), kPerWindow) << "after " << unfrozen << " records";

  // A delta asked for before any freeze has nothing to apply to: it comes
  // back as a base image that restores on its own.
  store::FrozenBlob first = joiner.FreezeDelta();
  EXPECT_FALSE(first.is_delta);
  std::string base;
  first.encode(&base);
  BundleJoiner restored(sim, window);
  restored.Restore(base);
  EXPECT_EQ(restored.StoredCount(), joiner.StoredCount());
  EXPECT_EQ(restored.BundleCount(), joiner.BundleCount());

  for (size_t i = unfrozen; i < stream.size(); ++i) joiner.Process(stream[i], true, true, cb);
  EXPECT_GT(joiner.DeltaLogEntries(), 0u);
  EXPECT_TRUE(joiner.FreezeDelta().is_delta);
  EXPECT_EQ(joiner.DeltaLogEntries(), 0u);
}

TEST(BundleJoinerTest, MemoryAccountingIsMonotoneInWindow) {
  const auto stream = DupStream(37, 2000, 0.4);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  BundleJoiner small(sim, WindowSpec::ByCount(100));
  BundleJoiner large(sim, WindowSpec::ByCount(1500));
  SingleNodeJoin(stream, small);
  SingleNodeJoin(stream, large);
  EXPECT_LT(small.MemoryBytes(), large.MemoryBytes());
}

}  // namespace
}  // namespace dssj
