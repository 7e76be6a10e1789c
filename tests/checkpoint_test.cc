// Snapshot/Restore round trips for every stateful joiner: restoring a blob
// into a fresh instance must reproduce the snapshotted joiner's emissions
// exactly — same pairs, same callback order — for any shared input tail.
// This is the property the supervised executor's checkpoint recovery
// (tests/fault_recovery_test.cc) is built on.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "core/bundle_joiner.h"
#include "core/record_joiner.h"
#include "core/two_stream_joiner.h"
#include "workload/generator.h"

namespace dssj {
namespace {

std::vector<RecordPtr> MakeStream(uint64_t seed, size_t n) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 300;  // small universe → dense overlaps
  options.zipf_skew = 0.7;
  options.length = LengthModel::Uniform(1, 20);
  options.duplicate_fraction = 0.35;
  options.mutation_rate = 0.15;
  options.dup_locality = 150;
  options.timestamp_step_us = 1000;
  return WorkloadGenerator(options).Generate(n);
}

/// Feeds `records` (store+probe) and returns the emissions in callback
/// order — order-exact equality is the contract under test.
std::vector<ResultPair> Feed(LocalJoiner& joiner, const std::vector<RecordPtr>& records,
                             size_t begin, size_t end) {
  std::vector<ResultPair> out;
  for (size_t i = begin; i < end; ++i) {
    joiner.Process(records[i], /*store=*/true, /*probe=*/true,
                   [&out](const ResultPair& p) { out.push_back(p); });
  }
  return out;
}

using JoinerFactory = std::function<std::unique_ptr<LocalJoiner>()>;

void CheckRoundTrip(const JoinerFactory& make, uint64_t seed) {
  const std::vector<RecordPtr> stream = MakeStream(seed, 600);
  const size_t cut = 350;

  std::unique_ptr<LocalJoiner> original = make();
  ASSERT_TRUE(original->SupportsSnapshot());
  Feed(*original, stream, 0, cut);

  std::string blob;
  original->Snapshot(&blob);
  std::unique_ptr<LocalJoiner> restored = make();
  restored->Restore(blob);

  EXPECT_EQ(restored->StoredCount(), original->StoredCount());
  EXPECT_EQ(restored->stats().stores, original->stats().stores);
  EXPECT_EQ(restored->stats().results, original->stats().results);
  EXPECT_EQ(restored->stats().probes, original->stats().probes);

  const std::vector<ResultPair> expect = Feed(*original, stream, cut, stream.size());
  const std::vector<ResultPair> got = Feed(*restored, stream, cut, stream.size());
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "emission " << i << " diverged after restore";
  }
}

TEST(CheckpointTest, RecordJoinerUnbounded) {
  CheckRoundTrip(
      [] {
        return std::make_unique<RecordJoiner>(
            SimilaritySpec(SimilarityFunction::kJaccard, 700), WindowSpec::Unbounded());
      },
      1);
}

TEST(CheckpointTest, RecordJoinerCountWindow) {
  CheckRoundTrip(
      [] {
        return std::make_unique<RecordJoiner>(
            SimilaritySpec(SimilarityFunction::kCosine, 750), WindowSpec::ByCount(120));
      },
      2);
}

TEST(CheckpointTest, RecordJoinerTimeWindow) {
  CheckRoundTrip(
      [] {
        return std::make_unique<RecordJoiner>(
            SimilaritySpec(SimilarityFunction::kJaccard, 650),
            WindowSpec::ByTime(180 * 1000));
      },
      3);
}

TEST(CheckpointTest, RecordJoinerDice700Unbounded) {
  CheckRoundTrip(
      [] {
        RecordJoinerOptions ro;
        return std::make_unique<RecordJoiner>(
            SimilaritySpec(SimilarityFunction::kDice, 700), WindowSpec::Unbounded(), ro);
      },
      4);
}

std::vector<uint64_t> Counters(const JoinerStats& stats) {
  std::vector<uint64_t> out;
  ForEachJoinerStat(stats, [&out](uint64_t v) { out.push_back(v); });
  return out;
}

// A restored joiner's index holds what the live one's does, so once all
// three continue on the same input every counter agrees, not only the
// emissions: the live joiner, one restored from a snapshot, and one
// rebuilt from a base + delta chain.
TEST(CheckpointTest, RecordJoinerCountersSurviveRestore) {
  const std::vector<RecordPtr> stream = MakeStream(13, 600);
  const auto make = [] {
    return std::make_unique<RecordJoiner>(SimilaritySpec(SimilarityFunction::kJaccard, 700),
                                          WindowSpec::ByCount(60));
  };
  auto live = make();
  Feed(*live, stream, 0, 150);
  std::string base;
  live->FreezeBase().encode(&base);
  Feed(*live, stream, 150, 250);
  std::string delta1;
  live->FreezeDelta().encode(&delta1);
  Feed(*live, stream, 250, 350);
  std::string delta2;
  live->FreezeDelta().encode(&delta2);
  std::string snapshot;
  live->Snapshot(&snapshot);

  auto restored = make();
  restored->Restore(snapshot);
  auto chain = make();
  chain->Restore(base);
  chain->RestoreDelta(delta1);
  chain->RestoreDelta(delta2);

  const auto expect = Feed(*live, stream, 350, stream.size());
  EXPECT_EQ(Feed(*restored, stream, 350, stream.size()), expect);
  EXPECT_EQ(Feed(*chain, stream, 350, stream.size()), expect);
  EXPECT_GT(live->stats().dead_postings_purged, 0u);
  EXPECT_EQ(Counters(restored->stats()), Counters(live->stats()));
  EXPECT_EQ(Counters(chain->stats()), Counters(live->stats()));
}

TEST(CheckpointTest, BundleJoinerUnbounded) {
  CheckRoundTrip(
      [] {
        return std::make_unique<BundleJoiner>(
            SimilaritySpec(SimilarityFunction::kJaccard, 700), WindowSpec::Unbounded());
      },
      5);
}

TEST(CheckpointTest, BundleJoinerCountWindow) {
  CheckRoundTrip(
      [] {
        return std::make_unique<BundleJoiner>(
            SimilaritySpec(SimilarityFunction::kJaccard, 750), WindowSpec::ByCount(100));
      },
      6);
}

TEST(CheckpointTest, BundleJoinerTimeWindowIndividualVerify) {
  CheckRoundTrip(
      [] {
        BundleJoinerOptions bo;
        bo.batch_verify = false;
        return std::make_unique<BundleJoiner>(
            SimilaritySpec(SimilarityFunction::kCosine, 700),
            WindowSpec::ByTime(200 * 1000), bo);
      },
      7);
}

TEST(CheckpointTest, BundleJoinerJaccard650Unbounded) {
  CheckRoundTrip(
      [] {
        BundleJoinerOptions bo;
        return std::make_unique<BundleJoiner>(
            SimilaritySpec(SimilarityFunction::kJaccard, 650), WindowSpec::Unbounded(), bo);
      },
      8);
}

TEST(CheckpointTest, BruteForceJoiner) {
  CheckRoundTrip(
      [] {
        return std::make_unique<BruteForceJoiner>(
            SimilaritySpec(SimilarityFunction::kJaccard, 700), WindowSpec::ByCount(80));
      },
      9);
}

TEST(CheckpointTest, EmptyJoinerRoundTrips) {
  for (const auto& make : std::vector<JoinerFactory>{
           [] {
             return std::make_unique<RecordJoiner>(
                 SimilaritySpec(SimilarityFunction::kJaccard, 700),
                 WindowSpec::Unbounded());
           },
           [] {
             return std::make_unique<BundleJoiner>(
                 SimilaritySpec(SimilarityFunction::kJaccard, 700),
                 WindowSpec::Unbounded());
           }}) {
    std::unique_ptr<LocalJoiner> empty = make();
    std::string blob;
    empty->Snapshot(&blob);
    std::unique_ptr<LocalJoiner> restored = make();
    restored->Restore(blob);
    EXPECT_EQ(restored->StoredCount(), 0u);
    const std::vector<RecordPtr> stream = MakeStream(10, 100);
    std::unique_ptr<LocalJoiner> fresh = make();
    const auto a = Feed(*restored, stream, 0, stream.size());
    const auto b = Feed(*fresh, stream, 0, stream.size());
    EXPECT_EQ(a, b) << "restore of an empty snapshot must equal a fresh joiner";
  }
}

TEST(CheckpointTest, RestoreOverwritesPriorState) {
  // Restore must fully replace whatever the instance held, not merge.
  const std::vector<RecordPtr> stream = MakeStream(11, 500);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  RecordJoiner a(sim, WindowSpec::Unbounded());
  Feed(a, stream, 0, 250);
  std::string blob;
  a.Snapshot(&blob);

  RecordJoiner dirty(sim, WindowSpec::Unbounded());
  Feed(dirty, stream, 100, 400);  // different state to be discarded
  dirty.Restore(blob);
  EXPECT_EQ(dirty.StoredCount(), a.StoredCount());
  const auto expect = Feed(a, stream, 250, stream.size());
  const auto got = Feed(dirty, stream, 250, stream.size());
  EXPECT_EQ(got, expect);
}

TEST(CheckpointTest, TwoStreamJoinerRoundTrip) {
  const std::vector<RecordPtr> stream = MakeStream(12, 600);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const auto make = [&] {
    return std::make_unique<TwoStreamJoiner>(sim, WindowSpec::ByCount(150),
                                             WindowSpec::Unbounded());
  };
  // Alternate records between the R and S sides.
  const auto feed = [&](TwoStreamJoiner& j, size_t begin, size_t end) {
    std::vector<TwoStreamJoiner::RsPair> out;
    for (size_t i = begin; i < end; ++i) {
      const auto side = i % 2 == 0 ? TwoStreamJoiner::Side::kR : TwoStreamJoiner::Side::kS;
      j.Process(side, stream[i], [&out](const TwoStreamJoiner::RsPair& p) { out.push_back(p); });
    }
    return out;
  };
  auto original = make();
  feed(*original, 0, 350);
  std::string blob;
  original->Snapshot(&blob);
  auto restored = make();
  restored->Restore(blob);
  EXPECT_EQ(restored->StoredCount(TwoStreamJoiner::Side::kR),
            original->StoredCount(TwoStreamJoiner::Side::kR));
  EXPECT_EQ(restored->StoredCount(TwoStreamJoiner::Side::kS),
            original->StoredCount(TwoStreamJoiner::Side::kS));
  const auto expect = feed(*original, 350, stream.size());
  const auto got = feed(*restored, 350, stream.size());
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(got[i], expect[i]);
}

}  // namespace
}  // namespace dssj
