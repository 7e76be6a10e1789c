// Boundary and overflow-adjacent cases: very long records, extreme
// thresholds, and extension combinations not covered elsewhere.

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dssj.h"

namespace dssj {
namespace {

TEST(SimilarityBoundaryTest, LongRecordsDoNotOverflow) {
  // Lengths near kMaxLength exercise the widest intermediate products.
  const size_t big = SimilaritySpec::kMaxLength;
  for (const SimilarityFunction fn :
       {SimilarityFunction::kJaccard, SimilarityFunction::kCosine, SimilarityFunction::kDice}) {
    const SimilaritySpec s(fn, 999);
    EXPECT_TRUE(s.Satisfies(big, big, big));
    EXPECT_FALSE(s.Satisfies(big / 2, big, big));
    EXPECT_GE(s.LengthUpperBound(big / 2), big / 2);
    EXPECT_LE(s.LengthLowerBound(big), big);
    const size_t alpha = s.MinOverlap(big, big);
    EXPECT_LE(alpha, big);
    EXPECT_GT(alpha, big / 2);
    EXPECT_GE(s.PrefixLength(big), 1u);
  }
}

TEST(SimilarityBoundaryTest, ThresholdExtremes) {
  // permille 1: almost everything with any overlap matches.
  const SimilaritySpec loose(SimilarityFunction::kJaccard, 1);
  EXPECT_TRUE(loose.Satisfies(1, 100, 100));
  EXPECT_FALSE(loose.Satisfies(0, 100, 100));
  // Wide but finite length range.
  EXPECT_EQ(loose.LengthLowerBound(1000), 1u);
  EXPECT_EQ(loose.LengthUpperBound(1), 1000u);
}

TEST(SimilarityBoundaryTest, SingleTokenRecords) {
  const SimilaritySpec s(SimilarityFunction::kJaccard, 800);
  EXPECT_TRUE(s.Satisfies(1, 1, 1));
  EXPECT_FALSE(s.Satisfies(0, 1, 1));
  EXPECT_EQ(s.PrefixLength(1), 1u);
  EXPECT_EQ(s.MinOverlap(1, 1), 1u);
  // A 1-token record can only pair with 1-token records at t=0.8.
  EXPECT_EQ(s.LengthUpperBound(1), 1u);
}

TEST(TwoStreamBoundaryTest, SuffixFilterModePreservesResults) {
  using Side = TwoStreamJoiner::Side;
  WorkloadOptions wo;
  wo.seed = 91;
  wo.token_universe = 500;
  wo.duplicate_fraction = 0.4;
  WorkloadGenerator gen(wo);
  Rng side_rng(3);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  RecordJoinerOptions suffixed;
  suffixed.suffix_filter = true;
  TwoStreamJoiner plain(sim, WindowSpec::Unbounded(), WindowSpec::Unbounded());
  TwoStreamJoiner filtered(sim, WindowSpec::Unbounded(), WindowSpec::Unbounded(), suffixed);
  std::vector<TwoStreamJoiner::RsPair> a, b;
  for (int i = 0; i < 800; ++i) {
    const RecordPtr r = gen.Next();
    const Side side = side_rng.Bernoulli(0.5) ? Side::kR : Side::kS;
    plain.Process(side, r, [&a](const TwoStreamJoiner::RsPair& p) { a.push_back(p); });
    filtered.Process(side, r, [&b](const TwoStreamJoiner::RsPair& p) { b.push_back(p); });
  }
  EXPECT_EQ(a, b);  // identical arrival order → identical emission order
  EXPECT_GT(a.size(), 0u);
}

TEST(BundleBoundaryTest, LongIdenticalRunFormsOneBundle) {
  BundleJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 900),
                      WindowSpec::Unbounded());
  std::vector<TokenId> tokens;
  for (TokenId t = 0; t < 50; ++t) tokens.push_back(t * 3);
  uint64_t results = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    joiner.Process(MakeRecord(i, i, tokens), true, true,
                   [&results](const ResultPair&) { ++results; });
  }
  EXPECT_EQ(joiner.BundleCount(), 1u);
  EXPECT_EQ(joiner.StoredCount(), 200u);
  // Every pair of the 200 duplicates: 200·199/2.
  EXPECT_EQ(results, 200u * 199 / 2);
  // Batch verification should have accepted everything without merges
  // beyond the pivot (one pivot verification per probe).
  EXPECT_EQ(joiner.stats().batch_accepts, results);
  EXPECT_EQ(joiner.stats().member_diff_resolutions, 0u);
}

TEST(WorkloadBoundaryTest, UniverseSmallerThanLengthTerminates) {
  WorkloadOptions wo;
  wo.seed = 93;
  wo.token_universe = 8;
  wo.length = LengthModel::Uniform(20, 30);  // impossible to fill distinctly
  wo.duplicate_fraction = 0.0;
  const auto stream = WorkloadGenerator(wo).Generate(200);
  for (const RecordPtr& r : stream) {
    EXPECT_LE(r->size(), 8u);
    EXPECT_GE(r->size(), 1u);
  }
}

}  // namespace
}  // namespace dssj
