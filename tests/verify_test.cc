#include "core/verify.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "text/record.h"

namespace dssj {
namespace {

std::vector<TokenId> RandomSet(Rng& rng, size_t max_len, TokenId universe) {
  std::vector<TokenId> v;
  const size_t n = rng.Uniform(max_len + 1);
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<TokenId>(rng.Uniform(universe)));
  NormalizeTokens(v);
  return v;
}

TEST(VerifyOverlapTest, ExactWithoutEarlyExit) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = RandomSet(rng, 40, 80);
    const auto b = RandomSet(rng, 40, 80);
    EXPECT_EQ(VerifyOverlap(a, b, 0), OverlapSize(a, b));
  }
}

TEST(VerifyOverlapTest, EarlyExitNeverFlipsTheDecision) {
  Rng rng(8);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = RandomSet(rng, 40, 60);
    const auto b = RandomSet(rng, 40, 60);
    const size_t truth = OverlapSize(a, b);
    for (size_t required = 1; required <= 12; ++required) {
      const size_t got = VerifyOverlap(a, b, required);
      EXPECT_EQ(got >= required, truth >= required)
          << "required=" << required << " truth=" << truth << " got=" << got;
      if (got >= required) {
        // Ran to completion, so the value must be exact.
        EXPECT_EQ(got, truth);
      }
    }
  }
}

TEST(VerifyOverlapTest, CountersAccumulate) {
  VerifyCounters counters;
  const std::vector<TokenId> a{1, 2, 3, 4, 5};
  const std::vector<TokenId> b{2, 4, 6};
  VerifyOverlap(a, b, 0, &counters);
  EXPECT_EQ(counters.full_verifications, 1u);
  EXPECT_GT(counters.merge_steps, 0u);
  EXPECT_EQ(counters.early_exits, 0u);
  // A hopeless requirement exits immediately.
  VerifyOverlap(a, b, 100, &counters);
  EXPECT_EQ(counters.early_exits, 1u);
}

TEST(VerifyOverlapTest, EmptyInputs) {
  const std::vector<TokenId> empty;
  const std::vector<TokenId> some{1, 2, 3};
  EXPECT_EQ(VerifyOverlap(empty, some, 0), 0u);
  EXPECT_EQ(VerifyOverlap(some, empty, 0), 0u);
  EXPECT_EQ(VerifyOverlap(empty, empty, 0), 0u);
}

TEST(IntersectCountTest, MatchesOverlapSizeOnBothCodePaths) {
  Rng rng(9);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto probe = RandomSet(rng, 60, 120);
    // A diff under 1/8 of the probe takes the per-token binary search; a
    // larger one the plain merge.
    const auto diff = RandomSet(rng, trial % 2 == 0 ? 3 : 40, 120);
    EXPECT_EQ(IntersectCount(probe, diff), OverlapSize(probe, diff));
  }
}

TEST(IntersectCountTest, CountsDiffVerifications) {
  VerifyCounters counters;
  IntersectCount(std::vector<TokenId>{1, 2, 3}, std::vector<TokenId>{2}, &counters);
  EXPECT_EQ(counters.diff_verifications, 1u);
}

TEST(SymmetricDifferenceLowerBoundTest, NeverExceedsTheTruth) {
  Rng rng(10);
  for (int trial = 0; trial < 3000; ++trial) {
    const auto a = RandomSet(rng, 30, 50);
    const auto b = RandomSet(rng, 30, 50);
    const size_t truth = a.size() + b.size() - 2 * OverlapSize(a, b);
    for (int depth = 0; depth <= 5; ++depth) {
      const size_t bound = SymmetricDifferenceLowerBound(a, b, depth);
      ASSERT_LE(bound, truth) << "unsound bound at depth " << depth;
    }
  }
}

TEST(SymmetricDifferenceLowerBoundTest, DeeperIsAtLeastAsTight) {
  Rng rng(11);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto a = RandomSet(rng, 40, 60);
    const auto b = RandomSet(rng, 40, 60);
    size_t prev = 0;
    for (int depth = 0; depth <= 4; ++depth) {
      const size_t bound = SymmetricDifferenceLowerBound(a, b, depth);
      EXPECT_GE(bound, prev) << "bound weakened with depth";
      prev = bound;
    }
  }
}

TEST(SymmetricDifferenceLowerBoundTest, DetectsDisjointSets) {
  // Fully disjoint interleaved sets: the bound should find real distance.
  std::vector<TokenId> a, b;
  for (TokenId t = 0; t < 40; t += 2) {
    a.push_back(t);
    b.push_back(t + 1);
  }
  EXPECT_EQ(SymmetricDifferenceLowerBound(a, a, 4), 0u);
  EXPECT_GT(SymmetricDifferenceLowerBound(a, b, 4), 0u);
  // Depth 0 only sees the size difference.
  EXPECT_EQ(SymmetricDifferenceLowerBound(a, b, 0), 0u);
}

}  // namespace
}  // namespace dssj
