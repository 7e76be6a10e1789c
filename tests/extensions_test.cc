// Tests of the extension features: the PPJoin+ suffix filter inside
// RecordJoiner.

#include <algorithm>
#include <tuple>
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

std::vector<RecordPtr> MakeStream(uint64_t seed, size_t n, double dup_fraction) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 2000;
  options.zipf_skew = 0.6;
  options.length = LengthModel::Uniform(4, 40);
  options.duplicate_fraction = dup_fraction;
  options.mutation_rate = 0.10;
  options.dup_locality = 400;
  return WorkloadGenerator(options).Generate(n);
}

// --- Suffix filter ----------------------------------------------------------

TEST(SuffixFilterTest, PreservesResultsExactly) {
  const auto stream = MakeStream(41, 1500, 0.4);
  for (const int64_t threshold : {600, 750, 900}) {
    const SimilaritySpec sim(SimilarityFunction::kJaccard, threshold);
    RecordJoinerOptions with;
    with.suffix_filter = true;
    RecordJoiner a(sim, WindowSpec::Unbounded(), with);
    RecordJoiner b(sim, WindowSpec::Unbounded());
    EXPECT_EQ(Canonical(SingleNodeJoin(stream, a)), Canonical(SingleNodeJoin(stream, b)))
        << "threshold " << threshold;
  }
}

TEST(SuffixFilterTest, ActuallyPrunesAndSavesMergeWork) {
  const auto stream = MakeStream(42, 2500, 0.4);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  RecordJoinerOptions with;
  with.suffix_filter = true;
  RecordJoiner a(sim, WindowSpec::Unbounded(), with);
  RecordJoiner b(sim, WindowSpec::Unbounded());
  SingleNodeJoin(stream, a);
  SingleNodeJoin(stream, b);
  EXPECT_GT(a.stats().suffix_filtered, 0u);
  EXPECT_LT(a.stats().verify.full_verifications, b.stats().verify.full_verifications);
  EXPECT_EQ(b.stats().suffix_filtered, 0u);
}

TEST(SuffixFilterTest, DepthSweepStaysCorrect) {
  const auto stream = MakeStream(43, 800, 0.5);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  BruteForceJoiner reference(sim, WindowSpec::Unbounded());
  const auto expected = Canonical(SingleNodeJoin(stream, reference));
  for (int depth = 0; depth <= 6; ++depth) {
    RecordJoinerOptions options;
    options.suffix_filter = true;
    options.suffix_filter_depth = depth;
    RecordJoiner joiner(sim, WindowSpec::Unbounded(), options);
    EXPECT_EQ(Canonical(SingleNodeJoin(stream, joiner)), expected) << "depth " << depth;
  }
}

}  // namespace
}  // namespace dssj
