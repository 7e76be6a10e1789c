// Randomized cross-checking of every joiner and every distribution
// strategy against the brute-force oracle, over many generator seeds and
// adversarial parameter mixes. Complements local_joiner_test /
// distributed_join_test (which sweep the structured grid) with breadth.

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/verify.h"
#include "dssj.h"

namespace dssj {
namespace {

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

/// A workload whose shape itself is random: universe size, skew, lengths,
/// duplicate behaviour all vary per seed.
std::vector<RecordPtr> RandomStream(uint64_t seed, size_t n) {
  Rng meta(seed * 7919 + 1);
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 50 + meta.Uniform(5000);
  options.zipf_skew = meta.UniformDouble() * 1.2;
  const size_t min_len = 1 + meta.Uniform(4);
  options.length = LengthModel::Uniform(min_len, min_len + 1 + meta.Uniform(40));
  options.duplicate_fraction = meta.UniformDouble() * 0.7;
  options.mutation_rate = meta.UniformDouble() * 0.3;
  options.dup_locality = 50 + meta.Uniform(500);
  return WorkloadGenerator(options).Generate(n);
}

SimilaritySpec RandomSpec(uint64_t seed) {
  Rng meta(seed * 104729 + 3);
  const SimilarityFunction fns[] = {SimilarityFunction::kJaccard,
                                    SimilarityFunction::kCosine, SimilarityFunction::kDice};
  return SimilaritySpec(fns[meta.Uniform(3)], 500 + static_cast<int64_t>(meta.Uniform(501)));
}

WindowSpec RandomWindow(uint64_t seed) {
  Rng meta(seed * 31 + 17);
  switch (meta.Uniform(3)) {
    case 0:
      return WindowSpec::Unbounded();
    case 1:
      return WindowSpec::ByCount(10 + meta.Uniform(300));
    default:
      return WindowSpec::ByTime(static_cast<int64_t>((10 + meta.Uniform(400)) * 1000));
  }
}

class FuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeedTest, AllLocalJoinersAgreeWithBruteForce) {
  const uint64_t seed = GetParam();
  const auto stream = RandomStream(seed, 400);
  const SimilaritySpec sim = RandomSpec(seed);
  const WindowSpec window = RandomWindow(seed);

  BruteForceJoiner oracle(sim, window);
  const auto expected = Canonical(SingleNodeJoin(stream, oracle));

  RecordJoiner record(sim, window);
  EXPECT_EQ(Canonical(SingleNodeJoin(stream, record)), expected)
      << "record joiner diverged: seed=" << seed << " " << sim.ToString() << " "
      << window.ToString();

  RecordJoinerOptions with_suffix;
  with_suffix.suffix_filter = true;
  RecordJoiner suffixed(sim, window, with_suffix);
  EXPECT_EQ(Canonical(SingleNodeJoin(stream, suffixed)), expected)
      << "suffix-filtered joiner diverged: seed=" << seed;

  BundleJoiner bundle(sim, window);
  EXPECT_EQ(Canonical(SingleNodeJoin(stream, bundle)), expected)
      << "bundle joiner diverged: seed=" << seed << " " << sim.ToString() << " "
      << window.ToString();
}

TEST_P(FuzzSeedTest, AllStrategiesAgreeWithBruteForce) {
  const uint64_t seed = GetParam();
  const auto stream = RandomStream(seed, 400);
  const SimilaritySpec sim = RandomSpec(seed);
  // Count windows are per-partition by design; fuzz unbounded + time only.
  Rng meta(seed + 5);
  const WindowSpec window = meta.Bernoulli(0.5)
                                ? WindowSpec::Unbounded()
                                : WindowSpec::ByTime((50 + meta.Uniform(400)) * 1000);

  BruteForceJoiner oracle(sim, window);
  const auto expected = Canonical(SingleNodeJoin(stream, oracle));

  for (const DistributionStrategy strategy :
       {DistributionStrategy::kLengthBased, DistributionStrategy::kPrefixBased,
        DistributionStrategy::kBroadcast, DistributionStrategy::kReplicated}) {
    DistributedJoinOptions options;
    options.sim = sim;
    options.window = window;
    options.strategy = strategy;
    options.num_joiners = 1 + static_cast<int>(meta.Uniform(7));
    options.collect_results = true;
    if (strategy == DistributionStrategy::kLengthBased) {
      options.length_partition = PlanLengthPartition(
          stream, sim, options.num_joiners,
          meta.Bernoulli(0.5) ? PartitionMethod::kLoadAwareGreedy
                              : PartitionMethod::kEqualFrequency);
    }
    const DistributedJoinResult result = RunDistributedJoin(stream, options);
    EXPECT_EQ(Canonical(result.pairs), expected)
        << DistributionStrategyName(strategy) << " diverged: seed=" << seed << " "
        << sim.ToString() << " k=" << options.num_joiners;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest, ::testing::Range<uint64_t>(1, 25));

std::vector<TokenId> RandomSortedTokens(Rng& rng, size_t len, uint32_t universe) {
  std::vector<TokenId> t;
  t.reserve(len);
  for (size_t i = 0; i < len; ++i) t.push_back(static_cast<TokenId>(rng.Uniform(universe)));
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  return t;
}

/// VerifyOverlap and IntersectCount against OverlapSize (text/record.cc,
/// an independent merge with no early exit), over random sorted pairs of
/// every shape: empty sides, identical arrays, disjoint ranges, >= 16x
/// length skew (IntersectCount's per-token search) and general overlapping
/// pairs, each with and without a `required` early-exit bound.
TEST(VerifyKernelFuzzTest, KernelMatchesOverlapSizeReference) {
  Rng rng(987654321);
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<TokenId> a, b;
    switch (iter % 5) {
      case 0: {  // one or both sides empty
        a = RandomSortedTokens(rng, rng.Uniform(2) * rng.Uniform(20), 64);
        b = rng.Bernoulli(0.5) ? std::vector<TokenId>{} : RandomSortedTokens(rng, 10, 64);
        break;
      }
      case 1: {  // identical
        a = RandomSortedTokens(rng, 1 + rng.Uniform(200), 1024);
        b = a;
        break;
      }
      case 2: {  // disjoint value ranges
        a = RandomSortedTokens(rng, 1 + rng.Uniform(100), 500);
        b = RandomSortedTokens(rng, 1 + rng.Uniform(100), 500);
        for (TokenId& w : b) w += 1000;
        break;
      }
      case 3: {  // skewed >= 16x
        a = RandomSortedTokens(rng, 1 + rng.Uniform(8), 4096);
        b = RandomSortedTokens(rng, 16 * (a.size() + 1) + rng.Uniform(400), 4096);
        if (rng.Bernoulli(0.5)) std::swap(a, b);
        break;
      }
      default: {  // general overlapping pairs, small universe forces matches
        const uint32_t universe = 16 + static_cast<uint32_t>(rng.Uniform(200));
        a = RandomSortedTokens(rng, rng.Uniform(120), universe);
        b = RandomSortedTokens(rng, rng.Uniform(120), universe);
        break;
      }
    }

    const size_t exact = OverlapSize(a, b);

    // required == 0 disables early exit: the kernel must be exact.
    ASSERT_EQ(VerifyOverlap(a.data(), a.size(), b.data(), b.size(), 0), exact)
        << "iter=" << iter << " |a|=" << a.size() << " |b|=" << b.size();

    // With a bound, the kernel must take the reference's accept/reject
    // decision, and an accepted result must be the exact overlap.
    const size_t required = rng.Uniform(std::max(a.size(), b.size()) + 3);
    const size_t got = VerifyOverlap(a.data(), a.size(), b.data(), b.size(), required);
    ASSERT_EQ(got >= required, exact >= required)
        << "decision diverged: iter=" << iter << " required=" << required;
    if (required > 0 && got >= required) {
      ASSERT_EQ(got, exact) << "accepted result must be exact: iter=" << iter;
    }

    // IntersectCount has no bound: exact on both of its branches, with
    // either side as the diff.
    ASSERT_EQ(IntersectCount(a, b), exact) << "iter=" << iter;
    ASSERT_EQ(IntersectCount(b, a), exact) << "iter=" << iter;
  }
}

}  // namespace
}  // namespace dssj
