#include "core/partition.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/join_topology.h"
#include "workload/generator.h"

namespace dssj {
namespace {

TEST(LengthHistogramTest, CountsAndMax) {
  LengthHistogram h;
  h.Add(3);
  h.Add(3);
  h.Add(7);
  EXPECT_EQ(h.CountAt(3), 2u);
  EXPECT_EQ(h.CountAt(7), 1u);
  EXPECT_EQ(h.CountAt(5), 0u);
  EXPECT_EQ(h.CountAt(100), 0u);
  EXPECT_EQ(h.MaxLength(), 7u);
  EXPECT_EQ(h.TotalRecords(), 3u);
}

TEST(LengthPartitionTest, PartitionOfMapsAndClamps) {
  const LengthPartition p({0, 5, 10, 20});
  EXPECT_EQ(p.num_partitions(), 3);
  EXPECT_EQ(p.PartitionOf(0), 0);
  EXPECT_EQ(p.PartitionOf(4), 0);
  EXPECT_EQ(p.PartitionOf(5), 1);
  EXPECT_EQ(p.PartitionOf(9), 1);
  EXPECT_EQ(p.PartitionOf(10), 2);
  EXPECT_EQ(p.PartitionOf(19), 2);
  EXPECT_EQ(p.PartitionOf(1000), 2);  // clamps into the last interval
}

TEST(LengthPartitionTest, PartitionsCovering) {
  const LengthPartition p({0, 5, 10, 20});
  EXPECT_EQ(p.PartitionsCovering(2, 12), (std::pair<int, int>{0, 2}));
  EXPECT_EQ(p.PartitionsCovering(6, 7), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(p.PartitionsCovering(11, 5000), (std::pair<int, int>{2, 2}));
  const auto empty = p.PartitionsCovering(9, 3);
  EXPECT_GT(empty.first, empty.second);
}

TEST(LengthPartitionTest, RejectsBadBounds) {
  EXPECT_DEATH(LengthPartition({0}), "");
  EXPECT_DEATH(LengthPartition({1, 5}), "");     // must start at 0
  EXPECT_DEATH(LengthPartition({0, 5, 5}), "");  // strictly increasing
}

TEST(PartitionBuildersTest, UniformCoversDomainWithKIntervals) {
  for (int k : {1, 2, 3, 8, 40}) {
    const LengthPartition p = PartitionUniform(2, 30, k);
    EXPECT_EQ(p.num_partitions(), k);
    EXPECT_EQ(p.bounds().front(), 0u);
    EXPECT_GT(p.bounds().back(), 30u);
  }
}

TEST(PartitionBuildersTest, EqualFrequencyBalancesCounts) {
  LengthHistogram h;
  Rng rng(4);
  for (int i = 0; i < 100000; ++i) h.Add(1 + rng.Uniform(100));
  const int k = 5;
  const LengthPartition p = PartitionEqualFrequency(h, k);
  ASSERT_EQ(p.num_partitions(), k);
  std::vector<uint64_t> per(k, 0);
  for (size_t l = 0; l <= h.MaxLength(); ++l) per[p.PartitionOf(l)] += h.CountAt(l);
  const uint64_t expect = 100000 / k;
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(static_cast<double>(per[i]), static_cast<double>(expect), 0.2 * expect)
        << "partition " << i;
  }
}

TEST(PerLengthLoadTest, ZeroWithoutRecordsAndPositiveWithin) {
  LengthHistogram h;
  for (int i = 0; i < 50; ++i) {
    h.Add(10);
    h.Add(20);
  }
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  const auto load = ComputePerLengthLoad(h, sim);
  EXPECT_GT(load[10], 0.0);
  EXPECT_GT(load[20], 0.0);
  EXPECT_EQ(load[15], 0.0);  // no records of that length
  // At t=0.8, lengths 10 and 20 are not partners (20 > 10/0.8); each length
  // pairs only with itself, and longer records cost more per pair.
  EXPECT_GT(load[20], load[10]);
}

TEST(PerLengthLoadTest, BruteForceCrossCheck) {
  // load[l'] = f(l')·p(l') · Σ_{l eligible} f(l)·p(l)·(l + l').
  LengthHistogram h;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) h.Add(1 + rng.Uniform(40));
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const auto load = ComputePerLengthLoad(h, sim);
  for (size_t ls = 0; ls < load.size(); ++ls) {
    double expected = 0.0;
    for (size_t lp = 1; lp < load.size(); ++lp) {
      if (ls >= sim.LengthLowerBound(lp) && ls <= sim.LengthUpperBound(lp)) {
        expected += static_cast<double>(h.CountAt(lp)) *
                    static_cast<double>(sim.PrefixLength(lp)) * static_cast<double>(lp + ls);
      }
    }
    expected *= static_cast<double>(h.CountAt(ls)) *
                static_cast<double>(sim.PrefixLength(ls));
    EXPECT_NEAR(load[ls], expected, 1e-6 * std::max(1.0, expected)) << "length " << ls;
  }
}

TEST(JoinCostModelTest, IntervalCostMatchesBruteForce) {
  LengthHistogram h;
  Rng rng(12);
  for (int i = 0; i < 400; ++i) h.Add(1 + rng.Uniform(30));
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  const JoinCostModel::Weights weights{1.0, 123.0};
  const JoinCostModel model(h, sim, weights);
  const auto load = ComputePerLengthLoad(h, sim);
  for (size_t a = 0; a <= h.MaxLength(); a += 3) {
    for (size_t b = a; b <= h.MaxLength(); b += 2) {
      double pair_work = 0.0;
      for (size_t l = a; l <= b; ++l) pair_work += load[l];
      double visits = 0.0;
      for (size_t l = 0; l <= h.MaxLength(); ++l) {
        const size_t lo = sim.LengthLowerBound(l);
        const size_t hi = sim.LengthUpperBound(l);
        if (lo <= b && hi >= a) visits += static_cast<double>(h.CountAt(l));
      }
      const double expected = pair_work + weights.visit_cost * visits;
      EXPECT_NEAR(model.IntervalCost(a, b), expected, 1e-6 * std::max(1.0, expected))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(JoinCostModelTest, IntervalCostIsMonotoneUnderExtension) {
  LengthHistogram h;
  Rng rng(13);
  for (int i = 0; i < 300; ++i) h.Add(1 + rng.Uniform(25));
  const JoinCostModel model(h, SimilaritySpec(SimilarityFunction::kJaccard, 800));
  for (size_t a = 0; a < 20; ++a) {
    for (size_t b = a; b + 1 <= h.MaxLength(); ++b) {
      EXPECT_LE(model.IntervalCost(a, b), model.IntervalCost(a, b + 1));
      if (a > 0) {
        EXPECT_LE(model.IntervalCost(a, b), model.IntervalCost(a - 1, b));
      }
    }
  }
}

TEST(JoinCostModelTest, GreedyMatchesDpBottleneck) {
  Rng rng(14);
  for (int trial = 0; trial < 20; ++trial) {
    LengthHistogram h;
    const int n = 200 + static_cast<int>(rng.Uniform(400));
    for (int i = 0; i < n; ++i) h.Add(1 + rng.Uniform(25));
    const int k = 1 + static_cast<int>(rng.Uniform(6));
    const JoinCostModel model(h, SimilaritySpec(SimilarityFunction::kJaccard, 750));
    const LengthPartition dp = PartitionByCostModelDP(model, k);
    const LengthPartition greedy = PartitionByCostModelGreedy(model, k);
    ASSERT_EQ(dp.num_partitions(), k);
    ASSERT_EQ(greedy.num_partitions(), k);
    const double dp_cost = BottleneckModelCost(dp, model);
    const double greedy_cost = BottleneckModelCost(greedy, model);
    EXPECT_NEAR(greedy_cost, dp_cost, 1e-6 * std::max(1.0, dp_cost)) << "trial " << trial;
  }
}

TEST(LoadAwarePartitionTest, GreedyMatchesDpOptimum) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 2 + rng.Uniform(40);
    const int k = 1 + static_cast<int>(rng.Uniform(6));
    std::vector<double> load(n);
    for (auto& w : load) w = static_cast<double>(rng.Uniform(1000));
    const LengthPartition dp = PartitionLoadAwareDP(load, k);
    const LengthPartition greedy = PartitionLoadAwareGreedy(load, k);
    ASSERT_EQ(dp.num_partitions(), k);
    ASSERT_EQ(greedy.num_partitions(), k);
    const double dp_cost = BottleneckLoad(dp, load);
    const double greedy_cost = BottleneckLoad(greedy, load);
    EXPECT_NEAR(greedy_cost, dp_cost, 1e-6 * std::max(1.0, dp_cost))
        << "trial " << trial << " n=" << n << " k=" << k;
  }
}

TEST(LoadAwarePartitionTest, BeatsOrTiesNaivePartitioners) {
  WorkloadOptions wo = PresetOptions(DatasetPreset::kTweet);
  wo.seed = 5;
  const auto records = WorkloadGenerator(wo).Generate(20000);
  LengthHistogram h;
  h.AddRecords(records);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  const auto load = ComputePerLengthLoad(h, sim);
  const int k = 8;
  const double aware = BottleneckLoad(PartitionLoadAwareGreedy(load, k), load);
  const double uniform = BottleneckLoad(PartitionUniform(1, h.MaxLength(), k), load);
  const double eqfreq = BottleneckLoad(PartitionEqualFrequency(h, k), load);
  EXPECT_LE(aware, uniform * (1.0 + 1e-9));
  EXPECT_LE(aware, eqfreq * (1.0 + 1e-9));
}

TEST(LoadAwarePartitionTest, HandlesDegenerateInputs) {
  // Empty load.
  const LengthPartition empty = PartitionLoadAwareGreedy({}, 4);
  EXPECT_EQ(empty.num_partitions(), 4);
  // Single length.
  const LengthPartition single = PartitionLoadAwareDP({42.0}, 3);
  EXPECT_EQ(single.num_partitions(), 3);
  EXPECT_EQ(single.PartitionOf(0), 0);
  // More partitions than lengths.
  const LengthPartition wide = PartitionLoadAwareDP({1.0, 2.0}, 6);
  EXPECT_EQ(wide.num_partitions(), 6);
}

TEST(PlanLengthPartitionTest, AllMethodsProduceMatchingPartitionCounts) {
  WorkloadOptions wo = PresetOptions(DatasetPreset::kAol);
  wo.seed = 6;
  const auto sample = WorkloadGenerator(wo).Generate(5000);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 750);
  for (const PartitionMethod m :
       {PartitionMethod::kLoadAwareGreedy, PartitionMethod::kLoadAwareDP,
        PartitionMethod::kUniform, PartitionMethod::kEqualFrequency}) {
    const LengthPartition p = PlanLengthPartition(sample, sim, 6, m);
    EXPECT_EQ(p.num_partitions(), 6) << PartitionMethodName(m);
  }
  // Empty sample falls back to a usable partition.
  const LengthPartition fallback =
      PlanLengthPartition({}, sim, 3, PartitionMethod::kLoadAwareGreedy);
  EXPECT_EQ(fallback.num_partitions(), 3);
}

}  // namespace
}  // namespace dssj
