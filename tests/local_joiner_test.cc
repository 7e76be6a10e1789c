#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_joiner.h"
#include "core/bundle_joiner.h"
#include "core/join_topology.h"
#include "core/posting_index.h"
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

std::vector<RecordPtr> MakeStream(uint64_t seed, size_t n, double dup_fraction,
                                  size_t max_len = 24) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 400;  // small universe → dense overlaps
  options.zipf_skew = 0.6;
  options.length = LengthModel::Uniform(1, max_len);
  options.duplicate_fraction = dup_fraction;
  options.mutation_rate = 0.15;
  options.dup_locality = 200;
  options.timestamp_step_us = 1000;
  return WorkloadGenerator(options).Generate(n);
}

// (function, threshold, window, dup_fraction, algorithm)
using JoinerParam = std::tuple<SimilarityFunction, int64_t, int, double, LocalAlgorithm>;

WindowSpec WindowFromCode(int code) {
  switch (code) {
    case 0:
      return WindowSpec::Unbounded();
    case 1:
      return WindowSpec::ByCount(64);
    default:
      return WindowSpec::ByTime(150 * 1000);  // 150 stream-steps
  }
}

class JoinerEquivalenceTest : public ::testing::TestWithParam<JoinerParam> {
 protected:
  SimilaritySpec spec() const {
    return SimilaritySpec(std::get<0>(GetParam()), std::get<1>(GetParam()));
  }
  WindowSpec window() const { return WindowFromCode(std::get<2>(GetParam())); }
  double dup_fraction() const { return std::get<3>(GetParam()); }
  LocalAlgorithm algorithm() const { return std::get<4>(GetParam()); }

  std::unique_ptr<LocalJoiner> MakeJoiner() const {
    switch (algorithm()) {
      case LocalAlgorithm::kRecord:
        return std::make_unique<RecordJoiner>(spec(), window());
      case LocalAlgorithm::kBundle:
        return std::make_unique<BundleJoiner>(spec(), window());
      case LocalAlgorithm::kBruteForce:
        return std::make_unique<BruteForceJoiner>(spec(), window());
    }
    return nullptr;
  }
};

TEST_P(JoinerEquivalenceTest, MatchesBruteForceOnRandomStream) {
  const std::vector<RecordPtr> stream = MakeStream(/*seed=*/17, /*n=*/600, dup_fraction());
  BruteForceJoiner reference(spec(), window());
  auto joiner = MakeJoiner();
  const auto expected = Canonical(SingleNodeJoin(stream, reference));
  const auto actual = Canonical(SingleNodeJoin(stream, *joiner));
  ASSERT_EQ(actual.size(), expected.size())
      << spec().ToString() << " " << window().ToString();
  EXPECT_EQ(actual, expected);
  // Sanity: the streams are engineered to produce some results at moderate
  // thresholds; guard against vacuous tests.
  if (std::get<1>(GetParam()) <= 800 && dup_fraction() >= 0.3 &&
      spec().function() != SimilarityFunction::kOverlap) {
    EXPECT_GT(expected.size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinerEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(SimilarityFunction::kJaccard, SimilarityFunction::kCosine,
                          SimilarityFunction::kDice),
        ::testing::Values<int64_t>(600, 800, 950, 1000), ::testing::Values(0, 1, 2),
        ::testing::Values(0.0, 0.4), ::testing::Values(LocalAlgorithm::kRecord,
                                                       LocalAlgorithm::kBundle)),
    [](const auto& info) {
      const auto& p = info.param;
      return std::string(SimilarityFunctionName(std::get<0>(p))) + "_t" +
             std::to_string(std::get<1>(p)) + "_w" + std::to_string(std::get<2>(p)) + "_d" +
             std::to_string(static_cast<int>(std::get<3>(p) * 10)) + "_" +
             LocalAlgorithmName(std::get<4>(p));
    });

INSTANTIATE_TEST_SUITE_P(
    OverlapSweep, JoinerEquivalenceTest,
    ::testing::Combine(::testing::Values(SimilarityFunction::kOverlap),
                       ::testing::Values<int64_t>(3, 6), ::testing::Values(0, 1, 2),
                       ::testing::Values(0.4),
                       ::testing::Values(LocalAlgorithm::kRecord, LocalAlgorithm::kBundle)),
    [](const auto& info) {
      const auto& p = info.param;
      return std::string("overlap_c") + std::to_string(std::get<1>(p)) + "_w" +
             std::to_string(std::get<2>(p)) + "_" + LocalAlgorithmName(std::get<4>(p));
    });

TEST(RecordJoinerTest, NoSelfMatchAndNoDuplicatePairs) {
  const auto stream = MakeStream(3, 400, 0.5);
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 700),
                      WindowSpec::Unbounded());
  const auto pairs = SingleNodeJoin(stream, joiner);
  for (const ResultPair& p : pairs) {
    EXPECT_NE(p.probe_seq, p.partner_seq);
    EXPECT_LT(p.partner_seq, p.probe_seq) << "partner must precede probe";
  }
  auto canon = Canonical(pairs);
  EXPECT_TRUE(std::adjacent_find(canon.begin(), canon.end()) == canon.end())
      << "duplicate pair emitted";
}

TEST(RecordJoinerTest, ExactDuplicatesAlwaysFound) {
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 1000),
                      WindowSpec::Unbounded());
  std::vector<ResultPair> pairs;
  const auto cb = [&pairs](const ResultPair& p) { pairs.push_back(p); };
  joiner.Process(MakeRecord(0, 0, {1, 5, 9}), true, true, cb);
  joiner.Process(MakeRecord(1, 1, {2, 5, 9}), true, true, cb);
  joiner.Process(MakeRecord(2, 2, {1, 5, 9}), true, true, cb);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].probe_seq, 2u);
  EXPECT_EQ(pairs[0].partner_seq, 0u);
}

TEST(RecordJoinerTest, EmptyRecordsAreIgnored) {
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 500),
                      WindowSpec::Unbounded());
  std::vector<ResultPair> pairs;
  const auto cb = [&pairs](const ResultPair& p) { pairs.push_back(p); };
  joiner.Process(MakeRecord(0, 0, {}), true, true, cb);
  joiner.Process(MakeRecord(1, 1, {}), true, true, cb);
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(joiner.StoredCount(), 0u);
}

TEST(RecordJoinerTest, CountWindowEvictsOldest) {
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 1000),
                      WindowSpec::ByCount(2));
  std::vector<ResultPair> pairs;
  const auto cb = [&pairs](const ResultPair& p) { pairs.push_back(p); };
  joiner.Process(MakeRecord(0, 0, {1, 2, 3}), true, true, cb);
  joiner.Process(MakeRecord(1, 1, {4, 5, 6}), true, true, cb);
  joiner.Process(MakeRecord(2, 2, {7, 8, 9}), true, true, cb);  // evicts seq 0
  EXPECT_EQ(joiner.StoredCount(), 2u);
  joiner.Process(MakeRecord(3, 3, {1, 2, 3}), true, true, cb);  // seq 0 gone
  EXPECT_TRUE(pairs.empty());
  joiner.Process(MakeRecord(4, 4, {7, 8, 9}), true, true, cb);  // seq 2 still in
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].partner_seq, 2u);
  EXPECT_EQ(joiner.stats().evictions, 3u);
}

TEST(RecordJoinerTest, TimeWindowEvictsByTimestamp) {
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 1000),
                      WindowSpec::ByTime(100));
  std::vector<ResultPair> pairs;
  const auto cb = [&pairs](const ResultPair& p) { pairs.push_back(p); };
  joiner.Process(MakeRecord(0, 0, {1, 2, 3}, /*timestamp=*/0), true, true, cb);
  joiner.Process(MakeRecord(1, 1, {1, 2, 3}, /*timestamp=*/90), true, true, cb);
  EXPECT_EQ(pairs.size(), 1u);
  pairs.clear();
  joiner.Process(MakeRecord(2, 2, {1, 2, 3}, /*timestamp=*/250), true, true, cb);
  // Record at t=0 expired (250-100=150 > 0); record at t=90 expired too.
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(joiner.StoredCount(), 1u);
}

TEST(RecordJoinerTest, ProbeOnlyRecordsAreNotStored) {
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 1000),
                      WindowSpec::Unbounded());
  std::vector<ResultPair> pairs;
  const auto cb = [&pairs](const ResultPair& p) { pairs.push_back(p); };
  joiner.Process(MakeRecord(0, 0, {1, 2}), /*store=*/false, /*probe=*/true, cb);
  joiner.Process(MakeRecord(1, 1, {1, 2}), /*store=*/true, /*probe=*/true, cb);
  EXPECT_TRUE(pairs.empty());  // seq 0 was never stored
  EXPECT_EQ(joiner.StoredCount(), 1u);
}

TEST(RecordJoinerTest, PositionalFilterPrunesButPreservesResults) {
  const auto stream = MakeStream(11, 500, 0.4);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 700);
  RecordJoinerOptions with, without;
  with.positional_filter = true;
  without.positional_filter = false;
  RecordJoiner a(sim, WindowSpec::Unbounded(), with);
  RecordJoiner b(sim, WindowSpec::Unbounded(), without);
  const auto pa = Canonical(SingleNodeJoin(stream, a));
  const auto pb = Canonical(SingleNodeJoin(stream, b));
  EXPECT_EQ(pa, pb);
  EXPECT_LE(a.stats().candidates, b.stats().candidates);
  EXPECT_GT(a.stats().position_filtered, 0u);
}

// The index must track the window, not the stream's history: a record's
// postings leave with it, so on the tweet preset (whose rare prefix tokens
// are seldom probed again) the index stops growing once the window is
// full.
TEST(RecordJoinerTest, IndexStaysBoundedByTheWindow) {
  constexpr size_t kPerWindow = 2000;
  constexpr size_t kWindows = 12;
  WorkloadOptions wo = PresetOptions(DatasetPreset::kTweet);
  wo.seed = 47;
  const auto stream = WorkloadGenerator(wo).Generate(kPerWindow * kWindows);
  RecordJoinerOptions opts;
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 800),
                      WindowSpec::ByTime(static_cast<int64_t>(kPerWindow) * wo.timestamp_step_us),
                      opts);
  const auto cb = [](const ResultPair&) {};
  size_t memory_at_2 = 0;
  for (size_t w = 1; w <= kWindows; ++w) {
    for (size_t i = (w - 1) * kPerWindow; i < w * kPerWindow; ++i) {
      joiner.Process(stream[i], true, true, cb);
    }
    if (w == 2) {
      memory_at_2 = joiner.MemoryBytes();
    } else if (w >= 10) {
      EXPECT_LE(joiner.MemoryBytes(), memory_at_2 * 3 / 2) << "after window " << w;
    }
  }
  EXPECT_GT(joiner.stats().evictions, kPerWindow * (kWindows - 2));
  EXPECT_GT(joiner.stats().dead_postings_purged, 0u);
}

// max_index_bytes bounds the joiner's memory, index included: a budget
// eviction takes the record's postings with it.
TEST(RecordJoinerTest, MemoryBudgetBoundsTheIndex) {
  constexpr size_t kBudget = 65536;
  WorkloadOptions wo = PresetOptions(DatasetPreset::kTweet);
  wo.seed = 53;
  const auto stream = WorkloadGenerator(wo).Generate(30000);
  RecordJoinerOptions opts;
  opts.max_index_bytes = kBudget;
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 800),
                      WindowSpec::Unbounded(), opts);
  SingleNodeJoin(stream, joiner);
  EXPECT_GT(joiner.stats().budget_evictions, 0u);
  EXPECT_LE(joiner.MemoryBytes(), 4 * kBudget);
}

TEST(LocalJoinerStatsTest, FiltersActuallyFire) {
  const auto stream = MakeStream(23, 800, 0.4);
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 800),
                      WindowSpec::Unbounded());
  SingleNodeJoin(stream, joiner);
  const JoinerStats& s = joiner.stats();
  size_t non_empty = 0;
  for (const RecordPtr& r : stream) non_empty += r->size() > 0 ? 1 : 0;
  EXPECT_EQ(s.probes, non_empty);
  EXPECT_GT(s.postings_scanned, 0u);
  EXPECT_GT(s.length_filtered, 0u);
  EXPECT_GT(s.candidates, 0u);
  EXPECT_GE(s.verify.full_verifications, s.candidates);
}

// --- Posting index -----------------------------------------------------------

using TestIndex = PostingIndex<uint64_t>;
constexpr TokenId kMaxToken = std::numeric_limits<TokenId>::max();
constexpr int kInitialBits = 4;
static_assert(TestIndex::kInitialSlots == 1u << kInitialBits);

/// The first `n` tokens whose home is `slot` in the initial slot array.
std::vector<TokenId> TokensHomedAt(size_t slot, size_t n) {
  std::vector<TokenId> out;
  for (TokenId t = 0; out.size() < n; ++t) {
    if (TestIndex::HomeSlot(t, kInitialBits) == slot) out.push_back(t);
  }
  return out;
}

void ExpectMatchesModel(const TestIndex& index,
                        const std::map<TokenId, std::vector<uint64_t>>& model) {
  ASSERT_EQ(index.size(), model.size());
  for (const auto& [token, list] : model) {
    const TestIndex::List* got = index.Find(token);
    ASSERT_NE(got, nullptr) << "token " << token << " lost";
    EXPECT_EQ(*got, list) << "token " << token;
  }
  size_t walked = 0;
  index.ForEach([&](TokenId token, const std::vector<uint64_t>& list) {
    ++walked;
    const auto it = model.find(token);
    ASSERT_NE(it, model.end()) << "walk visited absent token " << token;
    EXPECT_EQ(list, it->second);
  });
  EXPECT_EQ(walked, model.size());
}

// Linear probing's hard cases: one cluster that wraps from the last slot to
// the first, holding keys from two home slots, then erasures from its middle
// and from its wrapped end. Backward-shift deletion must keep every
// remaining key reachable from its home. Eight keys fit the initial slot
// array at its load factor, so it never grows here.
TEST(PostingIndexTest, ClusterSurvivesErasuresFromItsMiddleAndWrappedEnd) {
  const std::vector<TokenId> last = TokensHomedAt(TestIndex::kInitialSlots - 1, 5);
  const std::vector<TokenId> second = TokensHomedAt(1, 2);
  ASSERT_EQ(TestIndex::HomeSlot(0, kInitialBits), 0u);
  // Insertion order interleaves the homes: slots 15, 0, 1, ... fill in turn.
  const std::vector<TokenId> order = {last[0], last[1], 0,       second[0],
                                      last[2], last[3], second[1], last[4]};
  TestIndex index;
  std::map<TokenId, std::vector<uint64_t>> model;
  for (size_t i = 0; i < order.size(); ++i) {
    for (uint64_t k = 0; k <= i % 3; ++k) {
      index.Append(order[i], 100 * i + k);
      model[order[i]].push_back(100 * i + k);
    }
  }
  ExpectMatchesModel(index, model);

  const auto erase_all = [&](TokenId token) {
    while (!model[token].empty()) {
      EXPECT_EQ(index.EraseFront(token), model[token].front());
      model[token].erase(model[token].begin());
    }
    model.erase(token);
    EXPECT_EQ(index.Find(token), nullptr);
    ExpectMatchesModel(index, model);
  };
  erase_all(second[0]);  // middle of the cluster
  erase_all(last[4]);    // the wrapped end
  erase_all(last[0]);    // the cluster's first slot, before the wrap
  // Erase-by-id from the middle of a list, then the list's last posting.
  ASSERT_EQ(model[last[3]].size(), 3u);
  EXPECT_TRUE(index.Erase(last[3], model[last[3]][1]));
  model[last[3]].erase(model[last[3]].begin() + 1);
  EXPECT_FALSE(index.Erase(last[3], 999999));
  EXPECT_FALSE(index.Erase(last[0], 0));  // no list at all
  ExpectMatchesModel(index, model);
  erase_all(0);
  erase_all(last[3]);
  for (const TokenId t : {last[1], last[2], second[1]}) erase_all(t);
  EXPECT_EQ(index.size(), 0u);
}

// Growth re-homes every list but moves each whole: contents and order hold.
TEST(PostingIndexTest, GrowthKeepsEveryListAndItsOrder) {
  TestIndex index;
  std::map<TokenId, std::vector<uint64_t>> model;
  const size_t initial_bytes = index.MemoryBytes();
  for (uint64_t round = 0; round < 3; ++round) {
    for (TokenId t = 0; t < 1000; ++t) {
      const TokenId token = t * 2654435761u;  // spread over the 32-bit range
      index.Append(token, round * 1000 + t);
      model[token].push_back(round * 1000 + t);
    }
  }
  ExpectMatchesModel(index, model);
  EXPECT_GT(index.MemoryBytes(), initial_bytes);
}

// A randomized differential run against an ordered map: appends, head
// erasures, erasures by posting and lookups over keys drawn from the whole
// 32-bit range (both ends included). The key pool is small enough that
// lists keep emptying, vacating their slots, and coming back.
TEST(PostingIndexTest, MatchesAnOrderedMapUnderRandomOperations) {
  std::mt19937_64 rng(20);
  std::vector<TokenId> pool = {0, 1, kMaxToken, kMaxToken - 1};
  while (pool.size() < 600) pool.push_back(static_cast<TokenId>(rng()));
  TestIndex index;
  std::map<TokenId, std::vector<uint64_t>> model;
  uint64_t next_posting = 0;
  for (int op = 0; op < 100000; ++op) {
    const TokenId token = pool[rng() % pool.size()];
    std::vector<uint64_t>& list = model[token];
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:  // append
        index.Append(token, next_posting);
        list.push_back(next_posting++);
        break;
      case 3:
      case 4:  // erase the head
        if (!list.empty()) {
          ASSERT_EQ(index.EraseFront(token), list.front()) << "op " << op;
          list.erase(list.begin());
        }
        break;
      case 5: {  // erase by posting, present or not
        const bool present = !list.empty() && rng() % 4 != 0;
        const uint64_t posting = present ? list[rng() % list.size()] : next_posting;
        ASSERT_EQ(index.Erase(token, posting), present) << "op " << op;
        if (present) list.erase(std::find(list.begin(), list.end(), posting));
        break;
      }
      default: {  // lookup
        const TestIndex::List* got = index.Find(token);
        if (list.empty()) {
          ASSERT_EQ(got, nullptr) << "op " << op;
        } else {
          ASSERT_NE(got, nullptr) << "op " << op;
          ASSERT_EQ(*got, list) << "op " << op;
        }
      }
    }
    if (list.empty()) model.erase(token);
    if (op % 5000 == 0) ExpectMatchesModel(index, model);
  }
  ExpectMatchesModel(index, model);
}

// Token ids at both ends of the 32-bit range are indexed, found by a probe
// and evicted with their record. Every record here is stored and probed
// under Jaccard 0.5 with a one-record window, so each store evicts its
// predecessor (and, for the bundle joiner, retires its bundle).
void ExpectExtremeTokensJoinAndLeave(LocalJoiner& joiner) {
  std::vector<ResultPair> pairs;
  const auto cb = [&pairs](const ResultPair& p) { pairs.push_back(p); };
  joiner.Process(MakeRecord(0, 0, {0, kMaxToken}), true, true, cb);
  joiner.Process(MakeRecord(1, 1, {0, kMaxToken}), true, true, cb);  // found via both
  joiner.Process(MakeRecord(2, 2, {kMaxToken}), true, true, cb);     // found via 2^32-1
  joiner.Process(MakeRecord(3, 3, {0}), true, true, cb);  // token 0's postings are gone
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].probe_seq, 1u);
  EXPECT_EQ(pairs[0].partner_seq, 0u);
  EXPECT_EQ(pairs[1].probe_seq, 2u);
  EXPECT_EQ(pairs[1].partner_seq, 1u);
  EXPECT_EQ(joiner.StoredCount(), 1u);
  EXPECT_EQ(joiner.stats().evictions, 3u);
  EXPECT_EQ(joiner.stats().dead_postings_purged, 5u);  // 2 + 2 + 1
}

TEST(RecordJoinerTest, ExtremeTokenIdsAreIndexedProbedAndEvicted) {
  RecordJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 500), WindowSpec::ByCount(1));
  ExpectExtremeTokensJoinAndLeave(joiner);
}

TEST(BundleJoinerTest, ExtremeTokenIdsAreIndexedProbedAndEvicted) {
  BundleJoiner joiner(SimilaritySpec(SimilarityFunction::kJaccard, 500), WindowSpec::ByCount(1));
  ExpectExtremeTokensJoinAndLeave(joiner);
}

// The index is sized by the tokens it holds, not by the largest token id:
// one record holding a token near 2^20 costs a few slots, where a table
// indexed by token id would hold 2^20 list headers (24 MiB).
TEST(LocalJoinerMemoryTest, OneLargeTokenIdCostsLittle) {
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  const RecordPtr r = MakeRecord(0, 0, {(1u << 20) - 5, (1u << 20) + 7});
  const auto cb = [](const ResultPair&) {};
  RecordJoiner record(sim, WindowSpec::Unbounded());
  BundleJoiner bundle(sim, WindowSpec::Unbounded());
  record.Process(r, true, true, cb);
  bundle.Process(r, true, true, cb);
  EXPECT_EQ(record.StoredCount(), 1u);
  EXPECT_EQ(bundle.StoredCount(), 1u);
  EXPECT_LT(record.MemoryBytes(), 1u << 20);
  EXPECT_LT(bundle.MemoryBytes(), 1u << 20);
}

}  // namespace
}  // namespace dssj
