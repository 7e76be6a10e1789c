#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"

namespace dssj {
namespace {

// --- Status ---------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, EqualityAndCodeNames) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  StatusOr<int> err = Status::OutOfRange("too big");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOrDeathTest, AccessingErrorValueAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StatusOr<int> err = Status::Internal("boom");
  EXPECT_DEATH(err.value(), "boom");
}

Status FailsFast() {
  DSSJ_RETURN_IF_ERROR(Status::NotFound("gone"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) { EXPECT_EQ(FailsFast().code(), StatusCode::kNotFound); }

// --- Logging / CHECK --------------------------------------------------------

TEST(CheckDeathTest, ChecksAbortWithMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(CHECK(1 == 2) << "extra context", "CHECK failed: 1 == 2");
  EXPECT_DEATH(CHECK_EQ(3, 4), "3 vs 4");
  EXPECT_DEATH(CHECK_LT(5, 5), "CHECK_LT failed");
}

TEST(CheckTest, PassingChecksAreSilent) {
  CHECK(true);
  CHECK_EQ(1, 1);
  CHECK_LE(1, 2) << "never printed";
  // CHECK works inside if/else without dangling-else surprises.
  if (true)
    CHECK(true);
  else
    CHECK(false);
}

TEST(LoggingTest, MinSeverityRoundTrips) {
  const LogSeverity prev = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);
  SetMinLogSeverity(prev);
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123), c(124);
  std::vector<uint64_t> va, vb, vc;
  for (int i = 0; i < 100; ++i) {
    va.push_back(a.Next());
    vb.push_back(b.Next());
    vc.push_back(c.Next());
  }
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(RngTest, UniformStaysInBoundsAndCoversDomain) {
  Rng rng(1);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.Uniform(10);
    ASSERT_LT(v, 10u);
    ++hits[v];
  }
  for (int h : hits) EXPECT_GT(h, 800);  // roughly uniform
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(5);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.Add(rng.Gaussian());
  EXPECT_NEAR(stat.mean(), 0.0, 0.03);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.03);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.Shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, v);
}

TEST(ZipfTest, SkewZeroIsUniform) {
  Rng rng(7);
  ZipfDistribution zipf(5, 0.0);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.Sample(rng)];
  for (int h : hits) EXPECT_NEAR(h, 4000, 500);
}

TEST(ZipfTest, RankFrequenciesDecrease) {
  Rng rng(8);
  ZipfDistribution zipf(1000, 1.0);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 200000; ++i) ++hits[zipf.Sample(rng)];
  EXPECT_GT(hits[0], hits[9] * 2);
  EXPECT_GT(hits[9], hits[99]);
  // Rank-0 mass under skew 1.0 with n=1000: 1/H(1000) ≈ 13%.
  EXPECT_NEAR(hits[0] / 200000.0, 0.13, 0.03);
}

TEST(ZipfTest, SamplesStayInRange) {
  Rng rng(9);
  for (double skew : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    ZipfDistribution zipf(37, skew);
    for (int i = 0; i < 5000; ++i) ASSERT_LT(zipf.Sample(rng), 37u);
  }
  ZipfDistribution one(1, 1.0);
  EXPECT_EQ(one.Sample(rng), 0u);
}

// --- Hashing ----------------------------------------------------------------

// Pins the checksum of every store frame (checkpoint chains, spill segments,
// migration blobs): a change here must bump net::kWireVersion, because
// migration blobs cross processes and no frame carries a version.
// The cases cover the empty input, a lone partial block, whole blocks and
// a block plus a tail.
TEST(HashTest, Checksum64KnownAnswers) {
  EXPECT_EQ(Checksum64("", 0), 0xB81DFAE1B735D0FCULL);
  EXPECT_EQ(Checksum64("a", 1), 0x2D568E30860009A8ULL);
  EXPECT_EQ(Checksum64("abc", 3), 0x2645B504E533F3F9ULL);
  EXPECT_EQ(Checksum64("abcdefgh", 8), 0x2AB74FCD349EB9A7ULL);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Checksum64(fox.data(), fox.size()), 0x6A79FB83006E1BD8ULL);
  std::string bytes;
  for (int i = 0; i < 100; ++i) bytes.push_back(static_cast<char>(i));
  EXPECT_EQ(Checksum64(bytes.data(), 31), 0x0E2D18CF80E61DF0ULL);
  EXPECT_EQ(Checksum64(bytes.data(), 32), 0x50603874EB7E41DFULL);
  EXPECT_EQ(Checksum64(bytes.data(), 33), 0x6E9D04B40294D9CCULL);
  EXPECT_EQ(Checksum64(bytes.data(), 100), 0x0737B4CB42579E6FULL);
}

// Every lane step is a bijection, so rewriting any one 8-byte word (the
// zero-padded tail included) always changes the checksum; sampled at every
// word with masks from dense to single-bit.
TEST(HashTest, Checksum64SeesEveryChangeWithinOneWord) {
  std::mt19937_64 rng(5);
  std::string data(1003, '\0');  // 125 whole words and a 3-byte tail
  for (char& c : data) c = static_cast<char>(rng());
  const uint64_t want = Checksum64(data.data(), data.size());
  // Word loads need no alignment: the same bytes one address on agree.
  const std::string shifted = " " + data;
  EXPECT_EQ(Checksum64(shifted.data() + 1, data.size()), want);
  for (size_t begin = 0; begin < data.size(); begin += 8) {
    const size_t width = std::min<size_t>(8, data.size() - begin);
    const uint64_t in_word = width == 8 ? ~0ULL : (1ULL << (8 * width)) - 1;
    for (int trial = 0; trial < 16; ++trial) {
      uint64_t mask = (rng() >> (rng() % 64)) & in_word;
      if (mask == 0) mask = 1;
      std::string changed = data;
      for (size_t i = 0; i < width; ++i) {
        changed[begin + i] = static_cast<char>(changed[begin + i] ^ (mask >> (8 * i)));
      }
      EXPECT_NE(Checksum64(changed.data(), changed.size()), want) << "word at " << begin;
    }
  }
}

TEST(HashTest, Mix64AvalanchesLowBits) {
  // Consecutive inputs spread across buckets.
  std::vector<int> hits(16, 0);
  for (uint64_t i = 0; i < 16000; ++i) ++hits[Mix64(i) % 16];
  for (int h : hits) EXPECT_NEAR(h, 1000, 200);
}

// --- Stats -------------------------------------------------------------------

TEST(RunningStatTest, MatchesClosedForm) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, MergeEqualsSequential) {
  Rng rng(10);
  RunningStat whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Gaussian() * 3 + 1;
    whole.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
}

TEST(HistogramTest, QuantilesWithinBucketError) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(static_cast<double>(h.p50()), 5000.0, 5000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9900.0, 9900.0 * 0.02);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_NEAR(h.mean(), 5000.5, 0.5);
}

TEST(HistogramTest, MergeAccumulates) {
  Histogram a, b;
  for (uint64_t v = 0; v < 100; ++v) a.Add(v);
  for (uint64_t v = 1000; v < 1100; ++v) b.Add(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 1099u);
  EXPECT_GT(a.p95(), 1000u);
}

TEST(HistogramTest, EmptyAndSmallValues) {
  Histogram h;
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  h.Add(0);
  h.Add(3);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 3u);
  EXPECT_LE(h.p50(), 3u);
  EXPECT_FALSE(h.Summary().empty());
}

TEST(CounterTest, AddAndReset) {
  Counter c;
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Get(), 42u);
  c.Reset();
  EXPECT_EQ(c.Get(), 0u);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  const int64_t start = NowMicros();
  while (NowMicros() - start < 2000) {
  }
  // Allow 1us of truncation slack between the two clock readers.
  EXPECT_GE(sw.ElapsedMicros(), 1999);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0019);
  sw.Restart();
  EXPECT_LT(sw.ElapsedMicros(), 2000);
}

}  // namespace
}  // namespace dssj
