// Experiment E6 — bundle-based vs record-at-a-time local join across
// near-duplicate densities. Bundling groups similar stored records, so
// posting lists shrink and probes touch fewer entries; the advantage grows
// with duplicate density (the paper's motivating scenario: retweets,
// re-posted news).
//
// Usage: bench_local_join [--records=N] [google-benchmark flags]
//   --records=N   stream length per benchmark (default 30000; the CI smoke
//                 run uses 20000 to bound wall time).
//
// Counters per cell: results, postings_scanned, candidates and
// merge_steps (token comparisons plus binary searches in verification).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/brute_force_joiner.h"
#include "core/bundle_joiner.h"
#include "core/record_joiner.h"

namespace dssj::bench {
namespace {

size_t g_records = 30000;

void RunLocal(benchmark::State& state, LocalAlgorithm algorithm) {
  const double dup_fraction = static_cast<double>(state.range(0)) / 100.0;
  const size_t records = g_records;
  const auto& stream = CachedDupStream(dup_fraction, records);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  const WindowSpec window = WindowSpec::ByCount(20000);
  uint64_t sink = 0;
  std::unique_ptr<LocalJoiner> joiner;
  for (auto _ : state) {
    switch (algorithm) {
      case LocalAlgorithm::kRecord:
        joiner = std::make_unique<RecordJoiner>(sim, window);
        break;
      case LocalAlgorithm::kBundle:
        joiner = std::make_unique<BundleJoiner>(sim, window);
        break;
      case LocalAlgorithm::kBruteForce:
        joiner = std::make_unique<BruteForceJoiner>(sim, window);
        break;
    }
    for (const RecordPtr& r : stream) {
      joiner->Process(r, /*store=*/true, /*probe=*/true,
                      [&sink](const ResultPair&) { ++sink; });
    }
  }
  benchmark::DoNotOptimize(sink);
  const JoinerStats& s = joiner->stats();
  state.SetItemsProcessed(static_cast<int64_t>(records) * state.iterations());
  state.counters["results"] = static_cast<double>(s.results);
  state.counters["postings_scanned"] = static_cast<double>(s.postings_scanned);
  state.counters["candidates"] = static_cast<double>(s.candidates);
  state.counters["merge_steps"] = static_cast<double>(s.verify.merge_steps);
  state.counters["rec_per_s"] = benchmark::Counter(
      static_cast<double>(records) * state.iterations(), benchmark::Counter::kIsRate);
}

void BM_RecordJoiner(benchmark::State& state) { RunLocal(state, LocalAlgorithm::kRecord); }
void BM_BundleJoiner(benchmark::State& state) { RunLocal(state, LocalAlgorithm::kBundle); }

// Duplicate density sweep: 0%, 20%, 40%, 60%, 80%.
BENCHMARK(BM_RecordJoiner)->Arg(0)->Arg(20)->Arg(40)->Arg(60)->Arg(80)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BundleJoiner)->Arg(0)->Arg(20)->Arg(40)->Arg(60)->Arg(80)
    ->Unit(benchmark::kMillisecond);

// Brute force as a scale anchor on a smaller prefix of the stream.
void BM_BruteForceAnchor(benchmark::State& state) {
  const auto& full = CachedDupStream(0.4, g_records);
  const size_t anchor = std::min<size_t>(4000, full.size());
  const std::vector<RecordPtr> stream(full.begin(),
                                      full.begin() + static_cast<ptrdiff_t>(anchor));
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  uint64_t sink = 0;
  for (auto _ : state) {
    BruteForceJoiner joiner(sim, WindowSpec::ByCount(20000));
    for (const RecordPtr& r : stream) {
      joiner.Process(r, true, true, [&sink](const ResultPair&) { ++sink; });
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(anchor) * state.iterations());
}

BENCHMARK(BM_BruteForceAnchor)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dssj::bench

int main(int argc, char** argv) {
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--records=", 10) == 0) {
      const long n = std::atol(argv[i] + 10);
      if (n < 1) {
        std::fprintf(stderr, "--records must be >= 1\n");
        return 1;
      }
      dssj::bench::g_records = static_cast<size_t>(n);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
