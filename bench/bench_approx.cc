// Experiment E11 (extension) — the exact record joiner's anchor cell and
// the PPJoin+ suffix-filter ablation. Not a figure of the paper (listed as
// future work).

#include <memory>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/record_joiner.h"

namespace dssj::bench {
namespace {

constexpr size_t kRecords = 20000;

void BM_ExactAnchor(benchmark::State& state) {
  const auto& stream = CachedDupStream(0.4, kRecords);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  uint64_t found = 0;
  for (auto _ : state) {
    found = 0;
    RecordJoiner joiner(sim, WindowSpec::ByCount(15000));
    for (const RecordPtr& r : stream) {
      joiner.Process(r, true, true, [&found](const ResultPair&) { ++found; });
    }
  }
  benchmark::DoNotOptimize(found);
  state.counters["recall"] = 1.0;
  state.counters["rec_per_s"] = benchmark::Counter(
      static_cast<double>(kRecords) * state.iterations(), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ExactAnchor)->Unit(benchmark::kMillisecond);

void RunSuffix(benchmark::State& state, bool suffix) {
  const auto& stream = CachedDupStream(0.4, kRecords);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  RecordJoinerOptions options;
  options.suffix_filter = suffix;
  options.suffix_filter_depth = static_cast<int>(state.range(0));
  uint64_t sink = 0;
  std::unique_ptr<RecordJoiner> joiner;
  for (auto _ : state) {
    joiner = std::make_unique<RecordJoiner>(sim, WindowSpec::ByCount(15000), options);
    for (const RecordPtr& r : stream) {
      joiner->Process(r, true, true, [&sink](const ResultPair&) { ++sink; });
    }
  }
  benchmark::DoNotOptimize(sink);
  state.counters["suffix_filtered"] = static_cast<double>(joiner->stats().suffix_filtered);
  state.counters["merge_steps"] = static_cast<double>(joiner->stats().verify.merge_steps);
}

void BM_SuffixFilterOn(benchmark::State& state) { RunSuffix(state, true); }
void BM_SuffixFilterOff(benchmark::State& state) { RunSuffix(state, false); }

BENCHMARK(BM_SuffixFilterOn)->Arg(2)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SuffixFilterOff)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dssj::bench

BENCHMARK_MAIN();
