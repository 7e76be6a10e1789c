// Experiment E10 — design-choice ablations called out in DESIGN.md:
//   (a) dispatcher parallelism through ingest lanes: d lanes shard the
//       dispatcher tier and the joiners merge the lanes back into seq
//       order, so recall must stay 1.000 at every d.
//   (b) planner sample size: how much history the load-aware partitioner
//       needs before the measured imbalance converges.
//   (c) positional filter on/off inside the record joiner.

#include <algorithm>
#include <set>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/brute_force_joiner.h"
#include "core/record_joiner.h"

namespace dssj::bench {
namespace {

// (a) dispatcher parallelism (ingest lanes) → result recall + throughput.
void BM_IngestLanes(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const auto& stream = CachedDupStream(0.4, 20000);
  DistributedJoinOptions options = BaseJoinOptions(800, 4);
  options.strategy = DistributionStrategy::kLengthBased;
  options.ingest_lanes = lanes;
  options.length_partition =
      PlanLengthPartition(stream, options.sim, 4, PartitionMethod::kLoadAwareGreedy);
  options.collect_results = false;
  DistributedJoinResult result;
  for (auto _ : state) {
    result = RunDistributedJoin(stream, options);
  }
  // Ground truth for recall.
  static uint64_t truth = [&] {
    BruteForceJoiner reference(options.sim, options.window);
    return SingleNodeJoin(stream, reference).size();
  }();
  ReportJoinResult(state, result);
  state.counters["recall"] =
      truth > 0 ? static_cast<double>(result.result_count) / static_cast<double>(truth) : 1.0;
}

BENCHMARK(BM_IngestLanes)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

// (b) planner sample size → measured busy imbalance.
void BM_PlannerSampleSize(benchmark::State& state) {
  const size_t sample_size = static_cast<size_t>(state.range(0));
  const auto& stream = CachedStream(DatasetPreset::kEnron, 30000);
  DistributedJoinOptions options = BaseJoinOptions(800, 8);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(15000);
  const std::vector<RecordPtr> sample(
      stream.begin(), stream.begin() + std::min(sample_size, stream.size()));
  options.length_partition =
      PlanLengthPartition(sample, options.sim, 8, PartitionMethod::kLoadAwareGreedy);
  DistributedJoinResult result;
  for (auto _ : state) {
    result = RunDistributedJoin(stream, options);
  }
  uint64_t sum = 0, worst = 0;
  for (uint64_t b : result.joiner_busy_micros) {
    sum += b;
    worst = std::max(worst, b);
  }
  state.counters["measured_imbalance"] =
      sum > 0 ? static_cast<double>(worst) * 8 / static_cast<double>(sum) : 0.0;
  state.counters["rec_per_s_scaled"] = result.scaled_throughput_rps;
}

BENCHMARK(BM_PlannerSampleSize)
    ->Arg(100)->Arg(1000)->Arg(10000)->Arg(30000)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

// (c) positional filter ablation in the local joiner.
void RunPositional(benchmark::State& state, bool positional) {
  const auto& stream = CachedDupStream(0.4, 30000);
  const SimilaritySpec sim(SimilarityFunction::kJaccard, 800);
  RecordJoinerOptions ro;
  ro.positional_filter = positional;
  uint64_t sink = 0;
  std::unique_ptr<RecordJoiner> joiner;
  for (auto _ : state) {
    joiner = std::make_unique<RecordJoiner>(sim, WindowSpec::ByCount(20000), ro);
    for (const RecordPtr& r : stream) {
      joiner->Process(r, true, true, [&sink](const ResultPair&) { ++sink; });
    }
  }
  benchmark::DoNotOptimize(sink);
  state.counters["candidates"] = static_cast<double>(joiner->stats().candidates);
  state.counters["position_filtered"] =
      static_cast<double>(joiner->stats().position_filtered);
  state.counters["merge_steps"] = static_cast<double>(joiner->stats().verify.merge_steps);
}

void BM_PositionalFilterOn(benchmark::State& state) { RunPositional(state, true); }
void BM_PositionalFilterOff(benchmark::State& state) { RunPositional(state, false); }

BENCHMARK(BM_PositionalFilterOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PositionalFilterOff)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dssj::bench

BENCHMARK_MAIN();
