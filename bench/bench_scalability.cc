// Experiment E3 — throughput vs joiner parallelism (the paper's
// scalability figure). Length-based distribution scales near-linearly in
// the cluster model (rec_per_s_scaled) because its bottleneck joiner load
// shrinks with k; broadcast flattens because every joiner probes every
// record regardless of k.
//
// Run on the ENRON-like workload: long records make per-record join work
// dominate fixed per-message overhead, which is the regime of the paper's
// cluster evaluation (on short-record workloads dispatch overhead caps
// scaling earlier — bench_throughput_threshold shows both datasets).

#include <algorithm>

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace dssj::bench {
namespace {

constexpr size_t kRecords = 20000;

void RunScaling(benchmark::State& state, DistributionStrategy strategy) {
  const int joiners = static_cast<int>(state.range(0));
  const auto& stream = CachedStream(DatasetPreset::kEnron, kRecords);
  DistributedJoinOptions options = BaseJoinOptions(800, joiners);
  options.strategy = strategy;
  options.window = WindowSpec::ByCount(15000);
  // Scale the dispatcher tier with the cluster (as a Storm deployment
  // would) through ingest lanes, which keep results exact; otherwise one
  // dispatcher's serialization work caps every strategy at high k. Lanes
  // need a stateless router, so broadcast keeps one dispatcher.
  if (strategy == DistributionStrategy::kLengthBased ||
      strategy == DistributionStrategy::kPrefixBased) {
    options.ingest_lanes = std::max(1, joiners / 8);
  }
  if (strategy == DistributionStrategy::kLengthBased) {
    options.length_partition =
        PlanLengthPartition(stream, options.sim, joiners, PartitionMethod::kLoadAwareGreedy);
  }
  DistributedJoinResult result;
  for (auto _ : state) {
    result = RunDistributedJoin(stream, options);
  }
  ReportJoinResult(state, result);
  // Per-joiner busy balance: bottleneck / average (1.0 = perfect).
  uint64_t sum = 0, worst = 0;
  for (uint64_t b : result.joiner_busy_micros) {
    sum += b;
    worst = std::max(worst, b);
  }
  state.counters["busy_imbalance"] =
      sum > 0 ? static_cast<double>(worst) * joiners / static_cast<double>(sum) : 0.0;
}

void BM_LengthScaling(benchmark::State& state) {
  RunScaling(state, DistributionStrategy::kLengthBased);
}
void BM_PrefixScaling(benchmark::State& state) {
  RunScaling(state, DistributionStrategy::kPrefixBased);
}
void BM_BroadcastScaling(benchmark::State& state) {
  RunScaling(state, DistributionStrategy::kBroadcast);
}

BENCHMARK(BM_LengthScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_PrefixScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_BroadcastScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

}  // namespace
}  // namespace dssj::bench

BENCHMARK_MAIN();
