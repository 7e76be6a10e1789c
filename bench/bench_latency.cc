// Experiment E9 — per-record processing latency vs arrival rate. The
// source is paced to the target rate; latency is measured from each
// record's due time to the joiner finishing the probe, so it also counts
// how late the source emitted the record. Below saturation latency is
// mostly batch-fill time: a collector flushes a link only once
// `batch_size` tuples have gathered, so latency falls as the rate rises.
// Past saturation queues fill (backpressure) and p99 climbs with the
// backlog; the rates swept here stay below it on a 4-core host.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace dssj::bench {
namespace {

void BM_LatencyVsRate(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  // One second of traffic at the target rate (bounded for high rates).
  const size_t n = std::min<size_t>(static_cast<size_t>(rate), 60000);
  const auto& stream = CachedStream(DatasetPreset::kTweet, 60000);
  const std::vector<RecordPtr> slice(stream.begin(), stream.begin() + n);

  DistributedJoinOptions options = BaseJoinOptions(800, 4);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(20000);
  options.length_partition =
      PlanLengthPartition(slice, options.sim, 4, PartitionMethod::kLoadAwareGreedy);
  options.arrival_rate_per_sec = rate;

  DistributedJoinResult result;
  for (auto _ : state) {
    result = RunDistributedJoin(slice, options);
  }
  ReportJoinResult(state, result);
  state.counters["offered_rate"] = rate;
  state.counters["achieved_rate"] = result.throughput_rps;
  state.counters["lat_mean_us"] = result.latency.mean_us;
  state.counters["lat_max_us"] = static_cast<double>(result.latency.max_us);
}

BENCHMARK(BM_LatencyVsRate)
    ->Arg(2000)->Arg(5000)->Arg(10000)->Arg(20000)->Arg(50000)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

}  // namespace
}  // namespace dssj::bench

BENCHMARK_MAIN();
