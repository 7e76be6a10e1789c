// Experiment E2 — throughput vs similarity threshold, per distribution
// strategy, on two workload shapes (the paper's headline figure:
// length-based distribution beats prefix-based and broadcast by up to an
// order of magnitude).
//
//  * TWEET: short records — dispatch overhead matters, prefixes are short.
//  * ENRON: long records — prefix-based replicates to almost every worker
//    (long prefixes) and length-based dominates.
//
// rec_per_s_scaled models a cluster (records / busiest-task time); on this
// single-core host wall clock merely sums all tasks (see EXPERIMENTS.md).
//
// Usage: bench_throughput_threshold [--emit_json=PATH] [--runs=N]
//                                   [google-benchmark flags]
//   --emit_json=PATH  skip the benchmark harness and instead measure the
//                     hot-path optimizations before/after (batch_size=1 vs
//                     batch_size=32) at threshold 0.8 on the TWEET and DBLP
//                     presets, and write machine-readable JSON (median of
//                     --runs runs, default 3) to PATH.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "store/format.h"
#include "text/corpus.h"
#include "text/tokenizer.h"

namespace dssj::bench {
namespace {

constexpr int kJoiners = 8;

size_t RecordsFor(DatasetPreset preset) {
  return preset == DatasetPreset::kEnron ? 20000 : 40000;
}

void RunStrategy(benchmark::State& state, DistributionStrategy strategy,
                 DatasetPreset preset) {
  const int64_t threshold = state.range(0);
  const size_t n = RecordsFor(preset);
  const auto& stream = CachedStream(preset, n);
  DistributedJoinOptions options = BaseJoinOptions(threshold, kJoiners);
  options.strategy = strategy;
  options.window = WindowSpec::ByCount(n / 2);
  if (strategy == DistributionStrategy::kLengthBased) {
    options.length_partition = PlanLengthPartition(
        stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  }
  DistributedJoinResult result;
  for (auto _ : state) {
    result = RunDistributedJoin(stream, options);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
  ReportJoinResult(state, result);
}

void BM_Length_Tweet(benchmark::State& state) {
  RunStrategy(state, DistributionStrategy::kLengthBased, DatasetPreset::kTweet);
}
void BM_Prefix_Tweet(benchmark::State& state) {
  RunStrategy(state, DistributionStrategy::kPrefixBased, DatasetPreset::kTweet);
}
void BM_Broadcast_Tweet(benchmark::State& state) {
  RunStrategy(state, DistributionStrategy::kBroadcast, DatasetPreset::kTweet);
}
void BM_Replicated_Tweet(benchmark::State& state) {
  RunStrategy(state, DistributionStrategy::kReplicated, DatasetPreset::kTweet);
}
void BM_Length_Enron(benchmark::State& state) {
  RunStrategy(state, DistributionStrategy::kLengthBased, DatasetPreset::kEnron);
}
void BM_Prefix_Enron(benchmark::State& state) {
  RunStrategy(state, DistributionStrategy::kPrefixBased, DatasetPreset::kEnron);
}
void BM_Broadcast_Enron(benchmark::State& state) {
  RunStrategy(state, DistributionStrategy::kBroadcast, DatasetPreset::kEnron);
}

// Transport batch-size sweep at the headline configuration (length-based,
// TWEET, t=0.8): how much of the wall-clock win batching delivers, and
// where it saturates.
void BM_Length_Tweet_BatchSize(benchmark::State& state) {
  const size_t n = RecordsFor(DatasetPreset::kTweet);
  const auto& stream = CachedStream(DatasetPreset::kTweet, n);
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.batch_size = static_cast<size_t>(state.range(0));
  options.length_partition = PlanLengthPartition(
      stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  DistributedJoinResult result;
  for (auto _ : state) {
    result = RunDistributedJoin(stream, options);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
  ReportJoinResult(state, result);
}

// Supervision/checkpoint overhead sweep at the same headline configuration.
// Arg is the checkpoint interval in tuples per stateful task; 0 means
// supervised but never checkpointing (pure supervision overhead), -1 means
// supervision fully off (the unsupervised fast path, for reference).
void BM_Length_Tweet_CheckpointInterval(benchmark::State& state) {
  const size_t n = RecordsFor(DatasetPreset::kTweet);
  const auto& stream = CachedStream(DatasetPreset::kTweet, n);
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.length_partition = PlanLengthPartition(
      stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  if (state.range(0) >= 0) {
    options.supervise = true;
    options.supervision.checkpoint_interval = static_cast<uint64_t>(state.range(0));
  }
  DistributedJoinResult result;
  for (auto _ : state) {
    result = RunDistributedJoin(stream, options);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
  ReportJoinResult(state, result);
  state.counters["checkpoints"] = static_cast<double>(result.checkpoints);
  state.counters["checkpoint_MB"] = static_cast<double>(result.checkpoint_bytes) / 1e6;
}

// Same sweep with the checkpoint chains on disk (docs/INTERNALS.md §13):
// the task freezes a copy-on-write view and the checkpoint thread does the
// serialization + file write, with every 8th checkpoint a compacting base.
// Compare against BM_Length_Tweet_CheckpointInterval (the same pipeline
// with in-memory chains) at the same interval to read off the disk cost.
void BM_Length_Tweet_AsyncDeltaCheckpoint(benchmark::State& state) {
  const size_t n = RecordsFor(DatasetPreset::kTweet);
  const auto& stream = CachedStream(DatasetPreset::kTweet, n);
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.length_partition = PlanLengthPartition(
      stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  options.supervise = true;
  options.supervision.checkpoint_interval = static_cast<uint64_t>(state.range(0));
  options.checkpoint_mode = store::CheckpointMode::kAsync;
  options.delta_base_interval = 8;
  DistributedJoinResult result;
  for (auto _ : state) {
    char dir_template[] = "/tmp/dssj_bench_store_XXXXXX";
    const char* dir = mkdtemp(dir_template);
    options.store_dir = dir != nullptr ? dir : "/tmp/dssj_bench_store";
    result = RunDistributedJoin(stream, options);
    store::RemoveTree(options.store_dir);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
  ReportJoinResult(state, result);
  state.counters["delta_ckpts"] = static_cast<double>(result.delta_checkpoints);
  state.counters["base_ckpts"] = static_cast<double>(result.base_checkpoints);
  state.counters["delta_MB"] = static_cast<double>(result.delta_checkpoint_bytes) / 1e6;
  state.counters["base_MB"] = static_cast<double>(result.base_checkpoint_bytes) / 1e6;
}

#define DSSJ_THRESHOLDS ->Arg(600)->Arg(700)->Arg(800)->Arg(900)->Arg(950)

BENCHMARK(BM_Length_Tweet) DSSJ_THRESHOLDS
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_Prefix_Tweet) DSSJ_THRESHOLDS
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_Broadcast_Tweet) DSSJ_THRESHOLDS
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_Replicated_Tweet) DSSJ_THRESHOLDS
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_Length_Enron) DSSJ_THRESHOLDS
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_Prefix_Enron) DSSJ_THRESHOLDS
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_Broadcast_Enron) DSSJ_THRESHOLDS
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

#undef DSSJ_THRESHOLDS

BENCHMARK(BM_Length_Tweet_BatchSize)->Arg(1)->Arg(4)->Arg(16)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

BENCHMARK(BM_Length_Tweet_CheckpointInterval)
    ->Arg(-1)->Arg(0)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

BENCHMARK(BM_Length_Tweet_AsyncDeltaCheckpoint)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

// ---------------------------------------------------------------------------
// --emit_json mode: before/after measurement of the hot-path optimizations.
// ---------------------------------------------------------------------------

struct DistMeasurement {
  double wall_rps = 0.0;
  double scaled_rps = 0.0;
  uint64_t results = 0;
};

DistMeasurement MeasureDistributedOnce(DatasetPreset preset, size_t batch_size) {
  const size_t n = RecordsFor(preset);
  const auto& stream = CachedStream(preset, n);
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.batch_size = batch_size;
  options.length_partition = PlanLengthPartition(
      stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  const DistributedJoinResult r = RunDistributedJoin(stream, options);
  return {r.throughput_rps, r.scaled_throughput_rps, r.result_count};
}

// Core-count scaling of the link fabric, in two views. Both run executor
// threads pinned round-robin across cores with strict per-tuple transport
// (batch_size=1) so every tuple pays one ring operation and the fabric is
// the variable under test, not amortized away by batching (that
// amortization is the batch-size axis above). rec_per_s_scaled (records /
// busiest-task busy time) is the cluster-model metric.
//
//  * BM_Cores — the scaling sweep: 1/2/4/8 joiners with as many ingest
//    lanes (otherwise the single routing task becomes the serial Amdahl
//    stage past 4 joiners and the sweep measures the dispatcher, not the
//    joiners). Prefix-based distribution at t=0.9: token-hash routing
//    spreads load far more evenly across 2..8 joiners than a coarse length
//    partition, so the bottleneck joiner actually shrinks with every
//    doubling and the sweep isolates scaling from partition skew. Lanes
//    make every dispatcher→joiner link a fan-in MPMC ring, and the joiners'
//    lane merge keeps the result set exact, so every cell reports the
//    single-lane result count.
//  * BM_CoresSerialDispatch — the fabric-stress cell: 8 joiners behind ONE
//    dispatcher (length-based, t=0.8), the regime where the fabric's wake
//    discipline decides the bottleneck. Every push lands on a starved,
//    parked joiner; the ring's edge-triggered wakes plus the TrickleGate
//    nap protocol (ring_queue.h) let the dispatcher skip the per-tuple wake
//    syscall almost entirely.

/// One pinned strict-per-tuple scaling-sweep run (see BM_Cores).
DistMeasurement MeasureCoresOnce(int joiners) {
  const size_t n = RecordsFor(DatasetPreset::kTweet);
  const auto& stream = CachedStream(DatasetPreset::kTweet, n);
  DistributedJoinOptions options = BaseJoinOptions(900, joiners);
  options.strategy = DistributionStrategy::kPrefixBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.batch_size = 1;
  options.pin_threads = true;
  options.ingest_lanes = joiners;
  const DistributedJoinResult r = RunDistributedJoin(stream, options);
  return {r.throughput_rps, r.scaled_throughput_rps, r.result_count};
}

/// One serial-dispatch fabric-stress run (see BM_CoresSerialDispatch).
DistMeasurement MeasureSerialDispatchOnce() {
  const size_t n = RecordsFor(DatasetPreset::kTweet);
  const auto& stream = CachedStream(DatasetPreset::kTweet, n);
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.batch_size = 1;
  options.pin_threads = true;
  options.length_partition = PlanLengthPartition(
      stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  const DistributedJoinResult r = RunDistributedJoin(stream, options);
  return {r.throughput_rps, r.scaled_throughput_rps, r.result_count};
}

void ReportMeasurement(benchmark::State& state, const DistMeasurement& m) {
  state.SetItemsProcessed(static_cast<int64_t>(RecordsFor(DatasetPreset::kTweet)) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["rec_per_s_wall"] = m.wall_rps;
  state.counters["rec_per_s_scaled"] = m.scaled_rps;
  state.counters["results"] = static_cast<double>(m.results);
}

void BM_Cores(benchmark::State& state) {
  const int joiners = static_cast<int>(state.range(0));
  DistMeasurement m;
  for (auto _ : state) m = MeasureCoresOnce(joiners);
  ReportMeasurement(state, m);
}
void BM_CoresSerialDispatch(benchmark::State& state) {
  DistMeasurement m;
  for (auto _ : state) m = MeasureSerialDispatchOnce();
  ReportMeasurement(state, m);
}

BENCHMARK(BM_Cores)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_CoresSerialDispatch)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

struct FrontEndMeasurement {
  double wall_rps = 0.0;
  double scaled_rps = 0.0;
  uint64_t results = 0;
  std::vector<DistributedJoinResult::StageTime> stage_times;
};

/// One sharded-front-end run: the serial_dispatch configuration (length
/// routing, t=0.8, 8 joiners, batch 1, pinned) with the ingestion front end
/// split into `lanes` partner lanes. Strict per-tuple transport keeps the
/// reader/router tier the bottleneck — the exact regime the serial_dispatch
/// cell shows saturating — so the sweep measures how far lanes push it.
FrontEndMeasurement MeasureFrontEndOnce(int lanes) {
  const size_t n = RecordsFor(DatasetPreset::kTweet);
  const auto& stream = CachedStream(DatasetPreset::kTweet, n);
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.batch_size = 1;
  options.pin_threads = true;
  options.ingest_lanes = lanes;
  options.length_partition = PlanLengthPartition(
      stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  const DistributedJoinResult r = RunDistributedJoin(stream, options);
  FrontEndMeasurement m;
  m.wall_rps = r.throughput_rps;
  m.scaled_rps = r.scaled_throughput_rps;
  m.results = r.result_count;
  m.stage_times = r.stage_times;
  return m;
}

/// Per-stage busy/idle/blocked breakdown for one front-end cell, to stderr.
/// `idle` is executor wall starved on an empty inbound queue; `blocked` is
/// collector wall pushing downstream (backpressure included).
void PrintStageTable(const char* label,
                     const std::vector<DistributedJoinResult::StageTime>& stages) {
  std::fprintf(stderr, "[front_end %s] pipeline breakdown:\n", label);
  std::fprintf(stderr, "  %-12s %5s %10s %10s %10s\n", "component", "tasks",
               "busy_ms", "idle_ms", "blocked_ms");
  for (const DistributedJoinResult::StageTime& st : stages) {
    std::fprintf(stderr, "  %-12s %5d %10.1f %10.1f %10.1f\n", st.component.c_str(),
                 st.tasks, st.busy_micros / 1000.0, st.idle_micros / 1000.0,
                 st.blocked_micros / 1000.0);
  }
}

struct CorpusLoadMeasurement {
  double serial_ms = 0.0;
  double sharded_ms = 0.0;
  size_t lines = 0;
  size_t bytes = 0;
};

/// Times the sharded corpus load (reader + tokenizer + dictionary stitch)
/// at 1 vs 4 lanes over a synthetic on-disk corpus. Results are verified
/// byte-identical in text_test; here we only time them.
CorpusLoadMeasurement MeasureCorpusLoad() {
  const char* path = "/tmp/dssj_bench_corpus.txt";
  CorpusLoadMeasurement out;
  {
    std::string blob;
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (int line = 0; line < 60000; ++line) {
      const int words = 4 + static_cast<int>(rng % 12);
      for (int w = 0; w < words; ++w) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        blob += "tok" + std::to_string((rng >> 33) % 5000);
        blob += w + 1 < words ? ' ' : '\n';
      }
      ++out.lines;
    }
    out.bytes = blob.size();
    std::FILE* f = std::fopen(path, "wb");
    if (f == nullptr) return out;
    std::fwrite(blob.data(), 1, blob.size(), f);
    std::fclose(f);
  }
  const WordTokenizer tokenizer;
  const auto time_load = [&](int lanes) {
    const auto start = std::chrono::steady_clock::now();
    const auto corpus = LoadCorpusFromFileSharded(path, tokenizer, lanes);
    const auto stop = std::chrono::steady_clock::now();
    if (!corpus.ok()) return 0.0;
    return std::chrono::duration<double, std::milli>(stop - start).count();
  };
  time_load(1);  // warm the page cache so both cells read warm
  out.serial_ms = time_load(1);
  out.sharded_ms = time_load(4);
  std::remove(path);
  return out;
}

void BM_FrontEnd_Lanes(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  FrontEndMeasurement m;
  for (auto _ : state) m = MeasureFrontEndOnce(lanes);
  state.SetItemsProcessed(static_cast<int64_t>(RecordsFor(DatasetPreset::kTweet)) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["rec_per_s_wall"] = m.wall_rps;
  state.counters["rec_per_s_scaled"] = m.scaled_rps;
  state.counters["results"] = static_cast<double>(m.results);
}
BENCHMARK(BM_FrontEnd_Lanes)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

struct CheckpointMeasurement {
  double wall_rps = 0.0;
  double scaled_rps = 0.0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t results = 0;
};

/// One supervised run on TWEET at t=0.8; interval < 0 disables supervision.
CheckpointMeasurement MeasureCheckpointOnce(int64_t interval) {
  const size_t n = RecordsFor(DatasetPreset::kTweet);
  const auto& stream = CachedStream(DatasetPreset::kTweet, n);
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.length_partition = PlanLengthPartition(
      stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  if (interval >= 0) {
    options.supervise = true;
    options.supervision.checkpoint_interval = static_cast<uint64_t>(interval);
  }
  const DistributedJoinResult r = RunDistributedJoin(stream, options);
  return {r.throughput_rps, r.scaled_throughput_rps, r.checkpoints, r.checkpoint_bytes,
          r.result_count};
}

struct TieredMeasurement {
  double wall_rps = 0.0;
  double scaled_rps = 0.0;
  uint64_t delta_checkpoints = 0;
  uint64_t base_checkpoints = 0;
  uint64_t delta_bytes = 0;
  uint64_t base_bytes = 0;
  uint64_t results = 0;
};

/// One store-backed supervised run at the headline configuration. The store
/// root is a fresh mkdtemp dir, removed before returning, so repeated runs
/// never compose against each other's chains.
TieredMeasurement MeasureTieredOnce(int64_t interval, store::CheckpointMode mode,
                                    uint32_t delta_base_interval) {
  const size_t n = RecordsFor(DatasetPreset::kTweet);
  const auto& stream = CachedStream(DatasetPreset::kTweet, n);
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.length_partition = PlanLengthPartition(
      stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  options.supervise = true;
  options.supervision.checkpoint_interval = static_cast<uint64_t>(interval);
  char dir_template[] = "/tmp/dssj_bench_store_XXXXXX";
  const char* dir = mkdtemp(dir_template);
  options.store_dir = dir != nullptr ? dir : "/tmp/dssj_bench_store";
  options.checkpoint_mode = mode;
  options.delta_base_interval = delta_base_interval;
  const DistributedJoinResult r = RunDistributedJoin(stream, options);
  store::RemoveTree(options.store_dir);
  return {r.throughput_rps,          r.scaled_throughput_rps, r.delta_checkpoints,
          r.base_checkpoints,        r.delta_checkpoint_bytes, r.base_checkpoint_bytes,
          r.result_count};
}

struct SpillMeasurement {
  double wall_rps = 0.0;
  uint64_t results = 0;
  uint64_t spilled_bytes = 0;
  uint64_t spill_reads = 0;
  uint64_t evictions = 0;
};

enum class BudgetMode { kUnlimited, kEvict, kSpill };

/// Windows-larger-than-RAM scenario: the same headline join, but each
/// joiner's index budget is far below what the window needs. kEvict drops
/// cold records (recall loss), kSpill moves them to disk stubs and reads
/// them back on surviving-candidate probes (full recall).
SpillMeasurement MeasureSpillOnce(BudgetMode budget, size_t max_index_bytes) {
  const size_t n = RecordsFor(DatasetPreset::kTweet);
  const auto& stream = CachedStream(DatasetPreset::kTweet, n);
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(n / 2);
  options.length_partition = PlanLengthPartition(
      stream, options.sim, kJoiners, PartitionMethod::kLoadAwareGreedy);
  std::string spill_dir;
  if (budget != BudgetMode::kUnlimited) {
    options.max_index_bytes = max_index_bytes;
    options.supervise = true;
    options.supervision.checkpoint_interval = 1024;
    if (budget == BudgetMode::kSpill) {
      char dir_template[] = "/tmp/dssj_bench_spill_XXXXXX";
      const char* dir = mkdtemp(dir_template);
      spill_dir = dir != nullptr ? dir : "/tmp/dssj_bench_spill";
      options.store_dir = spill_dir;
      options.checkpoint_mode = store::CheckpointMode::kAsync;
      options.spill_watermark = 0.5;
    }
  }
  const DistributedJoinResult r = RunDistributedJoin(stream, options);
  if (!spill_dir.empty()) store::RemoveTree(spill_dir);
  return {r.throughput_rps, r.result_count, r.spilled_bytes, r.spill_reads,
          r.budget_evictions};
}

struct LoadMeasurement {
  double wall_rps = 0.0;
  uint64_t p99_us = 0;
  uint64_t results = 0;
  uint64_t shed_probes = 0;
};

/// One paced run (rate 0 = unthrottled) at the headline configuration with a
/// modest queue so overload is visible, optionally shedding probes.
LoadMeasurement MeasureOfferedLoadOnce(const std::vector<RecordPtr>& stream,
                                       const LengthPartition& partition,
                                       double arrival_rate,
                                       stream::ShedPolicy policy) {
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.strategy = DistributionStrategy::kLengthBased;
  options.window = WindowSpec::ByCount(stream.size() / 2);
  options.length_partition = partition;
  options.collect_results = false;
  options.queue_capacity = 512;
  options.arrival_rate_per_sec = arrival_rate;
  options.shed_policy = policy;
  options.shed_watermark = 0.75;
  const DistributedJoinResult r = RunDistributedJoin(stream, options);
  return {r.throughput_rps, r.latency.p99_us, r.result_count, r.shed_probes};
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0);
}

const char* PresetName(DatasetPreset preset) {
  switch (preset) {
    case DatasetPreset::kAol:
      return "aol";
    case DatasetPreset::kTweet:
      return "tweet";
    case DatasetPreset::kEnron:
      return "enron";
    case DatasetPreset::kDblp:
      return "dblp";
  }
  return "unknown";
}

int EmitJson(const std::string& path, int runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"hot_path_before_after\",\n"
               "  \"threshold_permille\": 800,\n"
               "  \"joiners\": %d,\n"
               "  \"runs_per_config\": %d,\n"
               "  \"baseline_config\": {\"batch_size\": 1},\n"
               "  \"optimized_config\": {\"batch_size\": 32},\n",
               kJoiners, runs);

  std::fprintf(f, "  \"distributed\": [\n");
  const DatasetPreset presets[] = {DatasetPreset::kTweet, DatasetPreset::kDblp};
  for (size_t p = 0; p < 2; ++p) {
    const DatasetPreset preset = presets[p];
    std::vector<double> base_wall, base_scaled, opt_wall, opt_scaled;
    uint64_t base_results = 0, opt_results = 0;
    for (int i = 0; i < runs; ++i) {
      const DistMeasurement b = MeasureDistributedOnce(preset, 1);
      base_wall.push_back(b.wall_rps);
      base_scaled.push_back(b.scaled_rps);
      base_results = b.results;
      const DistMeasurement o = MeasureDistributedOnce(preset, 32);
      opt_wall.push_back(o.wall_rps);
      opt_scaled.push_back(o.scaled_rps);
      opt_results = o.results;
    }
    const double bw = Median(base_wall), ow = Median(opt_wall);
    const double bs = Median(base_scaled), os = Median(opt_scaled);
    std::fprintf(f,
                 "    {\"preset\": \"%s\", \"records\": %zu,\n"
                 "     \"baseline\": {\"rec_per_s_wall\": %.1f, \"rec_per_s_scaled\": %.1f, "
                 "\"results\": %llu},\n"
                 "     \"optimized\": {\"rec_per_s_wall\": %.1f, \"rec_per_s_scaled\": %.1f, "
                 "\"results\": %llu},\n"
                 "     \"speedup_wall\": %.3f, \"speedup_scaled\": %.3f}%s\n",
                 PresetName(preset), RecordsFor(preset), bw, bs,
                 static_cast<unsigned long long>(base_results), ow, os,
                 static_cast<unsigned long long>(opt_results),
                 bw > 0.0 ? ow / bw : 0.0, bs > 0.0 ? os / bs : 0.0,
                 p + 1 < 2 ? "," : "");
    std::fprintf(stderr, "[distributed %s] baseline %.0f rec/s wall -> optimized %.0f "
                 "rec/s wall (%.2fx); results %llu vs %llu\n",
                 PresetName(preset), bw, ow, bw > 0.0 ? ow / bw : 0.0,
                 static_cast<unsigned long long>(base_results),
                 static_cast<unsigned long long>(opt_results));
  }
  std::fprintf(f, "  ],\n");

  // Supervision/checkpoint overhead axis: same headline configuration
  // (length-based, TWEET, t=0.8); interval -1 = supervision off (reference),
  // 0 = supervised without checkpoints, else checkpoint every N tuples.
  std::fprintf(f, "  \"checkpoint_overhead\": [\n");
  const int64_t intervals[] = {-1, 0, 256, 1024, 4096};
  const size_t num_intervals = sizeof(intervals) / sizeof(intervals[0]);
  double off_rps = 0.0, off_scaled = 0.0;
  for (size_t k = 0; k < num_intervals; ++k) {
    std::vector<double> wall, scaled;
    uint64_t checkpoints = 0, bytes = 0, results = 0;
    for (int i = 0; i < runs; ++i) {
      const CheckpointMeasurement m = MeasureCheckpointOnce(intervals[k]);
      wall.push_back(m.wall_rps);
      scaled.push_back(m.scaled_rps);
      checkpoints = m.checkpoints;
      bytes = m.checkpoint_bytes;
      results = m.results;
    }
    const double w = Median(wall);
    if (intervals[k] < 0) {
      off_rps = w;
      off_scaled = Median(scaled);
    }
    std::fprintf(f,
                 "    {\"checkpoint_interval\": %lld, \"supervised\": %s,\n"
                 "     \"rec_per_s_wall\": %.1f, \"relative_to_unsupervised\": %.3f,\n"
                 "     \"checkpoints\": %llu, \"checkpoint_bytes\": %llu, "
                 "\"results\": %llu}%s\n",
                 static_cast<long long>(intervals[k]),
                 intervals[k] >= 0 ? "true" : "false", w,
                 off_rps > 0.0 ? w / off_rps : 0.0,
                 static_cast<unsigned long long>(checkpoints),
                 static_cast<unsigned long long>(bytes),
                 static_cast<unsigned long long>(results),
                 k + 1 < num_intervals ? "," : "");
    std::fprintf(stderr,
                 "[checkpoint interval=%lld] %.0f rec/s wall, %llu checkpoints, "
                 "%llu bytes\n",
                 static_cast<long long>(intervals[k]), w,
                 static_cast<unsigned long long>(checkpoints),
                 static_cast<unsigned long long>(bytes));
  }
  std::fprintf(f, "  ],\n");

  // Tiered state store axis (docs/INTERNALS.md §13): at each checkpoint
  // interval, the on-disk chain (copy-on-write freeze, checkpoint thread
  // writes, every 8th a base) with kSync — the executor waits at each
  // boundary until its checkpoint is durable — against kAsync, which runs
  // on; both relative to the unsupervised reference measured above. Then the
  // windows-larger-than-RAM run: the same join with a per-joiner index
  // budget far below the window, evicting (recall loss) vs spilling
  // (full recall, disk reads on surviving candidates).
  std::fprintf(f, "  \"tiered_state\": {\n");
  std::fprintf(f,
               "    \"preset\": \"tweet\", \"records\": %zu, "
               "\"delta_base_interval\": 8,\n"
               "    \"unsupervised_rec_per_s\": %.1f, "
               "\"unsupervised_rec_per_s_scaled\": %.1f,\n"
               "    \"checkpoint_sweep\": [\n",
               RecordsFor(DatasetPreset::kTweet), off_rps, off_scaled);
  const int64_t tiered_intervals[] = {64, 256, 1024};
  const size_t num_tiered = sizeof(tiered_intervals) / sizeof(tiered_intervals[0]);
  for (size_t k = 0; k < num_tiered; ++k) {
    std::vector<double> sync_wall, async_wall, sync_scaled, async_scaled;
    TieredMeasurement sync_last, async_last;
    for (int i = 0; i < runs; ++i) {
      sync_last = MeasureTieredOnce(tiered_intervals[k], store::CheckpointMode::kSync, 8);
      sync_wall.push_back(sync_last.wall_rps);
      sync_scaled.push_back(sync_last.scaled_rps);
      async_last = MeasureTieredOnce(tiered_intervals[k], store::CheckpointMode::kAsync, 8);
      async_wall.push_back(async_last.wall_rps);
      async_scaled.push_back(async_last.scaled_rps);
    }
    const double sw = Median(sync_wall), aw = Median(async_wall);
    const double ss = Median(sync_scaled), as = Median(async_scaled);
    std::fprintf(f,
                 "      {\"checkpoint_interval\": %lld,\n"
                 "       \"sync_wait\": {\"rec_per_s_wall\": %.1f, "
                 "\"rec_per_s_scaled\": %.1f,\n"
                 "        \"relative_scaled\": %.3f,\n"
                 "        \"delta_checkpoints\": %llu, \"delta_checkpoint_bytes\": %llu,\n"
                 "        \"base_checkpoints\": %llu, \"base_checkpoint_bytes\": %llu},\n"
                 "       \"async_delta\": {\"rec_per_s_wall\": %.1f, "
                 "\"rec_per_s_scaled\": %.1f,\n"
                 "        \"relative_scaled\": %.3f,\n"
                 "        \"delta_checkpoints\": %llu, \"delta_checkpoint_bytes\": %llu,\n"
                 "        \"base_checkpoints\": %llu, \"base_checkpoint_bytes\": %llu},\n"
                 "       \"async_over_sync_scaled\": %.3f, \"results\": %llu}%s\n",
                 static_cast<long long>(tiered_intervals[k]), sw, ss,
                 off_scaled > 0.0 ? ss / off_scaled : 0.0,
                 static_cast<unsigned long long>(sync_last.delta_checkpoints),
                 static_cast<unsigned long long>(sync_last.delta_bytes),
                 static_cast<unsigned long long>(sync_last.base_checkpoints),
                 static_cast<unsigned long long>(sync_last.base_bytes), aw, as,
                 off_scaled > 0.0 ? as / off_scaled : 0.0,
                 static_cast<unsigned long long>(async_last.delta_checkpoints),
                 static_cast<unsigned long long>(async_last.delta_bytes),
                 static_cast<unsigned long long>(async_last.base_checkpoints),
                 static_cast<unsigned long long>(async_last.base_bytes),
                 ss > 0.0 ? as / ss : 0.0,
                 static_cast<unsigned long long>(async_last.results),
                 k + 1 < num_tiered ? "," : "");
    std::fprintf(stderr,
                 "[tiered interval=%lld] sync %.0f rec/s scaled (%.3f of unsupervised), "
                 "async-delta %.0f rec/s scaled (%.3f); results %llu vs %llu\n",
                 static_cast<long long>(tiered_intervals[k]), ss,
                 off_scaled > 0.0 ? ss / off_scaled : 0.0, as,
                 off_scaled > 0.0 ? as / off_scaled : 0.0,
                 static_cast<unsigned long long>(sync_last.results),
                 static_cast<unsigned long long>(async_last.results));
  }
  std::fprintf(f, "    ],\n");
  {
    const size_t budget = 128 * 1024;  // per joiner; window needs several x this
    std::vector<double> unl_wall, evict_wall, spill_wall;
    SpillMeasurement unl_last, evict_last, spill_last;
    for (int i = 0; i < runs; ++i) {
      unl_last = MeasureSpillOnce(BudgetMode::kUnlimited, budget);
      unl_wall.push_back(unl_last.wall_rps);
      evict_last = MeasureSpillOnce(BudgetMode::kEvict, budget);
      evict_wall.push_back(evict_last.wall_rps);
      spill_last = MeasureSpillOnce(BudgetMode::kSpill, budget);
      spill_wall.push_back(spill_last.wall_rps);
    }
    const double unl_results = static_cast<double>(unl_last.results);
    std::fprintf(f,
                 "    \"spill\": {\"window\": %zu, \"max_index_bytes\": %zu, "
                 "\"spill_watermark\": 0.5,\n"
                 "      \"unlimited\": {\"rec_per_s_wall\": %.1f, \"results\": %llu},\n"
                 "      \"evict\": {\"rec_per_s_wall\": %.1f, \"results\": %llu, "
                 "\"recall\": %.4f, \"budget_evictions\": %llu},\n"
                 "      \"spill\": {\"rec_per_s_wall\": %.1f, \"results\": %llu, "
                 "\"recall\": %.4f, \"spilled_bytes\": %llu, \"spill_reads\": %llu}\n"
                 "    }\n",
                 RecordsFor(DatasetPreset::kTweet) / 2, budget, Median(unl_wall),
                 static_cast<unsigned long long>(unl_last.results), Median(evict_wall),
                 static_cast<unsigned long long>(evict_last.results),
                 unl_results > 0.0 ? static_cast<double>(evict_last.results) / unl_results
                                   : 0.0,
                 static_cast<unsigned long long>(evict_last.evictions), Median(spill_wall),
                 static_cast<unsigned long long>(spill_last.results),
                 unl_results > 0.0 ? static_cast<double>(spill_last.results) / unl_results
                                   : 0.0,
                 static_cast<unsigned long long>(spill_last.spilled_bytes),
                 static_cast<unsigned long long>(spill_last.spill_reads));
    std::fprintf(stderr,
                 "[spill] unlimited %.0f rec/s (%llu results), evict %.0f rec/s "
                 "(recall %.4f, %llu evictions), spill %.0f rec/s (recall %.4f, "
                 "%llu spilled bytes, %llu reads)\n",
                 Median(unl_wall), static_cast<unsigned long long>(unl_last.results),
                 Median(evict_wall),
                 unl_results > 0.0 ? static_cast<double>(evict_last.results) / unl_results
                                   : 0.0,
                 static_cast<unsigned long long>(evict_last.evictions), Median(spill_wall),
                 unl_results > 0.0 ? static_cast<double>(spill_last.results) / unl_results
                                   : 0.0,
                 static_cast<unsigned long long>(spill_last.spilled_bytes),
                 static_cast<unsigned long long>(spill_last.spill_reads));
  }
  std::fprintf(f, "  },\n");

  // Core-count axis of the link fabric, two views (see the BM_Cores
  // comment block): "scaling" sweeps 1/2/4/8 joiners with as many ingest
  // lanes (prefix-based t=0.9 — balanced partitions, so the curve measures
  // scaling rather than skew), and "serial_dispatch" stresses the per-tuple
  // wake discipline with 8 joiners behind one dispatcher (length-based
  // t=0.8). Medians per config.
  std::fprintf(f, "  \"cores\": {\n");
  std::fprintf(f,
               "    \"preset\": \"tweet\", \"records\": %zu, \"batch_size\": 1,\n"
               "    \"pinned\": true,\n"
               "    \"scaling\": {\n"
               "      \"strategy\": \"prefix\", \"threshold_permille\": 900,\n"
               "      \"ingest_lanes\": \"equal_to_joiners\",\n"
               "      \"sweep\": [\n",
               RecordsFor(DatasetPreset::kTweet));
  const int joiner_counts[] = {1, 2, 4, 8};
  const size_t num_counts = sizeof(joiner_counts) / sizeof(joiner_counts[0]);
  double scaled_1 = 0.0;
  for (size_t k = 0; k < num_counts; ++k) {
    const int joiners = joiner_counts[k];
    std::vector<double> wall, scaled;
    uint64_t results = 0;
    for (int i = 0; i < runs; ++i) {
      const DistMeasurement r = MeasureCoresOnce(joiners);
      wall.push_back(r.wall_rps);
      scaled.push_back(r.scaled_rps);
      results = r.results;
    }
    const double rs = Median(scaled);
    if (joiners == 1) scaled_1 = rs;
    std::fprintf(f,
                 "        {\"joiners\": %d, \"rec_per_s_wall\": %.1f, "
                 "\"rec_per_s_scaled\": %.1f,\n"
                 "         \"results\": %llu, \"speedup_vs_1_joiner\": %.3f}%s\n",
                 joiners, Median(wall), rs, static_cast<unsigned long long>(results),
                 scaled_1 > 0.0 ? rs / scaled_1 : 0.0, k + 1 < num_counts ? "," : "");
    std::fprintf(stderr, "[cores scaling joiners=%d] %.0f rec/s scaled; results %llu\n",
                 joiners, rs, static_cast<unsigned long long>(results));
  }
  std::fprintf(f, "      ]\n    },\n");
  {
    std::vector<double> wall, scaled;
    uint64_t results = 0;
    for (int i = 0; i < runs; ++i) {
      const DistMeasurement r = MeasureSerialDispatchOnce();
      wall.push_back(r.wall_rps);
      scaled.push_back(r.scaled_rps);
      results = r.results;
    }
    std::fprintf(f,
                 "    \"serial_dispatch\": {\n"
                 "      \"strategy\": \"length\", \"threshold_permille\": 800, "
                 "\"joiners\": %d, \"dispatchers\": 1,\n"
                 "      \"rec_per_s_wall\": %.1f, \"rec_per_s_scaled\": %.1f, "
                 "\"results\": %llu\n"
                 "    }\n",
                 kJoiners, Median(wall), Median(scaled),
                 static_cast<unsigned long long>(results));
    std::fprintf(stderr, "[cores serial_dispatch joiners=%d] %.0f rec/s scaled\n", kJoiners,
                 Median(scaled));
  }
  std::fprintf(f, "  },\n");

  // Sharded ingestion front end (docs/INTERNALS.md §14): the serial_dispatch
  // configuration with the reader/router tier split into N partner lanes.
  // On this host wall clock cannot beat 1 lane (the sweep records the honest
  // number); rec_per_s_scaled divides the front-end work across lanes and is
  // the cluster-model speedup. Result counts must match across lanes — the
  // byte-identity proof lives in ingest_lanes_test.
  std::fprintf(f,
               "  \"front_end\": {\n"
               "    \"preset\": \"tweet\", \"records\": %zu,\n"
               "    \"strategy\": \"length\", \"threshold_permille\": 800, "
               "\"joiners\": %d,\n"
               "    \"batch_size\": 1, \"pinned\": true, \"host_cores\": %u,\n"
               "    \"sweep\": [\n",
               RecordsFor(DatasetPreset::kTweet), kJoiners,
               std::thread::hardware_concurrency());
  {
    const int lane_counts[] = {1, 2, 4, 8};
    const size_t num_lanes = sizeof(lane_counts) / sizeof(lane_counts[0]);
    double wall_1 = 0.0, scaled_1 = 0.0;
    uint64_t results_1 = 0;
    for (size_t k = 0; k < num_lanes; ++k) {
      std::vector<double> wall, scaled;
      FrontEndMeasurement last;
      for (int i = 0; i < runs; ++i) {
        last = MeasureFrontEndOnce(lane_counts[k]);
        wall.push_back(last.wall_rps);
        scaled.push_back(last.scaled_rps);
      }
      const double w = Median(wall), s = Median(scaled);
      if (lane_counts[k] == 1) {
        wall_1 = w;
        scaled_1 = s;
        results_1 = last.results;
      } else if (last.results != results_1) {
        std::fprintf(stderr,
                     "[front_end lanes=%d] RESULT MISMATCH: %llu vs %llu at 1 lane\n",
                     lane_counts[k], static_cast<unsigned long long>(last.results),
                     static_cast<unsigned long long>(results_1));
      }
      std::fprintf(f,
                   "      {\"lanes\": %d, \"rec_per_s_wall\": %.1f, "
                   "\"rec_per_s_scaled\": %.1f,\n"
                   "       \"results\": %llu, \"wall_speedup_vs_lanes_1\": %.3f, "
                   "\"scaled_speedup_vs_lanes_1\": %.3f,\n"
                   "       \"stages\": [",
                   lane_counts[k], w, s, static_cast<unsigned long long>(last.results),
                   wall_1 > 0.0 ? w / wall_1 : 0.0, scaled_1 > 0.0 ? s / scaled_1 : 0.0);
      for (size_t j = 0; j < last.stage_times.size(); ++j) {
        const DistributedJoinResult::StageTime& st = last.stage_times[j];
        std::fprintf(f,
                     "\n         {\"component\": \"%s\", \"tasks\": %d, "
                     "\"busy_ms\": %.1f, \"idle_ms\": %.1f, \"blocked_ms\": %.1f}%s",
                     st.component.c_str(), st.tasks, st.busy_micros / 1000.0,
                     st.idle_micros / 1000.0, st.blocked_micros / 1000.0,
                     j + 1 < last.stage_times.size() ? "," : "");
      }
      std::fprintf(f, "]}%s\n", k + 1 < num_lanes ? "," : "");
      std::fprintf(stderr,
                   "[front_end lanes=%d] %.0f rec/s wall (%.2fx), %.0f rec/s scaled "
                   "(%.2fx); results %llu\n",
                   lane_counts[k], w, wall_1 > 0.0 ? w / wall_1 : 0.0, s,
                   scaled_1 > 0.0 ? s / scaled_1 : 0.0,
                   static_cast<unsigned long long>(last.results));
      if (lane_counts[k] == 1 || lane_counts[k] == 4) {
        const std::string label = "lanes=" + std::to_string(lane_counts[k]);
        PrintStageTable(label.c_str(), last.stage_times);
      }
    }
    std::fprintf(f, "    ],\n");
  }
  {
    const CorpusLoadMeasurement c = MeasureCorpusLoad();
    std::fprintf(f,
                 "    \"sharded_corpus_load\": {\"lines\": %zu, \"bytes\": %zu, "
                 "\"serial_ms\": %.1f, \"lanes4_ms\": %.1f, "
                 "\"wall_speedup\": %.3f}\n  },\n",
                 c.lines, c.bytes, c.serial_ms, c.sharded_ms,
                 c.sharded_ms > 0.0 ? c.serial_ms / c.sharded_ms : 0.0);
    std::fprintf(stderr,
                 "[front_end corpus_load] serial %.1f ms, 4 lanes %.1f ms (%.2fx) "
                 "over %zu lines\n",
                 c.serial_ms, c.sharded_ms,
                 c.sharded_ms > 0.0 ? c.serial_ms / c.sharded_ms : 0.0, c.lines);
  }

  // Offered-load sweep: arrival rate as a multiple of the measured
  // unthrottled capacity, with and without probe shedding (overload model,
  // docs/INTERNALS.md §8). p99 is end-to-end per-record latency of the
  // probes that ran; recall is results relative to the unthrottled shed-free
  // run — shedding loses exactly the shed probes' pairs, so the recall gap
  // is the quantified price of the latency bound.
  std::fprintf(f, "  \"offered_load\": {\n");
  {
    const size_t n = 12000;
    const auto& stream = CachedStream(DatasetPreset::kTweet, n);
    const LengthPartition partition =
        PlanLengthPartition(stream, BaseJoinOptions(800, kJoiners).sim, kJoiners,
                            PartitionMethod::kLoadAwareGreedy);
    const LoadMeasurement capacity =
        MeasureOfferedLoadOnce(stream, partition, 0.0, stream::ShedPolicy::kNone);
    std::fprintf(f,
                 "    \"preset\": \"tweet\", \"records\": %zu, \"queue_capacity\": 512,\n"
                 "    \"shed_watermark\": 0.75, \"capacity_rec_per_s\": %.1f,\n"
                 "    \"sweep\": [\n",
                 n, capacity.wall_rps);
    const double factors[] = {0.5, 1.0, 2.0};
    const size_t num_factors = sizeof(factors) / sizeof(factors[0]);
    for (size_t k = 0; k < num_factors; ++k) {
      for (int sh = 0; sh < 2; ++sh) {
        const stream::ShedPolicy policy =
            sh == 1 ? stream::ShedPolicy::kProbe : stream::ShedPolicy::kNone;
        const double rate = factors[k] * capacity.wall_rps;
        const LoadMeasurement m =
            MeasureOfferedLoadOnce(stream, partition, rate, policy);
        const double recall =
            capacity.results > 0
                ? static_cast<double>(m.results) / static_cast<double>(capacity.results)
                : 0.0;
        std::fprintf(f,
                     "      {\"offered_x_capacity\": %.1f, \"shed_policy\": \"%s\",\n"
                     "       \"offered_rec_per_s\": %.1f, \"achieved_rec_per_s\": %.1f,\n"
                     "       \"p99_us\": %llu, \"recall\": %.4f, \"shed_probes\": %llu}%s\n",
                     factors[k], stream::ShedPolicyName(policy), rate, m.wall_rps,
                     static_cast<unsigned long long>(m.p99_us), recall,
                     static_cast<unsigned long long>(m.shed_probes),
                     (k + 1 == num_factors && sh == 1) ? "" : ",");
        std::fprintf(stderr,
                     "[offered_load %.1fx %s] achieved %.0f rec/s, p99=%llu us, "
                     "recall=%.4f, shed=%llu\n",
                     factors[k], stream::ShedPolicyName(policy), m.wall_rps,
                     static_cast<unsigned long long>(m.p99_us), recall,
                     static_cast<unsigned long long>(m.shed_probes));
      }
    }
    std::fprintf(f, "    ]\n  }\n}\n");
  }
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace dssj::bench

int main(int argc, char** argv) {
  std::string json_path;
  int runs = 3;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--emit_json=", 12) == 0) {
      json_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--runs=", 7) == 0) {
      runs = std::atoi(argv[i] + 7);
      if (runs < 1) runs = 1;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return dssj::bench::EmitJson(json_path, runs);
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
