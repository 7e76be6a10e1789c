#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/local_joiner.h"
#include "core/router.h"
#include "core/verify.h"
#include "json.h"
#include "net/wire.h"
#include "store/spill.h"
#include "store/state_store.h"
#include "stream/ring_queue.h"

namespace dssj::perfbench {
namespace {

// The spill probe replays at most this many records (the tweet_spill
// workload's whole input) under tweet_spill's budget.
constexpr size_t kSpillProbeRecords = 20'000;
constexpr size_t kSpillBudgetBytes = 131072;
constexpr double kSpillWatermark = 0.5;
constexpr size_t kMaxSpillReads = 2000;

// The hop probes move the workload's routed tuple volume, clamped so tiny
// and huge workloads both give a stable per-tuple figure.
constexpr size_t kMinHopTuples = 200'000;
constexpr size_t kMaxHopTuples = 1'000'000;
// The wake probe pushes one tuple every 5 us, tweet_paced's 200k rec/s.
constexpr size_t kWakeTuples = 20'000;
constexpr int64_t kWakeSpacingNs = 5'000;

constexpr size_t kNetBatch = 32;
constexpr size_t kNetChunkBatches = 1024;

/// One routed delivery: the record's index in the stream and its sides.
struct Op {
  uint32_t record;
  bool store;
  bool probe;
};
using PartitionOps = std::vector<std::vector<Op>>;

/// Routes the whole stream the way the dispatcher tier does. Every joiner
/// consumes its deliveries in stream order (one dispatcher, or ingest lanes
/// merged back by seq), so each partition's list is its exact input.
PartitionOps RouteAll(const Setup& s) {
  std::unique_ptr<Router> router = MakeRouter(s.options);
  PartitionOps ops(static_cast<size_t>(s.options.num_joiners));
  std::vector<RouteTarget> targets;
  for (size_t i = 0; i < s.stream.size(); ++i) {
    router->Route(*s.stream[i], targets);
    for (const RouteTarget& t : targets) {
      ops[static_cast<size_t>(t.partition)].push_back(
          Op{static_cast<uint32_t>(i), t.store, t.probe});
    }
  }
  return ops;
}

/// core.route: MakeRouter(...)->Route over the stream, nothing else timed.
void ProbeRoute(const Setup& s, Tracer* tracer) {
  std::unique_ptr<Router> router = MakeRouter(s.options);
  std::vector<RouteTarget> targets;
  ScopedSpan span(tracer, "core.route");
  for (const RecordPtr& r : s.stream) router->Route(*r, targets);
}

struct ReplayConfig {
  const char* span = "";  ///< partition spans are named <span>.p<i>
  DistributedJoinOptions options;
  std::string spill_root;       ///< attach a spill store per partition when set
  std::string checkpoint_root;  ///< checkpoint every kCheckpointInterval ops when set
  size_t limit = SIZE_MAX;      ///< replay only records with a smaller index
};

struct ReplayStats {
  double max_partition_s = 0.0;  ///< partition self time (checkpoints excluded)
  double sum_s = 0.0;
  JoinerStats stats;  ///< summed over partitions (counters used below)
  uint64_t results = 0;  ///< after the exactly-once rule
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
};

/// One checkpoint the way the async store path takes it: freeze on the
/// task thread, encode the frozen view, write it to the task's chain.
void Checkpoint(LocalJoiner& joiner, store::StateStore& chain, uint64_t epoch,
                uint32_t base_interval, Tracer* tracer, ReplayStats* out) {
  store::FrozenBlob blob;
  {
    ScopedSpan span(tracer, "store.checkpoint.freeze");
    blob = (epoch - 1) % base_interval == 0 ? joiner.FreezeBase() : joiner.FreezeDelta();
  }
  std::string payload;
  {
    ScopedSpan span(tracer, "store.checkpoint.encode");
    blob.encode(&payload);
  }
  {
    ScopedSpan span(tracer, "store.checkpoint.write");
    const Status st =
        blob.is_delta ? chain.WriteDelta(epoch, payload) : chain.WriteBase(epoch, payload);
    CHECK(st.ok()) << st.ToString();
  }
  ++out->checkpoints;
  out->checkpoint_bytes += payload.size();
}

void AddStats(const JoinerStats& s, JoinerStats* total) {
  total->candidates += s.candidates;
  total->results += s.results;
  total->spill_reads += s.spill_reads;
}

/// Replays each partition's deliveries through MakeLocalJoiner on this
/// thread, one partition after another, under a span per partition.
ReplayStats Replay(const Setup& s, const PartitionOps& ops, const ReplayConfig& cfg,
                   Tracer* tracer) {
  ReplayStats out;
  for (size_t p = 0; p < ops.size(); ++p) {
    std::unique_ptr<LocalJoiner> joiner = MakeLocalJoiner(cfg.options, static_cast<int>(p));
    std::unique_ptr<store::SpillStore> spill;
    if (!cfg.spill_root.empty() && joiner->SupportsSpill()) {
      const Status st = store::SpillStore::Open(
          cfg.spill_root + "/p" + std::to_string(p), cfg.options.store_segment_bytes,
          store::SpillStore::GcPolicy::kDeferred, &spill);
      CHECK(st.ok()) << st.ToString();
      const double budget = static_cast<double>(cfg.options.max_index_bytes);
      joiner->AttachSpillStore(spill.get(),
                               static_cast<size_t>(cfg.options.spill_watermark * budget));
    }
    std::optional<store::StateStore> chain;
    if (!cfg.checkpoint_root.empty()) {
      chain.emplace(cfg.checkpoint_root + "/p" + std::to_string(p));
    }
    uint64_t results = 0;
    const ResultCallback count = [&results](const ResultPair& pair) {
      if (pair.partner_seq < pair.probe_seq) ++results;
    };
    const int id = tracer->Begin(std::string(cfg.span) + ".p" + std::to_string(p));
    size_t since_checkpoint = 0;
    uint64_t epoch = 0;
    for (const Op& op : ops[p]) {
      if (op.record >= cfg.limit) break;  // deliveries are in stream order
      joiner->Process(s.stream[op.record], op.store, op.probe, count);
      if (chain && ++since_checkpoint == kCheckpointInterval) {
        since_checkpoint = 0;
        Checkpoint(*joiner, *chain, ++epoch, cfg.options.delta_base_interval, tracer, &out);
      }
    }
    tracer->End(id);
    const double self = tracer->SelfSeconds()[static_cast<size_t>(id)];
    out.max_partition_s = std::max(out.max_partition_s, self);
    out.sum_s += self;
    out.results += results;
    AddStats(joiner->stats(), &out.stats);
  }
  return out;
}

struct NetStats {
  uint64_t tuples = 0;
  uint64_t bytes = 0;
};

/// Wire-encodes every routed delivery as the dispatcher→joiner link would
/// (delta codec, RecordWireCodec, 32 tuples per data frame), then parses
/// the frames back. Envelopes are built in chunks outside the spans.
NetStats ProbeNet(const Setup& s, const PartitionOps& ops, Tracer* tracer) {
  const net::PayloadCodec codec = RecordWireCodec();
  const int64_t emit_us = NowMicros();
  NetStats out;
  std::string frames;
  net::Frame frame;
  for (size_t p = 0; p < ops.size(); ++p) {
    const auto dst = static_cast<int32_t>(p + 1);
    uint64_t link_seq = 0;
    for (size_t begin = 0; begin < ops[p].size(); begin += kNetBatch * kNetChunkBatches) {
      const size_t end = std::min(ops[p].size(), begin + kNetBatch * kNetChunkBatches);
      std::vector<std::vector<stream::Envelope>> batches;
      for (size_t i = begin; i < end; i += kNetBatch) {
        std::vector<stream::Envelope>& batch = batches.emplace_back();
        for (size_t j = i; j < std::min(end, i + kNetBatch); ++j) {
          const Op& op = ops[p][j];
          const RecordPtr& r = s.stream[op.record];
          stream::Envelope env;
          env.tuple = stream::MakeTuple(std::shared_ptr<const void>(r),
                                        int64_t{(op.store ? 1 : 0) | (op.probe ? 2 : 0)},
                                        emit_us);
          env.tuple.set_payload_bytes(r->SerializedBytes());
          env.source_task = 0;
          env.link_seq = ++link_seq;
          batch.push_back(std::move(env));
        }
      }
      frames.clear();
      {
        ScopedSpan span(tracer, "net.encode");
        for (const auto& batch : batches) {
          net::AppendDataFrame(net::WireCodec::kDelta, 0, dst, batch, &codec, &frames);
        }
      }
      out.bytes += frames.size();
      uint64_t parsed = 0;
      {
        ScopedSpan span(tracer, "net.parse");
        size_t pos = 0;
        while (pos < frames.size()) {
          frame.Clear();
          size_t consumed = 0;
          std::string error;
          CHECK(net::ParseFrame(frames.data() + pos, frames.size() - pos, &codec,
                                net::kDefaultMaxFrameBytes, &frame, &consumed,
                                &error) == net::ParseStatus::kFrame)
              << error;
          pos += consumed;
          parsed += frame.envelopes.size();
        }
      }
      CHECK_EQ(parsed, end - begin);
      out.tuples += parsed;
    }
  }
  return out;
}

/// What the hop probes move: a record reference plus a stamp, the weight of
/// a routed tuple's payload pointer.
struct HopItem {
  RecordPtr record;
  int64_t stamp_ns = 0;
};

/// Two threads on one MakeQueue ring (SPSC or MPMC) moving `tuples` items
/// in batches of `batch`, under a span named `name`.
void ProbeHop(const std::vector<RecordPtr>& stream, bool spsc, size_t batch, size_t tuples,
              Tracer* tracer, const std::string& name) {
  auto queue = stream::MakeQueue<HopItem>(stream::QueueImpl::kRing, 4096, spsc);
  ScopedSpan span(tracer, name);
  std::thread consumer([&queue, batch, tuples] {
    std::vector<HopItem> out;
    size_t got = 0;
    while (got < tuples) {
      if (batch == 1) {
        queue->Pop();
        ++got;
      } else {
        out.clear();
        got += queue->PopBatch(&out, batch);
      }
    }
  });
  std::vector<HopItem> pending;
  for (size_t i = 0; i < tuples; ++i) {
    HopItem item{stream[i % stream.size()], 0};
    if (batch == 1) {
      queue->Push(std::move(item));
    } else {
      pending.push_back(std::move(item));
      if (pending.size() == batch || i + 1 == tuples) queue->PushBatch(&pending);
    }
  }
  consumer.join();
}

struct WakeStats {
  double wake_us = 0.0;
  double consumer_cpu_us_per_tuple = 0.0;
};

/// A consumer blocked in Pop() on an SPSC ring and a producer pushing one
/// tuple every 5 us: the trickle regime of the paced workload.
WakeStats ProbeWake(const std::vector<RecordPtr>& stream, Tracer* tracer) {
  auto queue = stream::MakeQueue<HopItem>(stream::QueueImpl::kRing, 4096, /*spsc_safe=*/true);
  std::vector<int64_t> latency_ns(kWakeTuples);
  int64_t consumer_cpu_ns = 0;
  ScopedSpan span(tracer, "stream.hop.wake");
  std::thread consumer([&] {
    const int64_t cpu0 = ThreadCpuNanos();
    for (size_t i = 0; i < kWakeTuples; ++i) {
      const HopItem item = queue->Pop();
      latency_ns[i] = SteadyNanos() - item.stamp_ns;
    }
    consumer_cpu_ns = ThreadCpuNanos() - cpu0;
  });
  const int64_t start = SteadyNanos();
  for (size_t i = 0; i < kWakeTuples; ++i) {
    const int64_t due = start + static_cast<int64_t>(i) * kWakeSpacingNs;
    while (SteadyNanos() < due) {
    }
    queue->Push(HopItem{stream[i % stream.size()], SteadyNanos()});
  }
  consumer.join();
  std::nth_element(latency_ns.begin(), latency_ns.begin() + kWakeTuples / 2, latency_ns.end());
  WakeStats out;
  out.wake_us = static_cast<double>(latency_ns[kWakeTuples / 2]) * 1e-3;
  out.consumer_cpu_us_per_tuple =
      static_cast<double>(consumer_cpu_ns) * 1e-3 / static_cast<double>(kWakeTuples);
  return out;
}

/// SpillStore::Read on handles to the workload's own records: the first
/// `limit` records are appended to a fresh store, then `reads` of them are
/// read back in a seeded random order.
void ProbeSpillRead(const Setup& s, size_t limit, uint64_t reads, uint64_t seed,
                    const std::string& tmp_root, Tracer* tracer) {
  TempDir dir(tmp_root, "spillread_");
  std::unique_ptr<store::SpillStore> spill;
  Status st = store::SpillStore::Open(dir.path(), s.options.store_segment_bytes,
                                      store::SpillStore::GcPolicy::kImmediate, &spill);
  CHECK(st.ok()) << st.ToString();
  std::vector<store::SpillHandle> handles(limit);
  std::string buf;
  for (size_t i = 0; i < limit; ++i) {
    buf.clear();
    EncodeRecord(*s.stream[i], &buf);
    st = spill->Append(buf, &handles[i]);
    CHECK(st.ok()) << st.ToString();
  }
  Rng rng(seed);
  std::vector<size_t> order(reads);
  for (size_t& i : order) i = rng.Uniform(limit);
  ScopedSpan span(tracer, "store.spill.read");
  std::string payload;
  for (const size_t i : order) {
    st = spill->Read(handles[i], &payload);
    CHECK(st.ok()) << st.ToString();
  }
}

bool SamePairs(std::vector<ResultPair> a, std::vector<ResultPair> b) {
  const auto key = [](const ResultPair& p) {
    return std::tie(p.probe_seq, p.partner_seq, p.probe_id, p.partner_id);
  };
  const auto less = [&key](const ResultPair& x, const ResultPair& y) {
    return key(x) < key(y);
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  return a == b;
}

double PerRecord(double v, size_t n) { return n == 0 ? 0.0 : v / static_cast<double>(n); }

}  // namespace

int RunTrace(const WorkloadSpec& spec, uint64_t seed, size_t records,
             const std::string& tmp_root, const std::string& spans_path) {
  Tracer tracer;
  Tracer* t = &tracer;
  JsonObject metrics;
  JsonObject layer_s;  // a layer's self time at the workload's own volume
  JsonObject checks;

  std::optional<ScopedSpan> phase;
  phase.emplace(t, "setup");
  Setup s = Prepare(spec, seed, records, t);
  phase.reset();
  const size_t n = s.stream.size();
  metrics.Num("workload.generate_s", s.generate_s).Num("core.partition.plan_s", s.plan_s);
  layer_s.Num("workload", s.generate_s).Num("core.partition", s.plan_s);

  // The timed oracle: one record joiner over the whole stream.
  std::vector<ResultPair> oracle;
  phase.emplace(t, "oracle");
  {
    std::unique_ptr<LocalJoiner> joiner = MakeOracleJoiner(s.options);
    ScopedSpan span(t, "core.single_thread");
    oracle = SingleNodeJoin(s.stream, *joiner);
  }
  metrics.Num("core.single_thread_rps",
              static_cast<double>(n) / tracer.TotalSeconds("core.single_thread"));
  phase.reset();

  // The traced run: collects every pair and compares the sorted sets.
  DistributedJoinResult run;
  phase.emplace(t, "run");
  {
    DistributedJoinOptions options = s.options;
    options.collect_results = true;
    std::unique_ptr<TempDir> store_dir;
    if (NeedsStoreDir(spec)) {
      store_dir = std::make_unique<TempDir>(tmp_root, "store_");
      options.store_dir = store_dir->path();
    }
    ScopedSpan span(t, "RunDistributedJoin");
    run = RunDistributedJoin(s.stream, options);
  }
  phase.reset();
  const bool pairs_match =
      run.ok && run.result_count == oracle.size() && SamePairs(run.pairs, oracle);
  checks.Int("oracle_pairs", oracle.size())
      .Int("run_pairs", run.result_count)
      .Bool("run_ok", run.ok)
      .Bool("pair_sets_equal", pairs_match);
  run.pairs.clear();
  run.pairs.shrink_to_fit();

  for (const char* stage : {"source", "dispatcher", "joiner", "sink"}) {
    const auto it = std::find_if(run.stage_times.begin(), run.stage_times.end(),
                                 [stage](const auto& st) { return st.component == stage; });
    const bool found = it != run.stage_times.end();
    const std::string base = std::string("stream.") + stage;
    metrics.Num(base + ".busy_s", found ? static_cast<double>(it->busy_micros) * 1e-6 : 0.0)
        .Num(base + ".idle_s", found ? static_cast<double>(it->idle_micros) * 1e-6 : 0.0)
        .Num(base + ".blocked_s", found ? static_cast<double>(it->blocked_micros) * 1e-6 : 0.0);
  }

  // core/router.
  phase.emplace(t, "probe.route");
  ProbeRoute(s, t);
  phase.reset();
  const double route_s = tracer.TotalSeconds("core.route");
  const PartitionOps ops = RouteAll(s);
  uint64_t deliveries = 0;
  for (const auto& p : ops) deliveries += p.size();
  metrics.Num("core.route.ns_per_record", PerRecord(route_s * 1e9, n))
      .Num("core.route.msgs_per_record",
           PerRecord(static_cast<double>(run.dispatch_messages), n));
  layer_s.Num("core.router", route_s);

  // core local joiners under the default block kernel, then the scalar one.
  std::unique_ptr<TempDir> replay_spill;
  ReplayConfig joiner_cfg;
  joiner_cfg.span = "core.joiner";
  joiner_cfg.options = s.options;
  if (spec.spill) {
    replay_spill = std::make_unique<TempDir>(tmp_root, "replay_");
    joiner_cfg.spill_root = replay_spill->path() + "/block";
  }
  phase.emplace(t, "probe.joiner");
  SetVerifyKernel(VerifyKernel::kBlock);
  const ReplayStats block = Replay(s, ops, joiner_cfg, t);
  phase.reset();
  ReplayConfig scalar_cfg = joiner_cfg;
  scalar_cfg.span = "core.verify.scalar";
  if (spec.spill) scalar_cfg.spill_root = replay_spill->path() + "/scalar";
  phase.emplace(t, "probe.verify");
  SetVerifyKernel(VerifyKernel::kScalar);
  const ReplayStats scalar = Replay(s, ops, scalar_cfg, t);
  SetVerifyKernel(VerifyKernel::kBlock);
  phase.reset();
  metrics.Num("core.joiner.max_partition_s", block.max_partition_s)
      .Num("core.joiner.sum_s", block.sum_s)
      .Int("core.joiner.candidates", block.stats.candidates)
      .Num("core.joiner.results_per_candidate",
           block.stats.candidates == 0 ? 0.0
                                       : static_cast<double>(block.stats.results) /
                                             static_cast<double>(block.stats.candidates))
      .Num("core.verify.block_s", block.sum_s)
      .Num("core.verify.scalar_s", scalar.sum_s);
  layer_s.Num("core.joiner", block.sum_s);
  checks.Bool("replay_pairs_equal",
              block.results == oracle.size() && scalar.results == oracle.size());

  // store checkpoints: the same replay, freezing every 1024 deliveries.
  ReplayConfig ckpt_cfg = joiner_cfg;
  ckpt_cfg.span = "core.joiner.checkpointed";
  TempDir ckpt_dir(tmp_root, "ckpt_");
  ckpt_cfg.checkpoint_root = ckpt_dir.path();
  if (spec.spill) ckpt_cfg.spill_root = replay_spill->path() + "/ckpt";
  phase.emplace(t, "probe.checkpoint");
  const ReplayStats ckpt = Replay(s, ops, ckpt_cfg, t);
  phase.reset();
  const auto per_ckpt_us = [&](const char* name) {
    return ckpt.checkpoints == 0
               ? 0.0
               : tracer.TotalSeconds(name) * 1e6 / static_cast<double>(ckpt.checkpoints);
  };
  const double freeze_us = per_ckpt_us("store.checkpoint.freeze");
  const double encode_us = per_ckpt_us("store.checkpoint.encode");
  const double write_us = per_ckpt_us("store.checkpoint.write");
  metrics.Num("store.checkpoint.freeze_us", freeze_us)
      .Num("store.checkpoint.encode_us", encode_us)
      .Num("store.checkpoint.write_us", write_us)
      .Num("store.checkpoint.bytes",
           ckpt.checkpoints == 0 ? 0.0
                                 : static_cast<double>(ckpt.checkpoint_bytes) /
                                       static_cast<double>(ckpt.checkpoints))
      .Int("store.checkpoint.count", run.checkpoints);
  // The probe checkpoints each joiner as often as the run does, so its own
  // checkpoint time is the workload's volume whenever the run checkpoints.
  layer_s.Num("store.checkpoint",
              run.checkpoints == 0 ? 0.0 : tracer.TotalSeconds("store.checkpoint."));

  // store spill: tweet_spill's budget on the first 20k records, with the
  // spill store attached and without any budget; then raw segment reads.
  const size_t spill_limit = std::min(n, kSpillProbeRecords);
  TempDir spill_dir(tmp_root, "spill_");
  ReplayConfig spill_cfg;
  spill_cfg.span = "store.spill.replay";
  spill_cfg.options = s.options;
  spill_cfg.options.local = LocalAlgorithm::kRecord;
  spill_cfg.options.max_index_bytes = kSpillBudgetBytes;
  spill_cfg.options.spill_watermark = kSpillWatermark;
  spill_cfg.spill_root = spill_dir.path();
  spill_cfg.limit = spill_limit;
  ReplayConfig memory_cfg = spill_cfg;
  memory_cfg.span = "store.spill.memory";
  memory_cfg.options.max_index_bytes = 0;
  memory_cfg.spill_root.clear();
  phase.emplace(t, "probe.spill");
  const ReplayStats with_spill = Replay(s, ops, spill_cfg, t);
  const ReplayStats in_memory = Replay(s, ops, memory_cfg, t);
  const uint64_t reads =
      std::clamp<uint64_t>(with_spill.stats.spill_reads, 1, kMaxSpillReads);
  ProbeSpillRead(s, spill_limit, reads, seed, tmp_root, t);
  phase.reset();
  const double read_us =
      tracer.TotalSeconds("store.spill.read") * 1e6 / static_cast<double>(reads);
  metrics.Int("store.spill.reads", run.spill_reads)
      .Int("store.spill.probe_reads", with_spill.stats.spill_reads)
      .Num("store.spill.read_us", read_us)
      .Num("store.spill.share", with_spill.sum_s > 0.0
                                    ? (with_spill.sum_s - in_memory.sum_s) / with_spill.sum_s
                                    : 0.0);
  layer_s.Num("store.spill", read_us * 1e-6 * static_cast<double>(run.spill_reads));
  checks.Bool("spill_replay_pairs_equal", with_spill.results == in_memory.results);

  // net: the workload's deliveries through the wire codec.
  phase.emplace(t, "probe.net");
  const NetStats wire = ProbeNet(s, ops, t);
  phase.reset();
  const double encode_ns = PerRecord(tracer.TotalSeconds("net.encode") * 1e9, wire.tuples);
  const double parse_ns = PerRecord(tracer.TotalSeconds("net.parse") * 1e9, wire.tuples);
  metrics.Num("net.encode_ns_per_tuple", encode_ns)
      .Num("net.parse_ns_per_tuple", parse_ns)
      .Num("net.bytes_per_record", PerRecord(static_cast<double>(wire.bytes), n))
      .Num("net.remote_bytes_per_record", PerRecord(static_cast<double>(run.remote_bytes), n));
  // Only a loopback or TCP run encodes; inproc links move pointers.
  const double encoded_tuples =
      s.options.transport == JoinTransport::kInproc ? 0.0
                                                    : static_cast<double>(run.remote_messages);
  layer_s.Num("net", (encode_ns + parse_ns) * 1e-9 * encoded_tuples);

  // stream: ring hops at the workload's delivery volume, and the wake path.
  const size_t hop_tuples = std::clamp<size_t>(deliveries, kMinHopTuples, kMaxHopTuples);
  phase.emplace(t, "probe.hop");
  ProbeHop(s.stream, true, 1, hop_tuples, t, "stream.hop.spsc.b1");
  ProbeHop(s.stream, true, 32, hop_tuples, t, "stream.hop.spsc.b32");
  ProbeHop(s.stream, false, 1, hop_tuples, t, "stream.hop.mpmc.b1");
  ProbeHop(s.stream, false, 32, hop_tuples, t, "stream.hop.mpmc.b32");
  const WakeStats wake = ProbeWake(s.stream, t);
  phase.reset();
  const auto hop_ns = [&](const char* name) {
    return PerRecord(tracer.TotalSeconds(name) * 1e9, hop_tuples);
  };
  const double b1 = hop_ns("stream.hop.spsc.b1");
  const double b32 = hop_ns("stream.hop.spsc.b32");
  const double mpmc_b1 = hop_ns("stream.hop.mpmc.b1");
  const double mpmc_b32 = hop_ns("stream.hop.mpmc.b32");
  metrics.Num("stream.hop.ns_per_tuple.b1", b1)
      .Num("stream.hop.ns_per_tuple.b32", b32)
      .Num("stream.hop.mpmc_ns_per_tuple.b1", mpmc_b1)
      .Num("stream.hop.mpmc_ns_per_tuple.b32", mpmc_b32)
      .Num("stream.hop.wake_us", wake.wake_us)
      .Num("stream.hop.cpu_us_per_tuple", wake.consumer_cpu_us_per_tuple);
  layer_s.Num("stream.hop",
              (s.options.ingest_lanes > 1 ? mpmc_b32 : b32) * 1e-9 *
                  static_cast<double>(run.dispatch_messages));

  bool nested = true;
  const std::vector<double> self = tracer.SelfSeconds();
  for (size_t i = 0; i < self.size(); ++i) {
    const int parent = tracer.spans()[i].parent;
    if (parent >= 0 && self[i] > tracer.spans()[static_cast<size_t>(parent)].seconds()) {
      nested = false;
    }
  }
  checks.Bool("spans_nested", nested).Bool("spans_written", tracer.WriteJson(spans_path));

  std::printf("%s\n", JsonObject()
                          .Int("records", n)
                          .Num("run_wall_s", tracer.TotalSeconds("RunDistributedJoin"))
                          .Obj("checks", checks)
                          .Obj("metrics", metrics)
                          .Obj("layer_s", layer_s)
                          .ToString()
                          .c_str());
  return 0;
}

}  // namespace dssj::perfbench
