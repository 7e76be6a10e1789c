#ifndef DSSJ_CORE_JOIN_TOPOLOGY_H_
#define DSSJ_CORE_JOIN_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/adaptive_router.h"
#include "core/bundle_joiner.h"
#include "core/local_joiner.h"
#include "core/partition.h"
#include "core/record_joiner.h"
#include "core/router.h"
#include "core/similarity.h"
#include "core/window.h"
#include "net/wire.h"
#include "store/options.h"
#include "stream/fault.h"
#include "stream/metrics.h"
#include "stream/overload.h"
#include "text/record.h"

namespace dssj {

/// Which distribution strategy the dispatcher tier uses (DESIGN.md §1).
/// kReplicated is the store-everywhere/probe-local mirror of kBroadcast.
enum class DistributionStrategy { kLengthBased, kPrefixBased, kBroadcast, kReplicated };
const char* DistributionStrategyName(DistributionStrategy s);

/// Which local join algorithm each joiner partition runs.
enum class LocalAlgorithm { kRecord, kBundle, kBruteForce };
const char* LocalAlgorithmName(LocalAlgorithm a);

/// How the topology's workers map onto the machine (docs/INTERNALS.md §9).
/// kInproc: the classic single-process run — worker placement is a
/// simulation, tuples move on in-process queues. kLoopback: still one
/// process, but every cross-worker tuple is wire-encoded and re-parsed
/// (measures serialization/framing cost; results identical to kInproc).
/// kTcp: real multi-process execution — each rank in `cluster` hosts its
/// workers' tasks and cross-worker links run over localhost/LAN TCP.
enum class JoinTransport { kInproc, kLoopback, kTcp };
const char* JoinTransportName(JoinTransport t);

/// Payload codec for Record payloads crossing process boundaries
/// (EncodeRecordDelta/DecodeRecordDelta). When the transport supplies a
/// frame arena, decoding is zero-copy: records and their token arrays live
/// in arena storage and are handed out as aliasing shared_ptrs pinning the
/// arena. Shared by the join topology and the transport tests.
net::PayloadCodec RecordWireCodec();

/// How to derive the length partition for the length-based strategy.
/// kLoadAwareFull uses the JoinCostModel (pair work + probe-visit
/// overhead); the plain kLoadAware variants balance pair work only.
enum class PartitionMethod {
  kLoadAwareGreedy,
  kLoadAwareDP,
  kLoadAwareFull,
  kUniform,
  kEqualFrequency,
};
const char* PartitionMethodName(PartitionMethod m);

/// Computes a k-way length partition from a sample of the stream using
/// `method` (the load-aware variants minimize the estimated bottleneck join
/// cost, see ComputePerLengthLoad).
LengthPartition PlanLengthPartition(const std::vector<RecordPtr>& sample,
                                    const SimilaritySpec& sim, int k, PartitionMethod method);

/// Full configuration of a distributed streaming join run.
struct DistributedJoinOptions {
  SimilaritySpec sim{SimilarityFunction::kJaccard, 800};
  WindowSpec window = WindowSpec::Unbounded();

  DistributionStrategy strategy = DistributionStrategy::kLengthBased;
  LocalAlgorithm local = LocalAlgorithm::kRecord;

  int num_joiners = 4;

  /// Sharded ingestion front end (docs/INTERNALS.md §14) — the only way to
  /// run more than one dispatcher. With N > 1 the source and dispatcher
  /// tiers each run N partner lanes: source lane i replays the records at
  /// input indices ≡ i (mod N) and feeds its own dispatcher instance
  /// one-to-one. Joiners merge the lane streams back into global sequence
  /// order before processing, so the emission rule still sees one logical
  /// dispatcher and results stay byte-identical to ingest_lanes=1.
  /// Requires a stateless routing strategy (length/prefix) and strictly
  /// increasing record seqs in the input. Adaptive routing works (lanes
  /// share one published epoch list) but replan timing becomes
  /// interleaving-dependent, so adaptive runs are excluded from the
  /// byte-identical guarantee.
  int ingest_lanes = 1;

  /// Length partition for kLengthBased (from PlanLengthPartition). Ignored
  /// by the other strategies. Empty = uniform fallback over [1, 256].
  LengthPartition length_partition;

  /// Epoch-based adaptive routing for kLengthBased (see
  /// AdaptiveLengthRouter): the dispatcher monitors drift and replans
  /// without state migration. The router's window span is taken from
  /// `window` when it is a time window.
  bool adaptive = false;
  AdaptiveRouterOptions adaptive_options;

  /// Local-algorithm tuning.
  BundleJoinerOptions bundle;

  /// Collect every result pair (tests, small runs) or only count them
  /// (throughput benches).
  bool collect_results = true;

  /// Per-task inbound queue capacity (backpressure bound).
  size_t queue_capacity = 4096;

  /// Pins executor threads round-robin across cores (see
  /// TopologyBuilder::SetPinThreads). Benchmarks only.
  bool pin_threads = false;

  /// Tuple-transport batch size (see TopologyBuilder::SetBatchSize): tuples
  /// are moved between tasks in groups of up to this many under one lock
  /// and one wakeup. 1 restores strict per-tuple transport. Batching never
  /// reorders a (producer task → consumer task) link, so the seq-order
  /// exactly-once rule is unaffected; the result set is identical for every
  /// batch size.
  size_t batch_size = 32;

  /// Simulated workers for communication accounting; 0 = num_joiners.
  /// Ignored under kTcp, where the worker count is the cluster size.
  int num_workers = 0;

  /// Execution substrate (see JoinTransport). Under kLoopback and kTcp the
  /// run pins placement deterministically: source, dispatchers, and sink on
  /// worker 0, joiner i on worker i % num_workers — so every rank builds
  /// the identical plan and the coordinator owns the result set.
  JoinTransport transport = JoinTransport::kInproc;
  /// This process's rank for kTcp (0 = coordinator; collects results and
  /// cluster-wide metrics). Every rank must run RunDistributedJoin with the
  /// same options (and the same input on rank 0 — other ranks never read
  /// it) differing only in `rank`.
  int rank = 0;
  /// Rank-ordered "host:port,host:port,..." list for kTcp.
  std::string cluster;
  /// Optional bind override for this rank ("0.0.0.0:port"); default is
  /// cluster[rank].
  std::string listen;
  /// How long TCP connect retries cover workers starting out of order.
  int64_t net_connect_timeout_micros = 30'000'000;
  /// Inert: nothing reads it, since every frame uses the one tuple coding.
  /// perfbench/workloads.cc still sets it (see net::WireCodec).
  net::WireCodec wire_codec = net::WireCodec::kDelta;
  /// Frame-arena recycling bound for the zero-copy receive path (0 = free
  /// every arena immediately; used by borrow-lifetime tests under ASan).
  size_t net_arena_pool = 8;

  /// Source pacing in records/second; 0 = replay as fast as possible.
  double arrival_rate_per_sec = 0.0;

  /// Simulated ser/deser CPU cost per byte crossing workers (charged to
  /// both endpoints' busy time; affects scaled_throughput_rps, not wall
  /// clock). 0 = inter-worker messages cost nothing beyond the Execute
  /// work, as within one process. Storm-like stacks sit around 1-5 ns/byte.
  double remote_byte_cost_ns = 0.0;

  /// Fault tolerance. `supervise` turns executors into supervisors (see
  /// TopologyBuilder::SetSupervision): task crashes are recovered from the
  /// last checkpoint with exactly-once replay. `supervision` carries the
  /// restart budget, backoff, and checkpoint interval (in tuples executed /
  /// emitted per task; 0 disables periodic checkpoints and recovery replays
  /// from the start of the stream).
  bool supervise = false;
  stream::SupervisorOptions supervision;

  /// Deterministic fault schedule (FaultScript DSL, e.g.
  /// "kill:joiner:0@500; drop:dispatcher:0->joiner:1@100"); empty = none.
  /// A non-empty script implies `supervise`. Parse or resolution errors
  /// abort RunDistributedJoin; CheckFaultScript reports them first.
  std::string fault_script;

  /// Overload control (docs/INTERNALS.md §8). With a policy other than
  /// kNone, a joiner whose inbound queue crosses `shed_watermark` (fraction
  /// of queue_capacity) sheds the *probe* side of incoming tuples — stores
  /// always land, so index/window state is identical to an unshed run and
  /// the recall loss is exactly the shed probes' pairs (counted in
  /// shed_probes / shed_probe_seqs).
  stream::ShedPolicy shed_policy = stream::ShedPolicy::kNone;
  double shed_watermark = 0.75;

  /// Stall watchdog: when > 0, a monitor thread fails the run with a
  /// per-task dump if the topology stops progressing or a queued tuple sits
  /// undelivered for this long.
  int64_t stall_timeout_micros = 0;

  /// Per-joiner memory budget in approximate bytes (0 = unlimited),
  /// forwarded to RecordJoinerOptions / BundleJoinerOptions
  /// max_index_bytes. Ignored by the brute-force joiner.
  size_t max_index_bytes = 0;

  /// Checkpoint pipeline and tiered state store (docs/INTERNALS.md §13).
  /// Supervised tasks checkpoint every supervision.checkpoint_interval
  /// tuples: the task thread freezes a view, the checkpoint thread encodes
  /// it into the task's base + delta chain (a full base every
  /// delta_base_interval-th checkpoint, deltas between). The chain lives
  /// in memory, or on disk under store_dir/task_<id>/ when store_dir is
  /// set (requires `supervise`); joiners with a spill_watermark > 0 then
  /// also overflow cold window state to
  /// store_dir/spill_<component>_p<partition>/ instead of budget-evicting
  /// it. kSync makes each task wait until its checkpoint is durable;
  /// kAsync lets it run on.
  std::string store_dir;
  store::CheckpointMode checkpoint_mode = store::CheckpointMode::kAsync;
  uint32_t delta_base_interval = 8;
  /// Fraction of max_index_bytes at which the record joiner starts
  /// spilling cold records to disk rather than evicting them (<= 0 keeps
  /// PR 3 eviction; needs store_dir and max_index_bytes).
  double spill_watermark = 0.0;
  /// Spill segment rotation size (per joiner task).
  size_t store_segment_bytes = 4u << 20;

  /// Elastic worker scaling (docs/INTERNALS.md §12). Enables live task
  /// migration (Topology::MigrateTask plus the kill_worker/migrate fault
  /// verbs) and starts a controller thread that samples per-joiner load
  /// every `elastic_interval_micros` and migrates joiner tasks: growing the
  /// active worker set when total load nears its observed peak, shrinking
  /// it when load collapses, and rebalancing whenever the bottleneck worker
  /// carries more than (1 + migrate_threshold) x the mean (see
  /// PlanWorkerMigrations). Results stay byte-identical to a static run —
  /// migration freezes each task at an exact sequence boundary. Implies
  /// `supervise`. Under kTcp only rank 0 runs the controller.
  bool elastic = false;
  /// Load-imbalance trigger for elastic rebalancing (fraction above mean).
  double migrate_threshold = 0.5;
  /// Elastic controller sampling period.
  int64_t elastic_interval_micros = 20'000;
  /// Initial active workers for elastic runs: joiners start packed onto
  /// this many workers (0 = all), and the controller spreads or packs
  /// between 1 and num_workers at runtime. Ignored unless `elastic`.
  int elastic_initial_workers = 0;
};

/// Latency percentiles of per-record end-to-end processing (source emit →
/// joiner finished probing), microseconds.
struct LatencySummary {
  uint64_t count = 0;
  double mean_us = 0.0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  uint64_t max_us = 0;
};

/// Everything a run produces: results (or their count), timing, and the
/// communication/load metrics the paper's evaluation reports.
///
/// The base holds every task counter (stream/metrics.h) merged over all of
/// the run's tasks: result_count, stores, remote_messages/bytes, busy
/// times, checkpoint, spill, shed, budget-eviction and migration counters.
/// Under JoinTransport::kTcp the coordinator (rank 0) reports those
/// cluster-wide, as it does everything derived from them, and owns `pairs`
/// (the sink is placed on worker 0). Only `joiner_stats`, `latency` and
/// `shed_probe_seqs` are process-local and cover just the joiners this
/// rank hosts. Worker ranks (> 0) report their local view; use ok /
/// failure_message there.
///
/// `shed_probes` counts probe sides dropped under pressure; every shed
/// record is still stored, so `pairs` misses exactly the oracle pairs whose
/// probe seq appears in `shed_probe_seqs`. `shed_pairs_upper_bound` sums
/// StoredCount at each shed — a cheap overestimate of lost pairs.
/// `budget_evictions` and `eviction_horizon_seq` total the joiners' memory
/// budget evictions (see JoinerStats).
struct DistributedJoinResult : stream::CounterTotals {
  std::vector<ResultPair> pairs;  ///< filled iff options.collect_results

  uint64_t input_records = 0;
  double elapsed_seconds = 0.0;
  double throughput_rps = 0.0;  ///< input_records / elapsed (wall clock)

  /// Cluster-model throughput: input_records divided by the busiest task's
  /// processing time (the pipeline's critical path if every task had its
  /// own core). On a single-core host this — not wall clock — carries the
  /// paper's scalability shape; see EXPERIMENTS.md.
  double scaled_throughput_rps = 0.0;
  uint64_t bottleneck_busy_micros = 0;  ///< max busy time over all tasks

  /// Dispatch communication (dispatcher tier → joiner tier).
  uint64_t dispatch_messages = 0;
  uint64_t dispatch_bytes = 0;

  /// `stores` / input records: 1.0 means no replication.
  double replication_factor = 0.0;

  LatencySummary latency;

  /// Per-joiner-partition detail (index = partition).
  std::vector<JoinerStats> joiner_stats;
  std::vector<uint64_t> joiner_busy_micros;

  /// Per-stage pipeline breakdown (source, dispatcher, joiner, sink): CPU
  /// busy time, executor wall time starved on an empty inbound queue, and
  /// collector wall time pushing downstream (includes backpressure). Sums
  /// over the stage's tasks; micros.
  struct StageTime {
    std::string component;
    int tasks = 0;
    uint64_t busy_micros = 0;
    uint64_t idle_micros = 0;
    uint64_t blocked_micros = 0;
  };
  std::vector<StageTime> stage_times;

  /// Adaptive routing introspection (0 unless options.adaptive).
  uint64_t router_replans = 0;
  uint64_t router_live_epochs = 0;

  /// False when the run failed (failure_message says why); the result set
  /// is then incomplete.
  bool ok = true;
  std::string failure_message;

  /// Shed probes as (probe seq, joiner partition), filled iff
  /// collect_results (empty unless options enable a shed policy).
  std::vector<std::pair<uint64_t, int>> shed_probe_seqs;
};

/// Parses `options.fault_script` and resolves it against the topology
/// RunDistributedJoin builds for `options` (stream::ResolveFaultScript):
/// InvalidArgument naming the statement where the run would abort, or the
/// cluster spec's error under kTcp. Requires num_joiners >= 1.
Status CheckFaultScript(const DistributedJoinOptions& options);

/// Runs the distributed streaming join over `input` (replayed in order as a
/// stream) and blocks until completion.
DistributedJoinResult RunDistributedJoin(const std::vector<RecordPtr>& input,
                                         const DistributedJoinOptions& options);

/// Single-threaded reference: feeds `input` through one local joiner
/// (store+probe) and returns all pairs. Oracle for the distributed runs.
std::vector<ResultPair> SingleNodeJoin(const std::vector<RecordPtr>& input,
                                       LocalJoiner& joiner);

/// Constructs the configured local joiner (used by the joiner bolts and by
/// examples/tests that want a standalone joiner).
std::unique_ptr<LocalJoiner> MakeLocalJoiner(const DistributedJoinOptions& options,
                                             int partition);

/// Constructs the configured router (one per dispatcher task). For
/// adaptive routing across sharded dispatcher lanes, pass the run's shared
/// AdaptiveRouterState so every lane routes against one coherent epoch
/// list; with the default null state the router builds its own (one lane).
std::unique_ptr<Router> MakeRouter(const DistributedJoinOptions& options,
                                   std::shared_ptr<AdaptiveRouterState> adaptive_state = nullptr);

}  // namespace dssj

#endif  // DSSJ_CORE_JOIN_TOPOLOGY_H_
