#ifndef DSSJ_STREAM_TOPOLOGY_H_
#define DSSJ_STREAM_TOPOLOGY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/options.h"
#include "stream/channel.h"
#include "stream/component.h"
#include "stream/fault.h"
#include "stream/metrics.h"
#include "stream/overload.h"
#include "stream/value.h"

namespace dssj::stream {

/// How a bolt's tasks receive tuples from a producer component. Mirrors
/// the Apache Storm stream groupings the join topology declares.
enum class GroupingType {
  kShuffle,  ///< round-robin across consumer tasks
  kGlobal,   ///< all tuples go to consumer task 0
  kDirect,   ///< producer addresses tasks explicitly via EmitDirect
  kPartner,  ///< producer task i feeds consumer task i (parallelisms must match)
};

using SpoutFactory = std::function<std::unique_ptr<Spout>()>;
using BoltFactory = std::function<std::unique_ptr<Bolt>()>;

namespace internal_topology {
struct TopologyImpl;
struct ComponentSpec;
}  // namespace internal_topology

/// Fluent handle returned by TopologyBuilder::SetBolt for declaring input
/// subscriptions. At most one grouping per (producer, this bolt) pair.
class BoltDeclarer {
 public:
  BoltDeclarer& ShuffleGrouping(const std::string& source);
  BoltDeclarer& GlobalGrouping(const std::string& source);
  BoltDeclarer& DirectGrouping(const std::string& source);
  /// One-to-one lane wiring: producer task i delivers only to consumer task
  /// i. Build() rejects the edge unless both components have the same
  /// parallelism. Used by the sharded ingestion front end, where each
  /// source lane owns a partner dispatcher lane.
  BoltDeclarer& PartnerGrouping(const std::string& source);

  /// Pins this component's tasks to explicit workers (one entry per task).
  BoltDeclarer& SetPlacement(std::vector<int> workers);

 private:
  friend class TopologyBuilder;
  BoltDeclarer(internal_topology::ComponentSpec* spec) : spec_(spec) {}
  internal_topology::ComponentSpec* spec_;
};

/// Fluent handle returned by TopologyBuilder::SetSpout.
class SpoutDeclarer {
 public:
  /// Pins this component's tasks to explicit workers (one entry per task).
  SpoutDeclarer& SetPlacement(std::vector<int> workers);

 private:
  friend class TopologyBuilder;
  SpoutDeclarer(internal_topology::ComponentSpec* spec) : spec_(spec) {}
  internal_topology::ComponentSpec* spec_;
};

/// A built, runnable dataflow. Obtain from TopologyBuilder::Build. A
/// topology can be run exactly once.
class Topology {
 public:
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Starts all executor threads. Call once.
  void Submit();
  /// Blocks until every task has processed end-of-stream and exited.
  void Wait();
  /// Submit() + Wait().
  void Run();

  /// Wall-clock seconds from Submit to the last task finishing. Valid after
  /// Wait(); while running, returns elapsed-so-far.
  double ElapsedSeconds() const;

  /// Metric views. Safe to call during and after the run.
  std::vector<TaskStats> AllTasks() const;
  std::vector<TaskStats> TasksOf(const std::string& component) const;

  /// Number of simulated workers tasks were placed on.
  int num_workers() const;

  /// Live-migrates one bolt task to `target_worker` while the topology runs
  /// (docs/INTERNALS.md §12). Requires SetElastic; blocks until the handoff
  /// completes. The task is frozen at an exact per-link sequence boundary,
  /// its state (bolt snapshot, progress counters, emission cursors) is
  /// serialized, verified, and restored into a fresh incarnation on the
  /// target worker, and routing flips while every producer into the task is
  /// quiesced — so the result stream is byte-identical to an unmigrated
  /// run. Migrating to the task's current worker is a no-op success.
  /// Serialized internally: concurrent calls run one at a time.
  ///
  /// With a real (TCP) transport, only the coordinator (rank 0) may call
  /// this, and every producer feeding the task must be hosted on rank 0
  /// (the distributed join's pinned placement guarantees that). Bolts
  /// without snapshot support migrate with fresh (empty) state — only
  /// migrate them when that is acceptable.
  Status MigrateTask(const std::string& component, int task_index, int target_worker);

  /// Current worker of one task (reflects completed migrations).
  int TaskWorker(const std::string& component, int task_index) const;

  /// False once any supervised task exhausted its restart budget (the run's
  /// results are then incomplete). Valid during and after the run; always
  /// true for unsupervised topologies.
  bool ok() const;
  /// Human-readable reason for ok() == false ("" while ok).
  std::string failure_message() const;

 private:
  friend class TopologyBuilder;
  explicit Topology(std::unique_ptr<internal_topology::TopologyImpl> impl);
  std::unique_ptr<internal_topology::TopologyImpl> impl_;
};

/// Declarative construction of a topology: components with parallelism and
/// factories, subscriptions with groupings, worker count, queue capacity.
/// Configuration errors abort via CHECK (they are programming errors).
class TopologyBuilder {
 public:
  TopologyBuilder();
  ~TopologyBuilder();

  /// Adds a spout component. The factory is invoked once per task at
  /// Build().
  SpoutDeclarer SetSpout(const std::string& name, SpoutFactory factory, int parallelism = 1);

  /// Adds a bolt component. Declare its inputs on the returned declarer.
  BoltDeclarer SetBolt(const std::string& name, BoltFactory factory, int parallelism = 1);

  /// Number of simulated workers tasks are placed on (default 1). Tuples
  /// crossing workers are counted as remote messages/bytes.
  TopologyBuilder& SetNumWorkers(int workers);

  /// Inbound queue capacity per task (default 1024 tuples); the backpressure
  /// bound.
  TopologyBuilder& SetQueueCapacity(size_t capacity);

  /// Pins executor threads round-robin across the machine's cores at
  /// Submit (Linux; best-effort, no-op elsewhere). Off by default — the OS
  /// scheduler usually does fine — but benchmarks that sweep task counts
  /// (bench_throughput_threshold's cores axis) pin so run-to-run placement
  /// noise does not drown the scaling signal.
  TopologyBuilder& SetPinThreads(bool pin);

  /// Tuple-transport batch size (default 32). Producers buffer up to this
  /// many tuples per consumer task and hand them to the inbound queue under
  /// one lock with one wakeup; consumers likewise drain up to this many per
  /// lock and hand them to Bolt::ExecuteBatch. 1 restores strict per-tuple
  /// transport (lowest latency). Buffered tuples are always flushed before
  /// end-of-stream, and per-link FIFO order — the exactly-once invariant's
  /// foundation — is preserved for every batch size.
  TopologyBuilder& SetBatchSize(size_t batch_size);

  /// Simulated serialization/deserialization cost, in CPU-nanoseconds per
  /// byte, charged to the busy time of both endpoints of every tuple that
  /// crosses simulated workers (default 0 = free, as within one process).
  /// Real stream processors pay this with actual CPU (Kryo/JSON encode on
  /// the producer, decode on the consumer); the charge lets the
  /// cluster-model throughput reflect message volume. Accounting only — no
  /// time is actually burned.
  TopologyBuilder& SetRemoteByteCostNanos(double nanos_per_byte);

  /// Turns executors into supervisors: a (simulated) task crash destroys
  /// only the spout/bolt object, and the executor re-creates it — restoring
  /// the last checkpoint and replaying the gap — under the given restart /
  /// checkpoint / backoff policy. Per-link emission counters make recovery
  /// exactly-once: a restarted component's re-emissions are suppressed up
  /// to the last tuple each consumer already received. With a
  /// checkpoint_interval, every snapshot-capable bolt checkpoints through
  /// one pipeline into its own chain (see SetStore).
  TopologyBuilder& SetSupervision(SupervisorOptions options);

  /// Turns on overload control: bolt inbound queues track health (depth,
  /// current stretch at capacity, oldest-tuple age, exported through
  /// TaskContext::queue_health and the stall dump), and — when
  /// `options.stall_timeout_micros > 0` — a watchdog thread samples
  /// topology progress, failing the run with a per-task state dump (or
  /// forcing shedding, see OverloadOptions::fail_fast) when no task makes
  /// progress with work pending or a queued tuple exceeds the stall
  /// timeout. The shed policy itself is enforced by bolts that consult
  /// TaskContext::queue_health (e.g. the distributed join's JoinerBolt);
  /// the substrate never drops tuples on its own.
  TopologyBuilder& SetOverload(OverloadOptions options);

  /// Configures the checkpoint pipeline and the tiered state store
  /// (docs/INTERNALS.md §13). Under supervision with a checkpoint interval,
  /// every bolt checkpoints the same way: the executor freezes a cheap
  /// copy-on-write view at the boundary, and a dedicated checkpoint thread
  /// encodes it and appends it to the task's chain — deltas between full
  /// bases every `delta_base_interval` checkpoints. The chain lives under
  /// `options.dir` (each task owns a disjoint subdirectory, truncated when
  /// its executor starts — one topology run at a time owns the tree) or,
  /// with an empty dir, in memory. The replay log is truncated only once a
  /// checkpoint is durable; kSync makes the executor wait for that at each
  /// boundary, kAsync (the default) does not. Recovery composes the newest
  /// intact base + contiguous delta chain; a torn or corrupt newest
  /// checkpoint falls back to the previous consistent chain. With a
  /// directory, bolts under a memory budget additionally spill cold window
  /// state to checksummed segments there (see JoinerBolt). A directory
  /// requires supervision.
  TopologyBuilder& SetStore(store::StoreOptions options);

  /// Installs a deterministic fault schedule (task kills, link
  /// drop/duplicate/delay/disconnect); implies supervision (with default
  /// SupervisorOptions unless SetSupervision was called). Script targets
  /// are validated at Build(): unknown components, out-of-range task
  /// indices, or link faults on non-edges abort via CHECK.
  TopologyBuilder& SetFaultScript(FaultScript script);

  /// Enables live task migration (Topology::MigrateTask and the
  /// kill_worker/migrate fault-script actions). Implies supervision (the
  /// migration blob doubles as a checkpoint). Elastic topologies pay a
  /// small per-push cost: every delivery passes a per-task quiesce gate so
  /// a migration can freeze a task at an exact sequence boundary. With a
  /// real transport, every rank additionally materializes (dormant) bolt
  /// instances for tasks placed elsewhere, so any rank can receive a
  /// migrated task at runtime.
  TopologyBuilder& SetElastic(bool elastic);

  /// Attaches an inter-worker transport, making the worker placement real:
  /// this process hosts only the tasks whose worker equals the transport's
  /// local rank (all tasks under hosts_all_tasks(), e.g. LoopbackTransport),
  /// and every cross-worker link is routed through a transport channel —
  /// wire-encoded, sequence numbers preserved end-to-end. Without a
  /// transport the worker placement stays a single-process simulation.
  /// With a real transport, SetNumWorkers must match the transport's world
  /// size, and scripted drop/dup faults must stay on co-located links
  /// (their retention map is process-local). Wait() runs the transport's
  /// end-of-run barrier: rank 0 folds every remote task's counters into its
  /// own metrics view and surfaces remote failures through ok().
  TopologyBuilder& SetTransport(std::shared_ptr<Transport> transport);

  /// Validates the dataflow (existing sources, a DAG, bolts have inputs),
  /// instantiates components, and returns the runnable topology. The
  /// builder is consumed.
  std::unique_ptr<Topology> Build();

 private:
  std::unique_ptr<internal_topology::TopologyImpl> impl_;
};

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_TOPOLOGY_H_
