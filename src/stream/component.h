#ifndef DSSJ_STREAM_COMPONENT_H_
#define DSSJ_STREAM_COMPONENT_H_

#include <functional>
#include <memory>
#include <string>

#include "store/frozen.h"
#include "stream/metrics.h"
#include "stream/overload.h"
#include "stream/value.h"

namespace dssj::stream {

/// Per-task information handed to components at startup. Valid for the
/// lifetime of the topology run.
struct TaskContext {
  std::string component;   ///< component name
  int task_index = 0;      ///< this task's index within the component
  int parallelism = 1;     ///< number of tasks of this component
  int worker = 0;          ///< simulated worker id hosting this task
  TaskMetrics* metrics = nullptr;  ///< this task's metric sinks
  /// Health snapshot of this task's inbound queue, with force_shed set when
  /// the watchdog demanded shedding. Only wired for bolts under overload
  /// control (TopologyBuilder::SetOverload); null otherwise. Call from the
  /// owning executor thread.
  std::function<QueueHealth()> queue_health;
};

/// Interface for emitting tuples downstream. Implemented by the topology
/// runtime; handed to spouts and bolts. Not thread-safe: only call from the
/// owning executor thread.
class OutputCollector {
 public:
  virtual ~OutputCollector() = default;

  /// Routes `tuple` to every subscribed bolt according to its grouping.
  virtual void Emit(Tuple tuple) = 0;

  /// Sends `tuple` to one specific task of `component`, which must have
  /// subscribed to this producer with DirectGrouping. `task_index` is the
  /// consumer-local index in [0, parallelism).
  virtual void EmitDirect(const std::string& component, int task_index, Tuple tuple) = 0;
};

/// A stream source. The executor calls NextTuple in a loop on a dedicated
/// thread until it returns false; each call may emit zero or more tuples
/// (and may block, e.g., to pace an arrival schedule).
class Spout {
 public:
  virtual ~Spout() = default;

  /// Called once before the first NextTuple.
  virtual void Open(const TaskContext& /*ctx*/) {}

  /// Produce the next tuple(s). Return false when the source is exhausted;
  /// the topology then propagates end-of-stream downstream.
  virtual bool NextTuple(OutputCollector& out) = 0;

  /// Called once after the last NextTuple.
  virtual void Close() {}

  /// Checkpoint support for supervised recovery. A spout returning true
  /// must implement Snapshot/Restore so that a freshly constructed and
  /// Open()ed instance, after Restore(blob), continues the emission
  /// sequence exactly where the snapshotted instance stood (same tuple
  /// count per NextTuple call, same routing-relevant contents). Without
  /// snapshot support a restarted spout is re-run from the beginning; the
  /// collector's per-link suppression keeps downstream delivery
  /// exactly-once either way, provided the re-run emits the same tuples in
  /// the same order.
  virtual bool SupportsSnapshot() const { return false; }
  virtual void Snapshot(std::string* /*out*/) const {}
  virtual void Restore(const std::string& /*blob*/) {}
};

/// A stream operator. Execute is called once per input tuple on the task's
/// executor thread (no concurrency within one task; parallelism comes from
/// running many tasks).
class Bolt {
 public:
  virtual ~Bolt() = default;

  /// Called once before the first Execute.
  virtual void Prepare(const TaskContext& /*ctx*/) {}

  /// Process one tuple; emit any outputs via `out`.
  virtual void Execute(Tuple tuple, OutputCollector& out) = 0;

  /// Process a batch of tuples popped from the inbound queue (FIFO order
  /// within the batch). The default forwards to Execute per tuple; override
  /// to hoist per-batch work. Correctness must not depend on batch
  /// boundaries — the executor may deliver any split, including one tuple
  /// per batch (`batch_size=1`). The batch is the executor's own, reused
  /// for every batch so its storage is allocated once: the bolt may move
  /// tuples out of it, and the executor clears it afterwards.
  virtual void ExecuteBatch(TupleBatch& batch, OutputCollector& out) {
    for (Tuple& t : batch) Execute(std::move(t), out);
  }

  /// Called once after every upstream task has finished; flush state here.
  virtual void Finish(OutputCollector& /*out*/) {}

  /// Checkpoint support for supervised recovery. A bolt returning true must
  /// implement Snapshot/Restore so that a freshly constructed and
  /// Prepare()d instance, after Restore(blob), emits exactly what the
  /// snapshotted instance would emit for any subsequent input. Queried
  /// after Prepare (state such as a per-task partition index is available).
  /// Bolts without snapshot support are still recovered exactly — the
  /// supervisor replays their entire input from the start of the stream —
  /// but periodic checkpoints (log truncation) require it.
  virtual bool SupportsSnapshot() const { return false; }
  virtual void Snapshot(std::string* /*out*/) const {}
  virtual void Restore(const std::string& /*blob*/) {}

  /// Checkpoint pipeline support (TopologyBuilder::SetStore). Freeze
  /// captures a consistent view of the bolt's state at the current tuple
  /// boundary and returns a blob whose encode runs later, on the
  /// checkpoint thread — the bolt keeps executing meanwhile, so the view
  /// must be immutable (copy-on-write, refcounted, or an eager copy). The
  /// default wraps Snapshot eagerly, which is correct for every
  /// SupportsSnapshot bolt and simply forfeits the off-thread win.
  /// `want_delta` asks for changes-since-last-freeze; a bolt may decline
  /// (return is_delta == false) and ship a base instead, as the default
  /// does. Deltas apply on top of the state left by Restore(base) + earlier
  /// RestoreDelta calls, in epoch order.
  virtual store::FrozenBlob Freeze(bool /*want_delta*/) {
    store::FrozenBlob f;
    std::string blob;
    Snapshot(&blob);
    auto owned = std::make_shared<std::string>(std::move(blob));
    f.encode = [owned](std::string* out) { *out = std::move(*owned); };
    return f;
  }
  virtual void RestoreDelta(const std::string& /*blob*/) {}
  /// Called on the executor thread once a submitted checkpoint is durable
  /// in the task's chain (in epoch order). Bolts with retention tied to
  /// checkpoints (e.g. spill-segment GC) release resources here.
  virtual void OnCheckpointDurable(uint64_t /*epoch*/, bool /*is_base*/) {}
  /// Called once a restore is complete — after Restore plus any
  /// RestoreDelta calls, in crash recovery and in a migrated-in
  /// incarnation: drop resources that no recovered state references.
  virtual void OnRestoreComplete() {}
};

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_COMPONENT_H_
