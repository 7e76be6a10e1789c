// The dedicated checkpoint thread: task threads freeze a cheap view at a
// sequence boundary and Submit() it here; this thread runs the encoder,
// writes the base or appends the delta through the task's StateStore, and
// advances the task's durable epoch. Task threads poll DurableEpoch() to
// learn how far they may truncate their replay logs, and Barrier() before
// any operation that must observe a quiescent store (crash recovery,
// migration, decommission).
#ifndef DSSJ_STORE_CHECKPOINT_SERVICE_H_
#define DSSJ_STORE_CHECKPOINT_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "store/frozen.h"
#include "store/state_store.h"

namespace dssj::store {

/// One frozen checkpoint awaiting encode + write.
struct CheckpointJob {
  int task_id = 0;
  uint64_t epoch = 0;
  bool is_base = false;
  FrozenBlob blob;
  StateStore* store = nullptr;  // outlives the service (owned by the task runtime)
  /// Runs on the service thread after the write attempt (also under
  /// wedge-skip, with ok=false and bytes/nanos 0). Used by the stream
  /// layer to bump TaskMetrics atomics.
  std::function<void(bool ok, uint64_t bytes, uint64_t nanos)> on_complete;
};

/// Single worker thread draining a FIFO of jobs. Durability is strictly
/// contiguous per task: epoch E is durable only once every epoch <= E has
/// been written, so a replay-log truncation at DurableEpoch() is always
/// safe. A failed write *wedges* the task's store — later jobs for that
/// task are skipped (logged once) and the durable epoch never advances
/// past the failure, so the task keeps enough replay log to recover.
class CheckpointService {
 public:
  CheckpointService();
  ~CheckpointService();

  CheckpointService(const CheckpointService&) = delete;
  CheckpointService& operator=(const CheckpointService&) = delete;

  /// Enqueues a job. Epochs for one task must be submitted in order.
  void Submit(CheckpointJob job);

  /// Newest epoch of `task_id` whose write (and all predecessors) is
  /// durable. 0 means nothing durable yet (epochs start at 1... except a
  /// task's initial base, which uses epoch 0 — see DurableSet).
  uint64_t DurableEpoch(int task_id) const;
  /// True once any epoch of `task_id` completed (distinguishes "epoch 0
  /// durable" from "nothing durable").
  bool DurableSet(int task_id) const;

  /// Blocks until every job for `task_id` submitted before this call has
  /// been processed (written or wedge-skipped).
  void Barrier(int task_id);

  /// Clears the wedge + durable state of `task_id` (new incarnation about
  /// to rebuild its chain). Call only after Barrier(task_id).
  void Reset(int task_id);

  /// True if a write for `task_id` failed and the store is wedged.
  bool Wedged(int task_id) const;

  /// Drains all queued jobs and joins the thread. Called once at topology
  /// teardown; a job submitted after Stop is skipped (reported not ok) and
  /// never becomes durable.
  void Stop();

 private:
  struct TaskState {
    uint64_t durable = 0;
    bool durable_set = false;
    bool wedged = false;
    uint64_t processed = 0;  // jobs completed (for Barrier)
    uint64_t submitted = 0;
  };

  void Run();

  mutable std::mutex mu_;
  std::condition_variable cv_;       // signals the worker: work or stop
  std::condition_variable done_cv_;  // signals waiters: job processed
  std::deque<CheckpointJob> queue_;
  std::unordered_map<int, TaskState> tasks_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace dssj::store

#endif  // DSSJ_STORE_CHECKPOINT_SERVICE_H_
