#include "stream/topology.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/logging.h"
#include "common/stats.h"
#include "store/checkpoint_service.h"
#include "store/format.h"
#include "store/state_store.h"
#include "stream/channel.h"
#include "stream/migration.h"
#include "stream/ring_queue.h"

namespace dssj::stream {
namespace internal_topology {

// Envelope (the unit travelling through inbound queues and channels) lives
// in stream/channel.h now that transports frame it onto the wire.

/// Sentinel source_task of the PREPARE marker envelope a migration injects
/// into the frozen task's inbound queue; link_seq carries the migration id.
/// Markers are split out of the inbox before the link guard (which indexes
/// its cursors by source task) or the bolt ever see them.
constexpr int kMigrationMarkerTask = -2;

struct Subscription {
  int consumer_comp = -1;
  GroupingType grouping = GroupingType::kShuffle;
};

struct ComponentSpec {
  std::string name;
  bool is_spout = false;
  SpoutFactory spout_factory;
  BoltFactory bolt_factory;
  int parallelism = 1;
  std::vector<int> placement;  // explicit worker per task; empty = default

  // Declared inputs (bolts): source component name -> grouping.
  std::vector<std::pair<std::string, GroupingType>> inputs;

  // Resolved at Build():
  int first_task = -1;
  std::vector<Subscription> subs_out;  // consumers of this component
  int upstream_tasks = 0;              // total producer tasks feeding each task
};

struct Task {
  int id = -1;
  int comp = -1;
  int local_index = 0;
  /// Written under mig_mu once routing can flip at runtime (elastic); read
  /// it through TopologyImpl::CurWorker outside that lock.
  int worker = 0;
  /// Hosted (locally executing) bolt tasks only; null for spouts and for
  /// tasks a transport places on another rank.
  std::unique_ptr<RingQueue<Envelope>> queue;
  std::unique_ptr<Spout> spout;
  std::unique_ptr<Bolt> bolt;
  /// Allocated for every task, hosted or not: rank 0 folds remote tasks'
  /// counters into these at the transport's end-of-run barrier.
  std::unique_ptr<TaskMetrics> metrics;
  std::thread thread;
};

/// A link fault resolved to task ids at Build().
struct ResolvedLinkFault {
  LinkFaultKind kind = LinkFaultKind::kDrop;
  uint64_t seq = 0;
  int64_t delay_micros = 0;
};

struct TopologyImpl {
  std::vector<std::unique_ptr<ComponentSpec>> comps;
  std::unordered_map<std::string, int> comp_index;
  std::vector<Task> tasks;
  int num_workers = 1;
  size_t queue_capacity = 1024;
  bool pin_threads = false;
  size_t batch_size = 32;
  double remote_byte_cost_ns = 0.0;
  bool built = false;
  bool submitted = false;
  std::atomic<int64_t> start_us{0};
  std::atomic<int64_t> end_us{0};

  // Inter-worker transport (SetTransport). When null the worker placement
  // is a single-process simulation. local_rank caches transport->
  // local_rank(); `hosted` (by task id) marks the tasks this process
  // actually executes — non-hosted tasks keep only their metrics slot.
  std::shared_ptr<Transport> transport;
  int local_rank = 0;
  std::vector<uint8_t> hosted;
  /// Tasks this process executed at any point of the run (migration can
  /// clear `hosted` mid-run; end-of-run metric shipping must still cover
  /// the partial execution).
  std::vector<uint8_t> ever_hosted;
  bool finish_done = false;

  // Fault tolerance. `supervised` turns executors into supervisors (and
  // enables the per-link emission bookkeeping recovery needs);
  // `fault_active` additionally arms the consumer-side link guard.
  bool supervised = false;
  bool fault_active = false;
  SupervisorOptions supervision;
  FaultScript fault_script;
  // Resolved at Build(), indexed by task id: scripted kill counts (sorted)
  // and, per producer task, destination-task → link faults (sorted by seq).
  std::vector<std::vector<uint64_t>> kill_plan;
  std::vector<std::unordered_map<int, std::vector<ResolvedLinkFault>>> link_plan;

  // Retention for scripted drops: a dropped envelope parks here (keyed by
  // source task, destination task, link seq) until the destination detects
  // the sequence gap and fetches it. The producer inserts before pushing
  // any successor, so a consumer that sees the gap always finds the entry.
  std::mutex fault_mu;
  std::map<std::tuple<int, int, uint64_t>, Envelope> retained;

  std::atomic<bool> failed{false};
  std::mutex fail_mu;
  std::string failure_message;

  // Checkpoint pipeline (SetStore). Under supervision with a checkpoint
  // interval, `task_stores` (by task id) holds one checkpoint chain per
  // bolt this rank materializes — on disk under store_opts.dir, else in
  // memory — and `ckpt_service` is the single encode+write thread they
  // share. Both stay empty/null otherwise.
  store::StoreOptions store_opts;
  std::unique_ptr<store::CheckpointService> ckpt_service;
  std::vector<std::unique_ptr<store::StateStore>> task_stores;

  // Overload control (SetOverload): queue-health instrumentation is enabled
  // on every bolt queue at Build(), and — when a stall timeout is set — a
  // watchdog thread samples progress while the topology runs. The watchdog
  // either fails the run with a per-task dump (fail_fast) or raises
  // `force_shed`, which TaskContext::queue_health exposes to shedding
  // bolts. `task_exited` mirrors thread liveness for the dump (one flag per
  // task, allocated at Build because Task objects are moved into `tasks`).
  bool overload_active = false;
  OverloadOptions overload;
  std::atomic<bool> force_shed{false};
  std::unique_ptr<std::atomic<uint8_t>[]> task_exited;
  std::thread watchdog;
  std::mutex watchdog_mu;
  std::condition_variable watchdog_cv;
  bool watchdog_stop = false;

  // Elastic scaling (SetElastic): live task migration. Every producer-side
  // push passes the destination task's quiesce gate; MigrateTaskId pauses
  // the gate, injects a PREPARE marker, and drives the
  // freeze/ship/flip/decommission protocol (docs/INTERNALS.md §12).
  // `route_epoch` invalidates collector channel caches after a routing
  // flip; `task_quiesced` tells the stall watchdog a frozen task is
  // intentional, not wedged.
  bool elastic = false;
  std::atomic<uint64_t> route_epoch{0};
  struct TaskGate {
    std::mutex mu;
    std::condition_variable cv;
    bool paused = false;
    int in_flight = 0;  ///< pushes past the gate, not yet handed over
  };
  std::vector<std::unique_ptr<TaskGate>> gates;  ///< by task id; empty unless elastic
  std::unique_ptr<std::atomic<uint8_t>[]> task_quiesced;
  std::atomic<int> migrations_in_flight{0};
  /// Lock-free mirror of Task::worker for the per-tuple routing decisions
  /// (allocated only when elastic; Task::worker itself is guarded by mig_mu
  /// once routing can flip at runtime).
  std::unique_ptr<std::atomic<int>[]> live_worker;

  enum class MigPhase {
    kFreezing,      ///< marker in flight; executor not yet frozen
    kFrozen,        ///< blob captured; executor waiting for the verdict
    kShipped,       ///< blob forwarded to a remote target (awaiting HANDOFF)
    kHandoff,       ///< remote target reported its executor running
    kRestoreLocal,  ///< verdict: reincarnate in place
    kDecommission,  ///< verdict: the task moved; exit without EOS
    kRestored,      ///< handoff complete (terminal)
    kAbort,         ///< verdict: resume untouched (terminal)
  };
  struct MigrationRun {
    uint32_t id = 0;
    int task_id = -1;
    int target_worker = -1;
    bool remote_coordinator = false;  ///< created by an inbound PREPARE
    MigPhase phase = MigPhase::kFreezing;
    std::string blob;
  };
  // Runs are never erased (the frozen executor holds references across its
  // waits); completed entries keep a terminal phase and a cleared blob, and
  // double as the dedup record for duplicate control frames.
  std::mutex mig_mu;
  std::condition_variable mig_cv;
  uint32_t next_migration_id = 1;                   ///< guarded by mig_mu
  std::map<uint32_t, MigrationRun> migration_runs;  ///< guarded by mig_mu
  std::set<uint32_t> activated_migrations;          ///< target-side dedup (mig_mu)
  bool coordinator_done = false;  ///< rank 0 run-over broadcast landed (mig_mu)
  /// Wait() has finished the run (every executor joined, the finish
  /// barrier passed). MigrateTaskId's remote waits give up once it is set.
  std::atomic<bool> run_over{false};
  std::mutex elastic_mu;  ///< serializes migrations: one handoff at a time
  std::vector<std::thread> elastic_threads;  ///< adopted executors (mig_mu)

  // Progress-driven fault actions (kill_worker / migrate statements),
  // resolved at Build and fired by a driver thread watching total spout
  // emissions. `dyn_kill` flags a task for a simulated crash at its next
  // execution boundary.
  struct ResolvedAction {
    uint64_t at_seq = 0;
    bool is_kill = false;
    int rank = -1;           ///< kill_worker target rank
    int task_id = -1;        ///< migrate source task
    int target_worker = -1;  ///< migrate target rank
  };
  std::vector<ResolvedAction> actions;
  std::unique_ptr<std::atomic<uint8_t>[]> dyn_kill;
  std::thread action_driver;
  std::atomic<bool> driver_stop{false};
  /// Spout emissions at which the next unfired action is due (kNoHold once
  /// none is left). Spouts wait there until the action thread has fired
  /// it, so a scripted action lands at its seq even when the host stalls
  /// that thread; otherwise the stream could end first.
  static constexpr uint64_t kNoHold = std::numeric_limits<uint64_t>::max();
  std::atomic<uint64_t> action_hold{kNoHold};

  void RunSpoutTask(Task& task);
  /// Total tuples emitted by the spouts: the clock scripted actions use.
  uint64_t SpoutEmitted() const;
  /// Blocks a spout while the next scripted action is due (see action_hold).
  void WaitForDueAction() const;
  void RunBoltTask(Task& task, const MigrationState* restore = nullptr);
  void NoteTaskExit(int task_id);
  void MarkFailed(const std::string& msg);
  void RunWatchdog();
  void StopWatchdog();
  std::string StallDump(const char* trigger, int64_t stalled_us);
  void Retain(int src, int dst, uint64_t seq, Envelope env);
  bool FetchRetained(int src, int dst, uint64_t seq, Envelope* out);
  /// Sleeps the current (exponential) restart backoff and doubles it.
  void SleepBackoff(int64_t* backoff_micros) const;

  /// Closes the quiesce gate of `task_id` and waits until every push
  /// already past it has been handed over; subsequent pushes park.
  void PauseGate(int task_id);
  void ResumeGate(int task_id);
  /// Current worker of a task, synchronized against routing flips.
  int WorkerOf(int task_id);
  /// Re-homes a task in every local routing structure (placement, hosted
  /// set, transport plan, channel-cache epoch). Callers hold the task's
  /// gate paused so no producer sees a half-flipped route.
  void FlipRoute(int task_id, int new_worker);
  /// Live-migrates one bolt task (Topology::MigrateTask resolves names).
  Status MigrateTaskId(int task_id, int target_worker);
  /// One executor incarnation of a bolt task; returns true when a local
  /// migration verdict asks the caller to reincarnate in place with
  /// `*reincarnate`.
  bool RunBoltIncarnation(Task& task, const MigrationState* restore,
                          MigrationState* reincarnate);
  /// Inbound migration control frames (invoked from transport threads).
  void HandleControl(ControlFrame&& frame);
  /// Target side of a distributed handoff: decode the blob, adopt the
  /// dormant task, start its executor, optionally report HANDOFF to the
  /// coordinator. Returns false (and fails the run) on a rejected blob.
  bool ActivateMigratedTask(uint32_t migration_id, int task_id, std::string blob,
                            bool notify_coordinator);
  void RunActionDriver();

  bool Hosted(int task_id) const { return hosted[static_cast<size_t>(task_id)] != 0; }
  /// Lock-free current worker of a task (hot path: per-tuple routing; also
  /// every reader of Task::worker outside mig_mu).
  int CurWorker(int task_id) const {
    return live_worker != nullptr
               ? live_worker[static_cast<size_t>(task_id)].load(std::memory_order_acquire)
               : tasks[static_cast<size_t>(task_id)].worker;
  }
  /// Producer endpoint for dst_task as seen from a producer on
  /// `producer_worker` (== local_rank for a real transport; under a
  /// hosts-all transport each simulated worker gets its own view, so
  /// cross-worker edges still pay the wire codec).
  std::unique_ptr<Channel> MakeChannel(int producer_worker, int dst_task);
  /// Transport inbound path: lands a decoded batch on a hosted task's queue.
  size_t DeliverInbound(int dst_task, std::vector<Envelope>&& batch);
  /// Transport failure path: fails the run and closes every hosted queue so
  /// local tasks unwind instead of waiting for remote envelopes.
  void FailFromTransport(const std::string& message);
};

/// RAII producer-side pass through a destination task's quiesce gate: parks
/// while the gate is paused (a migration is moving the task), then counts
/// itself in-flight so PauseGate can wait out pushes already past the
/// barrier. A no-op for non-elastic topologies. The paused wait polls the
/// failure flag so a failed run never strands producers at a closed gate.
class GateHold {
 public:
  GateHold(TopologyImpl* topo, int task_id) {
    if (topo->gates.empty()) return;
    gate_ = topo->gates[static_cast<size_t>(task_id)].get();
    std::unique_lock<std::mutex> lock(gate_->mu);
    while (gate_->paused && !topo->failed.load(std::memory_order_acquire)) {
      gate_->cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    ++gate_->in_flight;
  }
  ~GateHold() {
    if (gate_ == nullptr) return;
    std::lock_guard<std::mutex> lock(gate_->mu);
    if (--gate_->in_flight == 0) gate_->cv.notify_all();
  }
  GateHold(const GateHold&) = delete;
  GateHold& operator=(const GateHold&) = delete;

 private:
  TopologyImpl::TaskGate* gate_ = nullptr;
};

void TopologyImpl::PauseGate(int task_id) {
  TaskGate& gate = *gates[static_cast<size_t>(task_id)];
  std::unique_lock<std::mutex> lock(gate.mu);
  gate.paused = true;
  // In-flight pushes drain on their own: the migrating task's executor
  // keeps consuming until it reaches the PREPARE marker, which is only
  // injected after this wait completes.
  while (gate.in_flight > 0 && !failed.load(std::memory_order_acquire)) {
    gate.cv.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void TopologyImpl::ResumeGate(int task_id) {
  TaskGate& gate = *gates[static_cast<size_t>(task_id)];
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.paused = false;
  }
  gate.cv.notify_all();
}

int TopologyImpl::WorkerOf(int task_id) {
  std::lock_guard<std::mutex> lock(mig_mu);
  return tasks[static_cast<size_t>(task_id)].worker;
}

void TopologyImpl::FlipRoute(int task_id, int new_worker) {
  const bool hosts_all = transport == nullptr || transport->hosts_all_tasks();
  {
    std::lock_guard<std::mutex> lock(mig_mu);
    tasks[static_cast<size_t>(task_id)].worker = new_worker;
    if (live_worker != nullptr) {
      live_worker[static_cast<size_t>(task_id)].store(new_worker, std::memory_order_release);
    }
    if (!hosts_all) {
      hosted[static_cast<size_t>(task_id)] = new_worker == local_rank ? 1 : 0;
    }
  }
  if (transport != nullptr) transport->UpdateTaskWorker(task_id, new_worker);
  // Producers re-resolve their cached channels at the next push.
  route_epoch.fetch_add(1, std::memory_order_acq_rel);
}

std::unique_ptr<Channel> TopologyImpl::MakeChannel(int producer_worker, int dst_task) {
  Task& dst = tasks[static_cast<size_t>(dst_task)];
  const int dst_worker = CurWorker(dst_task);
  const bool cross = transport != nullptr && (transport->hosts_all_tasks()
                                                  ? dst_worker != producer_worker
                                                  : dst_worker != local_rank);
  if (cross) return transport->OpenChannel(dst_task);
  CHECK(dst.queue != nullptr) << "channel to a task without an inbound queue";
  return std::make_unique<InprocChannel>(dst.queue.get());
}

size_t TopologyImpl::DeliverInbound(int dst_task, std::vector<Envelope>&& batch) {
  Task& target = tasks[static_cast<size_t>(dst_task)];
  if (target.queue == nullptr) return 0;  // not hosted here
  const size_t depth = target.queue->PushBatch(&batch);
  target.metrics->queue_highwater.Update(depth);
  return depth;
}

void TopologyImpl::FailFromTransport(const std::string& message) {
  MarkFailed("transport: " + message);
  for (Task& task : tasks) {
    if (task.queue != nullptr) task.queue->Close();
  }
}

void TopologyImpl::NoteTaskExit(int task_id) {
  if (task_exited != nullptr) task_exited[task_id].store(1, std::memory_order_relaxed);
  const int64_t now = NowMicros();
  int64_t cur = end_us.load(std::memory_order_relaxed);
  while (now > cur && !end_us.compare_exchange_weak(cur, now, std::memory_order_relaxed)) {
  }
}

std::string TopologyImpl::StallDump(const char* trigger, int64_t stalled_us) {
  std::string out = "stall watchdog (" + std::string(trigger) + "): no healthy progress for " +
                    std::to_string(stalled_us / 1000) + " ms with work pending; task state:";
  for (Task& task : tasks) {
    const ComponentSpec& comp = *comps[task.comp];
    out += "\n  " + comp.name + "[" + std::to_string(task.local_index) + "]" +
           " worker=" + std::to_string(CurWorker(task.id)) +
           " executed=" + std::to_string(task.metrics->executed.Get()) +
           " emitted=" + std::to_string(task.metrics->emitted.Get());
    if (task.queue != nullptr) {
      const QueueHealth h = task.queue->Health();
      out += " queue=" + std::to_string(h.depth) + "/" + std::to_string(h.capacity) +
             " oldest_age_ms=" + std::to_string(h.oldest_age_micros / 1000) +
             " at_capacity_ms=" + std::to_string(h.at_capacity_stretch_micros / 1000);
    }
    out += task_exited[task.id].load(std::memory_order_relaxed) ? " exited" : " running";
    if (task_quiesced != nullptr &&
        task_quiesced[task.id].load(std::memory_order_acquire) != 0) {
      out += " quiesced(migrating)";
    }
  }
  return out;
}

void TopologyImpl::RunWatchdog() {
  uint64_t last_progress = ~uint64_t{0};  // first sample always "progresses"
  int64_t last_progress_us = NowMicros();
  // First sample that found the last migration over (0: none seen yet).
  // Quiescence is visible only at samples, so its end is known no earlier.
  int64_t thawed_us = 0;
  bool was_quiesced = false;
  std::unique_lock<std::mutex> lock(watchdog_mu);
  while (!watchdog_stop) {
    watchdog_cv.wait_for(lock,
                         std::chrono::microseconds(overload.watchdog_interval_micros));
    if (watchdog_stop) break;
    lock.unlock();

    uint64_t progress = 0;
    bool pending = false;
    bool all_exited = true;
    int64_t oldest_age_us = 0;
    for (Task& task : tasks) {
      progress += task.metrics->executed.Get() + task.metrics->emitted.Get();
      if (task_exited[task.id].load(std::memory_order_relaxed) == 0) all_exited = false;
      if (task.queue != nullptr) {
        const QueueHealth h = task.queue->Health();
        if (h.depth > 0) pending = true;
        oldest_age_us = std::max(oldest_age_us, h.oldest_age_micros);
      }
    }

    // A migration legitimately freezes a task (and pauses its producers)
    // for as long as the handoff takes; that is quiescence, not a stall.
    // Reset the progress clock instead of tripping while one is in flight.
    bool quiesced = migrations_in_flight.load(std::memory_order_acquire) > 0;
    if (!quiesced && task_quiesced != nullptr) {
      for (const Task& task : tasks) {
        if (task_quiesced[task.id].load(std::memory_order_acquire) != 0) {
          quiesced = true;
          break;
        }
      }
    }

    const int64_t now = NowMicros();
    if (quiesced || was_quiesced) thawed_us = now;
    was_quiesced = quiesced;
    bool trip = false;
    const char* trigger = "";
    int64_t stalled_us = 0;
    if (progress != last_progress || all_exited || quiesced ||
        failed.load(std::memory_order_acquire)) {
      last_progress = progress;
      last_progress_us = now;
    } else if (pending && now - last_progress_us >= overload.stall_timeout_micros) {
      // (a) Nothing executed or emitted anywhere for a full timeout while
      // tuples sit queued: the topology is wedged.
      trip = true;
      trigger = "no progress";
      stalled_us = now - last_progress_us;
    }
    // A tuple queued behind a migration freeze waited for the handoff, not
    // for an overloaded consumer: only the age it gained since the freeze
    // was seen to end counts.
    const int64_t overdue_us = std::min(oldest_age_us, now - thawed_us);
    if (!trip && !quiesced && overdue_us >= overload.stall_timeout_micros && !all_exited &&
        !failed.load(std::memory_order_acquire)) {
      // (b) A queued tuple has waited longer than the stall timeout: the
      // topology may still be progressing, but sustained overload has
      // pushed queueing delay past the point the caller declared tolerable.
      trip = true;
      trigger = "tuple overdue";
      stalled_us = overdue_us;
    }
    if (trip) {
      if (overload.fail_fast) {
        MarkFailed(StallDump(trigger, stalled_us));
        // Unwedge everything: closed queues reject pushes (producers
        // unblock) and report drained to consumers (bolts unwind); the
        // spout loop checks failed and stops emitting.
        for (Task& task : tasks) {
          if (task.queue != nullptr) task.queue->Close();
        }
        lock.lock();
        break;
      }
      // Degrade instead of failing: every shedding bolt sees force_shed
      // through TaskContext::queue_health. Re-arm so recovery is observed
      // before the next trip.
      force_shed.store(true, std::memory_order_relaxed);
      last_progress_us = now;
    }
    lock.lock();
  }
}

void TopologyImpl::StopWatchdog() {
  if (!watchdog.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watchdog_mu);
    watchdog_stop = true;
  }
  watchdog_cv.notify_all();
  watchdog.join();
}

void TopologyImpl::MarkFailed(const std::string& msg) {
  bool expected = false;
  if (failed.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(fail_mu);
    failure_message = msg;
  }
}

void TopologyImpl::Retain(int src, int dst, uint64_t seq, Envelope env) {
  std::lock_guard<std::mutex> lock(fault_mu);
  retained.emplace(std::make_tuple(src, dst, seq), std::move(env));
}

bool TopologyImpl::FetchRetained(int src, int dst, uint64_t seq, Envelope* out) {
  std::lock_guard<std::mutex> lock(fault_mu);
  const auto it = retained.find(std::make_tuple(src, dst, seq));
  if (it == retained.end()) return false;
  *out = std::move(it->second);
  retained.erase(it);
  return true;
}

void TopologyImpl::SleepBackoff(int64_t* backoff_micros) const {
  if (*backoff_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(*backoff_micros));
  }
  *backoff_micros = std::min(*backoff_micros > 0 ? *backoff_micros * 2 : int64_t{1},
                             supervision.max_backoff_micros);
}

/// OutputCollector bound to one producer task. Owns per-subscription
/// round-robin counters for shuffle grouping; used only from the task's
/// executor thread.
///
/// With batch_size > 1, outbound envelopes are staged in per-consumer-task
/// buffers and handed to the consumer's queue via PushBatch once a buffer
/// reaches batch_size (one lock + one wakeup per batch instead of per
/// tuple). Buffering never reorders tuples headed to the same consumer
/// task, so per-link FIFO — the exactly-once rule's foundation — holds.
/// The executor flushes all buffers before emitting end-of-stream.
///
/// Under supervision the collector additionally keeps, per consumer task,
/// the *canonical* count of data envelopes this task has emitted on the
/// link (`emitted_`, rolled back to the last checkpoint on a crash) and the
/// monotonic count actually handed over (`delivered_`, advanced when an
/// envelope reaches the consumer queue or the drop-retention map, never
/// rolled back). A recovering component re-runs and re-emits; Deliver
/// suppresses every re-emission whose canonical number the consumer already
/// has — this is what makes recovery exactly-once without any consumer-side
/// dedup of replayed tuples.
class CollectorImpl : public OutputCollector {
 public:
  /// Producer-side view of emission progress, captured at checkpoints and
  /// restored on a crash. Only the canonical counters and the round-robin
  /// cursors roll back; delivery progress is irreversible.
  struct Cursor {
    std::vector<uint64_t> emitted;
    std::vector<uint64_t> rr;
  };

  CollectorImpl(TopologyImpl* topo, Task* task)
      : topo_(topo), task_(task), comp_(*topo->comps[task->comp]),
        worker_(topo->CurWorker(task->id)), batch_size_(topo->batch_size),
        tracking_(topo->supervised) {
    rr_.assign(comp_.subs_out.size(), static_cast<uint64_t>(task->local_index));
    for (size_t si = 0; si < comp_.subs_out.size(); ++si) {
      if (comp_.subs_out[si].grouping != GroupingType::kDirect) last_emit_sub_ = si;
    }
    channels_.resize(topo->tasks.size());
    if (batch_size_ > 1) {
      pending_.resize(topo->tasks.size());
      in_dirty_.assign(topo->tasks.size(), 0);
    }
    if (tracking_) {
      emitted_.assign(topo->tasks.size(), 0);
      delivered_.assign(topo->tasks.size(), 0);
    }
    if (topo->fault_active && !topo->link_plan[task->id].empty()) {
      link_faults_ = &topo->link_plan[task->id];
    }
  }

  /// Pushes every staged envelope to its consumer queue. Must be called
  /// before the producer sends EOS (and is harmless otherwise).
  void FlushAll() {
    for (const int task_id : dirty_) {
      if (!pending_[task_id].empty()) FlushTarget(task_id);
      in_dirty_[task_id] = 0;
    }
    dirty_.clear();
  }

  /// Emits the end-of-stream marker to every task of every subscribed
  /// consumer. Under supervision the marker carries the link's final data
  /// count so consumers can recover trailing dropped envelopes.
  void SendEosAll() {
    for (const Subscription& sub : comp_.subs_out) {
      const ComponentSpec& consumer = *topo_->comps[sub.consumer_comp];
      for (int i = 0; i < consumer.parallelism; ++i) {
        const int t = consumer.first_task + i;
        GateHold hold(topo_, t);
        ChannelTo(t)->Push(Envelope{Tuple(), task_->id, /*eos=*/true, 0,
                                    tracking_ ? emitted_[t] : 0});
      }
    }
  }

  void SaveCursor(Cursor* cursor) const {
    cursor->emitted = emitted_;
    cursor->rr = rr_;
  }

  /// Captures the producer-side migration state: canonical emission
  /// counters and shuffle cursors. Only valid at a flushed boundary
  /// (FlushAll first), where delivery state equals the canonical counters.
  void SaveMigration(MigrationState* state) const {
    state->rr = rr_;
    for (size_t t = 0; t < emitted_.size(); ++t) {
      if (emitted_[t] != 0) {
        state->emitted.emplace_back(static_cast<uint32_t>(t), emitted_[t]);
      }
    }
  }

  /// Adopts a migrated task's producer-side state on its new incarnation.
  /// The source flushed everything before freezing, so the consumers have
  /// received exactly the canonical counters — delivery state follows.
  void RestoreMigration(const MigrationState& state) {
    if (state.rr.size() == rr_.size()) rr_ = state.rr;
    if (!tracking_) return;
    std::fill(emitted_.begin(), emitted_.end(), 0);
    for (const auto& [t, seq] : state.emitted) {
      if (t < emitted_.size()) emitted_[t] = seq;
    }
    delivered_ = emitted_;
  }

  /// Crash recovery: rewinds the canonical emission counters and shuffle
  /// cursors to `cursor` and discards staged (not yet delivered) envelopes
  /// — they die with the crashed component and are regenerated, and only
  /// then delivered, by the replay.
  void Rollback(const Cursor& cursor) {
    emitted_ = cursor.emitted;
    rr_ = cursor.rr;
    for (const int task_id : dirty_) {
      pending_[task_id].clear();
      in_dirty_[task_id] = 0;
    }
    dirty_.clear();
  }

  void Emit(Tuple tuple) override {
    for (size_t si = 0; si < comp_.subs_out.size(); ++si) {
      const Subscription& sub = comp_.subs_out[si];
      const ComponentSpec& consumer = *topo_->comps[sub.consumer_comp];
      int task_id = consumer.first_task;
      switch (sub.grouping) {
        case GroupingType::kShuffle:
          task_id += static_cast<int>(rr_[si]++ % consumer.parallelism);
          break;
        case GroupingType::kGlobal:
          break;
        case GroupingType::kPartner:
          task_id += task_->local_index;
          break;
        case GroupingType::kDirect:
          continue;  // only EmitDirect reaches direct subscribers
      }
      if (si == last_emit_sub_) {
        Deliver(task_id, std::move(tuple));
      } else {
        Deliver(task_id, tuple);
      }
    }
  }

  void EmitDirect(const std::string& component, int task_index, Tuple tuple) override {
    const auto it = topo_->comp_index.find(component);
    CHECK(it != topo_->comp_index.end()) << "unknown component " << component;
    const ComponentSpec& consumer = *topo_->comps[it->second];
    CHECK_GE(task_index, 0);
    CHECK_LT(task_index, consumer.parallelism);
    // The consumer must have declared DirectGrouping on this producer.
    DCHECK(HasDirectSubscription(it->second))
        << component << " did not DirectGrouping-subscribe to " << comp_.name;
    Deliver(consumer.first_task + task_index, std::move(tuple));
  }

 private:
  bool HasDirectSubscription(int consumer_comp) const {
    for (const Subscription& sub : comp_.subs_out) {
      if (sub.consumer_comp == consumer_comp && sub.grouping == GroupingType::kDirect) {
        return true;
      }
    }
    return false;
  }

  void Deliver(int task_id, Tuple tuple) {
    uint64_t seq = 0;
    if (tracking_) {
      seq = ++emitted_[task_id];
      // Recovery replay: the consumer already received this canonical
      // envelope from the pre-crash incarnation (or from drop retention).
      if (seq <= delivered_[task_id]) return;
    }
    Task& target = topo_->tasks[task_id];
    TaskMetrics& m = *task_->metrics;
    const size_t bytes = tuple.SerializedBytes();
    m.emitted.Increment();
    m.total_bytes.Add(bytes);
    int64_t extra_busy_ns = 0;
    if (topo_->CurWorker(task_id) != worker_) {
      m.remote_messages.Increment();
      m.remote_bytes.Add(bytes);
      if (topo_->remote_byte_cost_ns > 0.0) {
        // Serialization on the producer, deserialization on the consumer.
        const int64_t cost =
            static_cast<int64_t>(topo_->remote_byte_cost_ns * static_cast<double>(bytes));
        m.busy_nanos.Add(static_cast<uint64_t>(cost));
        extra_busy_ns = cost;
      }
    }
    Envelope env{std::move(tuple), task_->id, /*eos=*/false, extra_busy_ns, seq};
    if (link_faults_ != nullptr && HandleLinkFault(task_id, env)) return;
    if (batch_size_ <= 1) {
      if (tracking_) delivered_[task_id] = seq;
      // Gate before resolving the channel: a migration may flip the route
      // while this push parks, and the post-flip ChannelTo must see it.
      GateHold hold(topo_, task_id);
      Channel* ch = ChannelTo(task_id);
      const int64_t push_t0 = NowNanos();
      const size_t depth = ch->Push(std::move(env));
      task_->metrics->blocked_nanos.Add(static_cast<uint64_t>(NowNanos() - push_t0));
      // Remote channels report their send-buffer depth; only an in-process
      // push observes the consumer queue (remote highwater is tracked on
      // the receiving side by DeliverInbound).
      if (ch->inproc()) target.metrics->queue_highwater.Update(depth);
      return;
    }
    std::vector<Envelope>& buffer = pending_[task_id];
    if (!in_dirty_[task_id]) {
      in_dirty_[task_id] = 1;
      dirty_.push_back(task_id);
    }
    buffer.push_back(std::move(env));
    if (buffer.size() >= batch_size_) FlushTarget(task_id);
  }

  /// Applies any scripted fault on (this task → task_id) at env's canonical
  /// sequence number. Returns true when the envelope was consumed here
  /// (dropped into retention, or pushed — twice — for a duplicate).
  bool HandleLinkFault(int task_id, Envelope& env) {
    const auto it = link_faults_->find(task_id);
    if (it == link_faults_->end()) return false;
    bool drop = false;
    bool duplicate = false;
    for (const ResolvedLinkFault& fault : it->second) {
      if (fault.seq != env.link_seq) continue;
      switch (fault.kind) {
        case LinkFaultKind::kDelay:
          std::this_thread::sleep_for(std::chrono::microseconds(fault.delay_micros));
          break;
        case LinkFaultKind::kDisconnect: {
          // Sever the connection exactly between this envelope's
          // predecessors and the envelope itself: flush what's staged, cut,
          // then deliver normally (a clean close loses nothing).
          if (batch_size_ > 1) FlushTarget(task_id);
          if (!ChannelTo(task_id)->inproc()) {
            topo_->transport->InjectDisconnect(task_id, fault.delay_micros);
          } else {
            // In-process link: no socket to sever; degrade to the stall the
            // outage would have caused.
            std::this_thread::sleep_for(std::chrono::microseconds(fault.delay_micros));
          }
          break;
        }
        case LinkFaultKind::kDrop:
          drop = true;
          break;
        case LinkFaultKind::kDuplicate:
          duplicate = true;
          break;
      }
    }
    if (!drop && !duplicate) return false;  // delay/disconnect: deliver normally
    // Per-link FIFO: everything staged for this consumer must reach the
    // queue before the faulted envelope is retained or duplicated, so the
    // consumer's sequence guard sees the gap (or the copy) in order.
    if (batch_size_ > 1) FlushTarget(task_id);
    const uint64_t seq = env.link_seq;
    Task& target = topo_->tasks[task_id];
    if (drop) {
      topo_->Retain(task_->id, task_id, seq, std::move(env));
    } else {
      Envelope copy = env;
      GateHold hold(topo_, task_id);
      Channel* ch = ChannelTo(task_id);
      const size_t d1 = ch->Push(std::move(copy));
      const size_t d2 = ch->Push(std::move(env));
      if (ch->inproc()) {
        target.metrics->queue_highwater.Update(d1);
        target.metrics->queue_highwater.Update(d2);
      }
    }
    if (tracking_) delivered_[task_id] = seq;
    return true;
  }

  void FlushTarget(int task_id) {
    std::vector<Envelope>& buffer = pending_[task_id];
    if (buffer.empty()) return;
    // Everything in the buffer is about to be irreversibly handed over.
    if (tracking_) delivered_[task_id] = buffer.back().link_seq;
    GateHold hold(topo_, task_id);
    Channel* ch = ChannelTo(task_id);
    const int64_t push_t0 = NowNanos();
    const size_t depth = ch->PushBatch(&buffer);
    task_->metrics->blocked_nanos.Add(static_cast<uint64_t>(NowNanos() - push_t0));
    if (ch->inproc()) topo_->tasks[task_id].metrics->queue_highwater.Update(depth);
    // A closed (failed-consumer) endpoint leaves a remainder; it has no
    // reader.
    buffer.clear();
  }

  /// Lazily opened per-consumer-task endpoint (in-process queue or
  /// transport channel). Per-collector so channels stay single-producer. A
  /// routing flip bumps the topology's route epoch; stale caches re-resolve
  /// through MakeChannel on their next use.
  Channel* ChannelTo(int task_id) {
    if (topo_->elastic) {
      const uint64_t epoch = topo_->route_epoch.load(std::memory_order_acquire);
      if (epoch != route_epoch_seen_) {
        route_epoch_seen_ = epoch;
        for (std::unique_ptr<Channel>& cached : channels_) cached.reset();
      }
    }
    std::unique_ptr<Channel>& ch = channels_[static_cast<size_t>(task_id)];
    if (ch == nullptr) ch = topo_->MakeChannel(worker_, task_id);
    return ch.get();
  }

  TopologyImpl* topo_;
  Task* task_;
  const ComponentSpec& comp_;
  /// The producer's worker, fixed for the incarnation (a migration ends
  /// it; the next incarnation builds a new collector).
  const int worker_;
  const size_t batch_size_;
  const bool tracking_;
  const std::unordered_map<int, std::vector<ResolvedLinkFault>>* link_faults_ = nullptr;
  std::vector<uint64_t> rr_;
  /// The last subscription Emit delivers to; it takes the tuple itself,
  /// earlier ones a copy.
  size_t last_emit_sub_ = 0;
  uint64_t route_epoch_seen_ = 0;
  std::vector<std::unique_ptr<Channel>> channels_;  ///< by consumer task id
  std::vector<uint64_t> emitted_;    ///< canonical per-link emission counts
  std::vector<uint64_t> delivered_;  ///< monotonic per-link delivery counts
  std::vector<std::vector<Envelope>> pending_;  ///< staged per consumer task
  std::vector<int> dirty_;                      ///< consumer tasks staged since last FlushAll
  std::vector<uint8_t> in_dirty_;               ///< dirty_ membership flags
};

namespace {

/// Executor-side consumer guard, active only when a fault script is
/// installed: validates the canonical per-link sequence of every inbound
/// data envelope, discards scripted duplicates, and pulls scripted drops
/// out of retention the moment their gap (or the final count on EOS)
/// becomes visible. Downstream of this filter the envelope stream is
/// canonical again, so executor logging/replay and the bolt itself never
/// see an injected link fault.
class LinkGuard {
 public:
  LinkGuard(TopologyImpl* topo, Task* task)
      : topo_(topo), task_(task), next_seq_(topo->tasks.size(), 1) {}

  /// Captures the consumer-side migration state: the next expected data
  /// sequence per inbound link (links still at their initial value are
  /// omitted).
  void Save(std::vector<std::pair<uint32_t, uint64_t>>* out) const {
    for (size_t src = 0; src < next_seq_.size(); ++src) {
      if (next_seq_[src] != 1) {
        out->emplace_back(static_cast<uint32_t>(src), next_seq_[src]);
      }
    }
  }

  /// Adopts a migrated task's consumer-side cursors on its new incarnation.
  void Restore(const std::vector<std::pair<uint32_t, uint64_t>>& saved) {
    for (const auto& [src, seq] : saved) {
      if (src < next_seq_.size()) next_seq_[src] = seq;
    }
  }

  void Canonicalize(std::vector<Envelope>& in, std::vector<Envelope>* out) {
    out->clear();
    TaskMetrics& m = *task_->metrics;
    for (Envelope& env : in) {
      const int src = env.source_task;
      if (env.eos) {
        // The final count recovers trailing drops (no successor envelope
        // ever showed the gap). A failed producer may report a final count
        // below what it delivered; the guard just passes the EOS through.
        FetchThrough(src, env.link_seq, &m, out);
        out->push_back(std::move(env));
        continue;
      }
      if (env.link_seq < next_seq_[src]) {
        m.link_dups_discarded.Increment();
        continue;
      }
      FetchThrough(src, env.link_seq - 1, &m, out);
      ++next_seq_[src];
      out->push_back(std::move(env));
    }
  }

 private:
  /// Fetches retained envelopes (src → this task) up to sequence `upto`.
  void FetchThrough(int src, uint64_t upto, TaskMetrics* m, std::vector<Envelope>* out) {
    while (next_seq_[src] <= upto) {
      Envelope missing;
      CHECK(topo_->FetchRetained(src, task_->id, next_seq_[src], &missing))
          << "link " << src << "->" << task_->id << " gap at seq " << next_seq_[src]
          << " without a retained (dropped) envelope";
      m->link_drops_recovered.Increment();
      ++next_seq_[src];
      out->push_back(std::move(missing));
    }
  }

  TopologyImpl* topo_;
  Task* task_;
  std::vector<uint64_t> next_seq_;  ///< per source task, next expected data seq
};

}  // namespace

void TopologyImpl::RunSpoutTask(Task& task) {
  const ComponentSpec& comp = *comps[task.comp];
  TaskContext ctx{comp.name, task.local_index, comp.parallelism, CurWorker(task.id),
                  task.metrics.get(), /*queue_health=*/nullptr};
  CollectorImpl collector(this, &task);
  TaskMetrics& m = *task.metrics;
  const int64_t cpu_start = ThreadCpuNanos();

  task.spout->Open(ctx);

  // Supervision state. `calls` is the spout's canonical progress counter
  // (NextTuple invocations); kills and checkpoints trigger on it.
  std::deque<uint64_t> kills;
  if (supervised) {
    kills.assign(kill_plan[task.id].begin(), kill_plan[task.id].end());
  }
  const bool snap_ok = task.spout->SupportsSnapshot();
  const uint64_t ckpt_interval =
      (supervised && snap_ok) ? supervision.checkpoint_interval : 0;
  struct SpoutCheckpoint {
    bool has_state = false;
    std::string state;
    uint64_t calls = 0;
    CollectorImpl::Cursor cursor;
  } ckpt;
  collector.SaveCursor(&ckpt.cursor);
  if (snap_ok) {
    // Initial checkpoint: a crash before the first periodic one then
    // restores through the same path (matters for components whose state
    // outlives them — Restore must undo external side effects).
    task.spout->Snapshot(&ckpt.state);
    ckpt.has_state = true;
  }

  uint64_t calls = 0;
  int restarts = 0;
  int64_t backoff = supervision.initial_backoff_micros;
  bool gave_up = false;

  while (true) {
    // A watchdog- or transport-failed run has closed every queue; emitting
    // further is pointless (pushes are rejected), and a paced spout would
    // otherwise keep sleeping through the rest of its schedule.
    if ((overload_active || transport != nullptr) &&
        failed.load(std::memory_order_acquire)) {
      break;
    }
    if (!kills.empty() && calls == kills.front()) {
      kills.pop_front();
      if (restarts >= supervision.max_restarts) {
        MarkFailed("spout task " + comp.name + "[" + std::to_string(task.local_index) +
                   "] exceeded max_restarts=" + std::to_string(supervision.max_restarts));
        gave_up = true;
        break;
      }
      ++restarts;
      m.restarts.Increment();
      SleepBackoff(&backoff);
      // The simulated crash destroys the spout object — its entire state.
      // Recovery: fresh instance, restore the snapshot offset, rewind the
      // canonical emission counters, and re-run; Deliver suppresses every
      // re-emission the consumers already received.
      task.spout = comp.spout_factory();
      CHECK(task.spout != nullptr);
      task.spout->Open(ctx);
      if (ckpt.has_state) task.spout->Restore(ckpt.state);
      collector.Rollback(ckpt.cursor);
      m.replayed_tuples.Add(calls - ckpt.calls);
      calls = ckpt.calls;
      continue;
    }
    if (ckpt_interval > 0 && calls == ckpt.calls + ckpt_interval) {
      collector.FlushAll();  // checkpointed cursors must equal delivery state
      const int64_t t0 = NowNanos();
      ckpt.state.clear();
      task.spout->Snapshot(&ckpt.state);
      ckpt.has_state = true;
      ckpt.calls = calls;
      collector.SaveCursor(&ckpt.cursor);
      m.checkpoints.Increment();
      m.checkpoint_bytes.Add(ckpt.state.size());
      m.checkpoint_nanos.Add(static_cast<uint64_t>(NowNanos() - t0));
    }
    WaitForDueAction();
    if (!task.spout->NextTuple(collector)) break;
    ++calls;
  }
  if (!gave_up) task.spout->Close();
  collector.FlushAll();
  collector.SendEosAll();
  m.busy_nanos.Add(static_cast<uint64_t>(ThreadCpuNanos() - cpu_start));
  NoteTaskExit(task.id);
}

void TopologyImpl::RunBoltTask(Task& task, const MigrationState* restore) {
  MigrationState adopted;
  MigrationState next;
  const MigrationState* cur = restore;
  while (RunBoltIncarnation(task, cur, &next)) {
    // Local migration verdict (docs/INTERNALS.md §12): the routing already
    // flipped; reincarnate the task in place on this executor thread with a
    // fresh component object and the frozen state.
    task.bolt = comps[task.comp]->bolt_factory();
    CHECK(task.bolt != nullptr);
    adopted = std::move(next);
    cur = &adopted;
  }
}

bool TopologyImpl::RunBoltIncarnation(Task& task, const MigrationState* restore,
                                      MigrationState* reincarnate) {
  const ComponentSpec& comp = *comps[task.comp];
  TaskContext ctx{comp.name, task.local_index, comp.parallelism, CurWorker(task.id),
                  task.metrics.get(), /*queue_health=*/nullptr};
  if (overload_active) {
    Task* tp = &task;
    TopologyImpl* topo = this;
    ctx.queue_health = [topo, tp]() {
      QueueHealth h = tp->queue->Health();
      h.force_shed = topo->force_shed.load(std::memory_order_relaxed);
      return h;
    };
  }
  CollectorImpl collector(this, &task);
  TaskMetrics& m = *task.metrics;
  const int64_t cpu_start = ThreadCpuNanos();
  int64_t simulated_busy_ns = 0;

  task.bolt->Prepare(ctx);

  // Supervision state. `executed_total` is the bolt's canonical progress
  // counter (data tuples executed); kills and checkpoints trigger on it.
  // `log` holds the canonical data envelopes received since the last
  // durable checkpoint: log[0 .. replay_pos) has been executed by the
  // current incarnation, log[replay_pos ..) is pending (non-empty only
  // right after a crash rewound replay_pos to 0). Live input is appended to
  // the log and then executed from it, so the live and replay paths are
  // one code path.
  std::deque<uint64_t> kills;
  if (supervised) {
    kills.assign(kill_plan[task.id].begin(), kill_plan[task.id].end());
  }
  const bool snap_ok = task.bolt->SupportsSnapshot();
  const uint64_t ckpt_interval =
      (supervised && snap_ok) ? supervision.checkpoint_interval : 0;
  struct BoltCheckpoint {
    bool has_state = false;
    std::string state;
    uint64_t executed = 0;
    CollectorImpl::Cursor cursor;
  } ckpt;

  uint64_t executed_total = 0;
  LinkGuard guard(this, &task);
  int remaining = comp.upstream_tasks;

  if (restore != nullptr) {
    // Migrated-in incarnation: adopt the frozen task's exact state — bolt
    // snapshot, canonical progress, producer cursors, consumer cursors. A
    // scripted kill at exactly the migration boundary fires here, on the
    // new incarnation (strictly earlier kills fired on the old one).
    if (restore->has_bolt_state) {
      task.bolt->Restore(restore->bolt_state);
      task.bolt->OnRestoreComplete();
    }
    executed_total = restore->executed_total;
    remaining = static_cast<int>(restore->remaining_eos);
    collector.RestoreMigration(*restore);
    guard.Restore(restore->next_seq);
    while (!kills.empty() && kills.front() < executed_total) kills.pop_front();
  }

  ckpt.executed = executed_total;
  collector.SaveCursor(&ckpt.cursor);
  if (snap_ok) {
    // Initial snapshot (see RunSpoutTask): recovery always restores, even
    // before the first periodic checkpoint. It seeds the chain's epoch 0
    // and stays the floor while nothing in the chain is durable.
    task.bolt->Snapshot(&ckpt.state);
    ckpt.has_state = true;
  }

  // A deque: truncation at a durable epoch drops entries from the front
  // without shifting the retained suffix.
  std::deque<Envelope> log;
  size_t replay_pos = 0;
  size_t log_high = 0;  // log entries executed at least once (replay metric)
  int restarts = 0;
  int64_t backoff = supervision.initial_backoff_micros;
  bool gave_up = false;

  // Checkpoint pipeline (docs/INTERNALS.md §13): at each boundary the
  // executor freezes a view of the bolt, the checkpoint service encodes it
  // and appends it to this task's chain (on disk or in memory), and the
  // replay log is truncated only once the service reports the epoch
  // durable — so a crash at any point recovers from the newest base +
  // delta chain plus the still-retained log suffix. kSync waits for each
  // checkpoint to land before executing on.
  store::StateStore* chain = ckpt_interval > 0 ? task_stores[task.id].get() : nullptr;
  struct PendingCkpt {
    uint64_t epoch = 0;
    uint64_t executed = 0;
    CollectorImpl::Cursor cursor;
    bool is_base = false;
  };
  std::deque<PendingCkpt> pending_ckpts;  // submitted, durability unknown
  uint64_t next_epoch = 0;
  // Freeze cadence anchor: ckpt.executed lags at the last *durable* epoch
  // while freezes keep firing every ckpt_interval on this counter.
  uint64_t freeze_anchor = executed_total;
  // Polls the durable epoch and retires confirmed checkpoints: notify the
  // bolt (segment GC hooks), truncate the replay log, and advance the
  // recovery anchor. A wedged store never advances, so the log keeps
  // everything needed to recover from the last durable chain.
  const auto confirm_durable = [&]() {
    if (chain == nullptr || !ckpt_service->DurableSet(task.id)) return;
    const uint64_t durable = ckpt_service->DurableEpoch(task.id);
    while (!pending_ckpts.empty() && pending_ckpts.front().epoch <= durable) {
      PendingCkpt p = std::move(pending_ckpts.front());
      pending_ckpts.pop_front();
      task.bolt->OnCheckpointDurable(p.epoch, p.is_base);
      const uint64_t advance = p.executed - ckpt.executed;
      if (advance > 0) {
        log.erase(log.begin(), log.begin() + static_cast<ptrdiff_t>(advance));
        replay_pos -= advance;
        log_high -= advance;
      }
      ckpt.executed = p.executed;
      ckpt.cursor = p.cursor;
    }
  };
  const auto checkpoint = [&](store::FrozenBlob fb) {
    const bool is_base = !fb.is_delta;
    PendingCkpt p;
    p.epoch = next_epoch++;
    p.executed = executed_total;
    collector.SaveCursor(&p.cursor);
    p.is_base = is_base;
    store::CheckpointJob job;
    job.task_id = task.id;
    job.epoch = p.epoch;
    job.is_base = is_base;
    job.blob = std::move(fb);
    job.store = chain;
    TaskMetrics* mp = &m;
    job.on_complete = [mp, is_base](bool ok, uint64_t bytes, uint64_t nanos) {
      if (!ok) return;  // wedge-skips and failed writes count nothing
      // Runs on the service thread; all sinks are atomic.
      mp->checkpoints.Increment();
      mp->checkpoint_bytes.Add(bytes);
      mp->checkpoint_nanos.Add(nanos);
      (is_base ? mp->base_checkpoints : mp->delta_checkpoints).Increment();
      (is_base ? mp->base_checkpoint_bytes : mp->delta_checkpoint_bytes).Add(bytes);
    };
    pending_ckpts.push_back(std::move(p));
    ckpt_service->Submit(std::move(job));
    if (store_opts.mode == store::CheckpointMode::kSync) ckpt_service->Barrier(task.id);
    confirm_durable();
  };
  if (chain != nullptr) {
    // Incarnation start: this run owns the chain — drop whatever a prior
    // incarnation left, then seed epoch 0 with the initial snapshot so
    // recovery always has a base to compose from.
    ckpt_service->Barrier(task.id);
    ckpt_service->Reset(task.id);
    const Status st = chain->Truncate();
    if (st.ok()) {
      store::FrozenBlob init;
      auto blob = std::make_shared<std::string>(ckpt.state);
      init.encode = [blob](std::string* out) { *out = std::move(*blob); };
      checkpoint(std::move(init));
    } else {
      LOG(ERROR) << "state store init failed for task " << task.id << ": " << st.message();
    }
  }

  TupleBatch batch;
  // Simulated crash shared by scripted kills and progress-driven
  // kill_worker actions. Returns false on an exhausted restart budget.
  const auto crash_and_restore = [&]() -> bool {
    if (restarts >= supervision.max_restarts) return false;
    ++restarts;
    m.restarts.Increment();
    SleepBackoff(&backoff);
    // Simulated crash: the bolt object (all component state) dies; the
    // executor thread survives as supervisor. Restore the checkpoint,
    // rewind the emission cursors, and replay the log from the top —
    // nested crashes during replay just rewind again.
    task.bolt = comp.bolt_factory();
    CHECK(task.bolt != nullptr);
    task.bolt->Prepare(ctx);
    store::RecoveredChain recovered;
    if (chain != nullptr) {
      // Quiesce the checkpoint thread, then recover from the durable
      // chain: newest intact base + contiguous deltas, in epoch order.
      // The replay log still covers everything past the durable epoch
      // (truncation waits for durability), so chain + replay reproduces
      // the pre-crash state exactly.
      ckpt_service->Barrier(task.id);
      confirm_durable();
      pending_ckpts.clear();  // processed; anything past durable is gone
      const Status st = chain->Recover(&recovered);
      if (!st.ok()) {
        LOG(ERROR) << "recovery scan failed for task " << task.id << ": "
                   << st.message();
      }
      CHECK(recovered.valid || !ckpt_service->DurableSet(task.id))
          << "durable chain lost for task " << task.id;
    }
    if (recovered.valid) {
      task.bolt->Restore(recovered.base);
      for (const std::string& d : recovered.deltas) task.bolt->RestoreDelta(d);
    } else if (ckpt.has_state) {
      // No chain, or nothing durable in it yet (epoch 0 has not landed, or
      // the store is wedged): the incarnation's initial snapshot is the
      // floor, and the anchor still sits there.
      task.bolt->Restore(ckpt.state);
    }
    task.bolt->OnRestoreComplete();
    collector.Rollback(ckpt.cursor);
    executed_total = ckpt.executed;
    freeze_anchor = executed_total;
    replay_pos = 0;
    return true;
  };
  // Executes log[replay_pos..) honoring kill and checkpoint boundaries.
  // Returns false when the task exhausted its restart budget.
  const auto drain_log = [&]() -> bool {
    while (replay_pos < log.size()) {
      if (dyn_kill != nullptr &&
          dyn_kill[task.id].exchange(0, std::memory_order_acq_rel) != 0) {
        // kill_worker action: crash at this execution boundary.
        if (!crash_and_restore()) return false;
        continue;
      }
      if (!kills.empty() && executed_total == kills.front()) {
        kills.pop_front();
        if (!crash_and_restore()) return false;
        continue;
      }
      if (ckpt_interval > 0 && executed_total == freeze_anchor + ckpt_interval) {
        collector.FlushAll();  // checkpointed cursors must equal delivery state
        // Freeze a consistent view at this exact boundary and hand it to
        // the service thread. Only the capture cost lands on the hot path;
        // encode + write time is attributed via on_complete. The log is
        // truncated once the checkpoint is durable.
        const int64_t t0 = NowNanos();
        // Every delta_base_interval-th epoch is a base; 0 never compacts.
        const uint32_t base_every = store_opts.delta_base_interval;
        const bool want_delta = base_every == 0 || next_epoch % base_every != 0;
        store::FrozenBlob frozen = task.bolt->Freeze(want_delta);
        m.checkpoint_nanos.Add(static_cast<uint64_t>(NowNanos() - t0));
        freeze_anchor = executed_total;
        checkpoint(std::move(frozen));
        continue;
      }
      // Cap the run so the next kill / checkpoint fires at its exact count.
      uint64_t cap = static_cast<uint64_t>(log.size() - replay_pos);
      if (!kills.empty()) cap = std::min(cap, kills.front() - executed_total);
      if (ckpt_interval > 0) {
        cap = std::min(cap, freeze_anchor + ckpt_interval - executed_total);
      }
      const size_t run = static_cast<size_t>(cap);
      int64_t batch_extra_ns = 0;
      for (size_t k = replay_pos; k < replay_pos + run; ++k) {
        batch_extra_ns += log[k].extra_busy_ns;
        // Copy: the log entry must survive for a future replay.
        batch.push_back(log[k].tuple);
      }
      if (replay_pos < log_high) {
        m.replayed_tuples.Add(std::min<uint64_t>(run, log_high - replay_pos));
      }
      task.bolt->ExecuteBatch(batch, collector);
      batch.clear();
      m.executed.Add(run);
      simulated_busy_ns += batch_extra_ns;
      executed_total += run;
      replay_pos += run;
      if (replay_pos > log_high) log_high = replay_pos;
    }
    return true;
  };

  std::vector<Envelope> inbox;
  inbox.reserve(batch_size);
  std::vector<Envelope> canon;
  std::vector<Envelope> segment;  // marker-splitting scratch (elastic only)

  // Canonicalizes and executes one marker-free run of envelopes (the whole
  // inbox, or a between-markers segment), consuming it. Returns false when
  // the task exhausted its restart budget.
  const auto process_segment = [&](std::vector<Envelope>& seg) -> bool {
    if (seg.empty()) return true;
    std::vector<Envelope>* in = &seg;
    if (fault_active) {
      guard.Canonicalize(seg, &canon);
      in = &canon;
    }
    size_t idx = 0;
    while (idx < in->size()) {
      if ((*in)[idx].eos) {
        --remaining;
        ++idx;
        continue;
      }
      // Gather the run of data envelopes up to the next EOS marker,
      // preserving queue order (EOS never overtakes a link's data because
      // the queue is FIFO).
      const size_t run_begin = idx;
      while (idx < in->size() && !(*in)[idx].eos) ++idx;
      if (supervised) {
        for (size_t k = run_begin; k < idx; ++k) log.push_back(std::move((*in)[k]));
        if (!drain_log()) return false;
      } else {
        // Unsupervised fast path: no log, tuples move straight into the
        // batch (byte-for-byte the pre-supervision executor).
        int64_t batch_extra_ns = 0;
        for (size_t k = run_begin; k < idx; ++k) {
          batch_extra_ns += (*in)[k].extra_busy_ns;
          batch.push_back(std::move((*in)[k].tuple));
        }
        const size_t executed = idx - run_begin;
        task.bolt->ExecuteBatch(batch, collector);
        batch.clear();
        m.executed.Add(executed);
        simulated_busy_ns += batch_extra_ns;
      }
    }
    seg.clear();
    return true;
  };

  enum class MarkerOutcome { kResume, kReincarnate, kDecommission };
  // Freezes this task at the exact boundary the PREPARE marker marks
  // (docs/INTERNALS.md §12): flush everything emitted so the canonical
  // cursors equal delivery state, snapshot component + progress + cursors,
  // publish the encoded blob on the migration run, and wait for the
  // coordinator's verdict.
  const auto handle_marker = [&](uint64_t marker_id) -> MarkerOutcome {
    const uint32_t migration_id = static_cast<uint32_t>(marker_id);
    collector.FlushAll();
    if (chain != nullptr) {
      // No checkpoint write may race the handoff. The migration blob is a
      // full self-contained snapshot; the next incarnation (here or on the
      // target) truncates and reseeds the chain.
      ckpt_service->Barrier(task.id);
      confirm_durable();
    }
    MigrationState st;
    st.task_id = static_cast<uint32_t>(task.id);
    st.executed_total = executed_total;
    st.remaining_eos = static_cast<uint32_t>(remaining);
    if (task.bolt->SupportsSnapshot()) {
      st.has_bolt_state = true;
      task.bolt->Snapshot(&st.bolt_state);
    }
    collector.SaveMigration(&st);
    guard.Save(&st.next_seq);
    std::string blob;
    EncodeMigrationState(st, &blob);
    if (task_quiesced != nullptr) {
      task_quiesced[task.id].store(1, std::memory_order_release);
    }
    if (supervision.migration_freeze_hold_micros > 0) {
      // Test seam: hold the freeze open so watchdog interplay is testable.
      std::this_thread::sleep_for(
          std::chrono::microseconds(supervision.migration_freeze_hold_micros));
    }
    MarkerOutcome outcome = MarkerOutcome::kResume;
    {
      std::unique_lock<std::mutex> lock(mig_mu);
      const auto it = migration_runs.find(migration_id);
      if (it == migration_runs.end()) {
        // Unknown marker (stale duplicate): resume untouched.
        if (task_quiesced != nullptr) {
          task_quiesced[task.id].store(0, std::memory_order_release);
        }
        return MarkerOutcome::kResume;
      }
      MigrationRun& run = it->second;
      if (run.phase == MigPhase::kFreezing) {
        run.blob = std::move(blob);
        run.phase = MigPhase::kFrozen;
        mig_cv.notify_all();
        if (run.remote_coordinator) {
          // The coordinator lives on rank 0: ship the frozen state there.
          ControlFrame frame;
          frame.kind = ControlKind::kState;
          frame.migration_id = run.id;
          frame.task_id = task.id;
          frame.worker = run.target_worker;
          frame.blob = run.blob;
          lock.unlock();
          if (!transport->SendControl(0, frame)) {
            MarkFailed("migration " + std::to_string(run.id) +
                       ": cannot ship state to the coordinator");
          }
          lock.lock();
        }
      }
      // Wait for the verdict. A failed run resumes untouched — the closed
      // queues end the executor on their own.
      while (run.phase != MigPhase::kRestoreLocal &&
             run.phase != MigPhase::kDecommission && run.phase != MigPhase::kAbort &&
             !failed.load(std::memory_order_acquire)) {
        mig_cv.wait_for(lock, std::chrono::milliseconds(10));
      }
      const MigPhase verdict = run.phase;
      if (verdict == MigPhase::kRestoreLocal) {
        MigrationState adopted;
        const Status status =
            DecodeMigrationState(run.blob.data(), run.blob.size(), &adopted);
        if (status.ok()) {
          run.phase = MigPhase::kRestored;
          outcome = MarkerOutcome::kReincarnate;
          *reincarnate = std::move(adopted);
        } else {
          run.phase = MigPhase::kAbort;
          MarkFailed("migration " + std::to_string(run.id) +
                     ": restore rejected: " + status.message());
        }
        run.blob.clear();
        mig_cv.notify_all();
      } else if (verdict == MigPhase::kDecommission) {
        // The task now runs on run.target_worker. Update the local view
        // (idempotent when the coordinator already flipped it) and exit
        // without Finish or EOS — the new incarnation owns those.
        outcome = MarkerOutcome::kDecommission;
        tasks[task.id].worker = run.target_worker;
        if (live_worker != nullptr) {
          live_worker[task.id].store(run.target_worker, std::memory_order_release);
        }
        hosted[task.id] = 0;
        run.blob.clear();
      } else {
        run.blob.clear();  // abort / failed run: resume untouched
      }
      if (run.remote_coordinator) {
        migrations_in_flight.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (task_quiesced != nullptr) {
      task_quiesced[task.id].store(0, std::memory_order_release);
    }
    return outcome;
  };

  while (remaining > 0) {
    inbox.clear();
    const int64_t pop_t0 = NowNanos();
    const size_t popped = task.queue->PopBatch(&inbox, batch_size);
    m.idle_nanos.Add(static_cast<uint64_t>(NowNanos() - pop_t0));
    if (popped == 0) break;  // closed
    if (elastic) {
      bool has_marker = false;
      for (const Envelope& env : inbox) {
        if (env.source_task == kMigrationMarkerTask) {
          has_marker = true;
          break;
        }
      }
      if (has_marker) {
        // Split the batch at each marker: data before a marker belongs to
        // the pre-freeze boundary and must execute before the snapshot.
        segment.clear();
        MarkerOutcome outcome = MarkerOutcome::kResume;
        for (Envelope& env : inbox) {
          if (env.source_task != kMigrationMarkerTask) {
            segment.push_back(std::move(env));
            continue;
          }
          if (!process_segment(segment)) {
            gave_up = true;
            break;
          }
          outcome = handle_marker(env.link_seq);
          if (outcome != MarkerOutcome::kResume) break;
        }
        if (gave_up) break;
        if (outcome == MarkerOutcome::kReincarnate) {
          m.busy_nanos.Add(
              static_cast<uint64_t>(ThreadCpuNanos() - cpu_start + simulated_busy_ns));
          return true;
        }
        if (outcome == MarkerOutcome::kDecommission) {
          m.busy_nanos.Add(
              static_cast<uint64_t>(ThreadCpuNanos() - cpu_start + simulated_busy_ns));
          NoteTaskExit(task.id);
          return false;
        }
        if (!process_segment(segment)) {
          gave_up = true;
          break;
        }
        continue;
      }
    }
    if (!process_segment(inbox)) {
      gave_up = true;
      break;
    }
  }

  if (gave_up) {
    MarkFailed("bolt task " + comp.name + "[" + std::to_string(task.local_index) +
               "] exceeded max_restarts=" + std::to_string(supervision.max_restarts));
    // Unblock producers stuck on this task's full queue; new pushes are
    // rejected, so upstream drains to its own EOS without us.
    task.queue->Close();
    collector.FlushAll();
    collector.SendEosAll();  // downstream still needs to terminate
  } else {
    if (chain != nullptr) {
      // Settle in-flight checkpoints so end-of-run counters and spill
      // segment GC are deterministic before Finish publishes stats.
      ckpt_service->Barrier(task.id);
      confirm_durable();
    }
    task.bolt->Finish(collector);
    collector.FlushAll();
    collector.SendEosAll();
  }
  m.busy_nanos.Add(
      static_cast<uint64_t>(ThreadCpuNanos() - cpu_start + simulated_busy_ns));
  NoteTaskExit(task.id);
  return false;
}

Status TopologyImpl::MigrateTaskId(int task_id, int target_worker) {
  if (!elastic) {
    return Status::FailedPrecondition("topology is not elastic (TopologyBuilder::SetElastic)");
  }
  if (!submitted) return Status::FailedPrecondition("topology not submitted");
  if (task_id < 0 || task_id >= static_cast<int>(tasks.size())) {
    return Status::NotFound("no such task id " + std::to_string(task_id));
  }
  Task& task = tasks[static_cast<size_t>(task_id)];
  const ComponentSpec& comp = *comps[task.comp];
  if (comp.is_spout) {
    return Status::InvalidArgument("cannot migrate spout task " + comp.name + "[" +
                                   std::to_string(task.local_index) + "]");
  }
  if (target_worker < 0 || target_worker >= num_workers) {
    return Status::OutOfRange("target worker " + std::to_string(target_worker) +
                              " outside [0, " + std::to_string(num_workers) + ")");
  }
  const bool hosts_all = transport == nullptr || transport->hosts_all_tasks();
  if (!hosts_all) {
    if (local_rank != 0) {
      return Status::FailedPrecondition("only the coordinator (rank 0) may migrate tasks");
    }
    // PauseGate quiesces producers through process-local gates, so every
    // producer feeding the task must execute on this rank.
    for (const auto& [src_name, grouping] : comp.inputs) {
      (void)grouping;
      const ComponentSpec& src = *comps[static_cast<size_t>(comp_index.at(src_name))];
      for (int i = 0; i < src.parallelism; ++i) {
        if (!Hosted(src.first_task + i)) {
          return Status::FailedPrecondition("producer " + src.name + "[" + std::to_string(i) +
                                            "] is not hosted on the coordinator");
        }
      }
    }
  }

  // One migration at a time: concurrent callers serialize here.
  std::lock_guard<std::mutex> serial(elastic_mu);
  const int src_rank = WorkerOf(task_id);
  if (src_rank == target_worker) return Status::OK();
  const bool src_local = hosts_all || src_rank == local_rank;
  if (src_local && task_exited != nullptr &&
      task_exited[static_cast<size_t>(task_id)].load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition("task already exited (stream finished)");
  }
  if (failed.load(std::memory_order_acquire)) {
    return Status::Internal("topology already failed");
  }

  uint32_t migration_id = 0;
  {
    std::lock_guard<std::mutex> lock(mig_mu);
    migration_id = next_migration_id++;
    MigrationRun run;
    run.id = migration_id;
    run.task_id = task_id;
    run.target_worker = target_worker;
    run.remote_coordinator = false;
    run.phase = MigPhase::kFreezing;
    migration_runs.emplace(migration_id, std::move(run));
  }
  migrations_in_flight.fetch_add(1, std::memory_order_acq_rel);
  const int64_t t0 = NowNanos();

  const auto abort_run = [&](Status status) {
    {
      std::lock_guard<std::mutex> lock(mig_mu);
      MigrationRun& run = migration_runs.at(migration_id);
      if (run.phase == MigPhase::kFreezing || run.phase == MigPhase::kFrozen ||
          run.phase == MigPhase::kShipped) {
        run.phase = MigPhase::kAbort;
        run.blob.clear();
      }
      mig_cv.notify_all();
    }
    ResumeGate(task_id);
    migrations_in_flight.fetch_sub(1, std::memory_order_acq_rel);
    return status;
  };

  // 1. Quiesce: park every producer push into the task and wait out
  //    in-flight ones, so the freeze marker lands at an exact boundary.
  PauseGate(task_id);

  // 2. Freeze: inject the marker (directly, or via PREPARE to the source
  //    rank) and wait for the executor to snapshot and publish the blob.
  if (src_local) {
    if (task.queue == nullptr ||
        task.queue->Push(Envelope{Tuple(), kMigrationMarkerTask, /*eos=*/false, 0,
                                  static_cast<uint64_t>(migration_id)}) == 0) {
      return abort_run(Status::FailedPrecondition("task queue already closed"));
    }
  } else {
    ControlFrame frame;
    frame.kind = ControlKind::kPrepare;
    frame.migration_id = migration_id;
    frame.task_id = task_id;
    frame.worker = target_worker;
    if (!transport->SendControl(src_rank, frame)) {
      return abort_run(Status::Internal("cannot reach source rank " + std::to_string(src_rank)));
    }
  }
  {
    std::unique_lock<std::mutex> lock(mig_mu);
    MigrationRun& run = migration_runs.at(migration_id);
    while (run.phase == MigPhase::kFreezing && !failed.load(std::memory_order_acquire) &&
           !run_over.load(std::memory_order_acquire) &&
           !(src_local && task_exited != nullptr &&
             task_exited[static_cast<size_t>(task_id)].load(std::memory_order_acquire) != 0)) {
      mig_cv.wait_for(lock, std::chrono::milliseconds(5));
    }
    if (run.phase != MigPhase::kFrozen) {
      const bool aborted = run.phase == MigPhase::kAbort;
      lock.unlock();
      if (aborted || failed.load(std::memory_order_acquire)) {
        // kAbort here means the source could not freeze (task finished
        // first) — benign for scripted schedules that race stream end.
        return abort_run(failed.load(std::memory_order_acquire)
                             ? Status::Internal("topology failed during freeze")
                             : Status::FailedPrecondition("task finished before freezing"));
      }
      return abort_run(Status::FailedPrecondition("task finished before freezing"));
    }
  }

  std::string blob;
  {
    std::lock_guard<std::mutex> lock(mig_mu);
    blob = migration_runs.at(migration_id).blob;
  }
  const uint64_t blob_bytes = blob.size();

  // 3. Handoff: route flips while producers are still parked, then the
  //    verdict releases (or decommissions) the frozen incarnation.
  if (hosts_all) {
    FlipRoute(task_id, target_worker);
    {
      std::lock_guard<std::mutex> lock(mig_mu);
      migration_runs.at(migration_id).phase = MigPhase::kRestoreLocal;
      mig_cv.notify_all();
    }
    ResumeGate(task_id);
    std::unique_lock<std::mutex> lock(mig_mu);
    MigrationRun& run = migration_runs.at(migration_id);
    while (run.phase != MigPhase::kRestored && run.phase != MigPhase::kAbort &&
           !failed.load(std::memory_order_acquire)) {
      mig_cv.wait_for(lock, std::chrono::milliseconds(5));
    }
    if (run.phase != MigPhase::kRestored) {
      lock.unlock();
      migrations_in_flight.fetch_sub(1, std::memory_order_acq_rel);
      return Status::Internal("migration " + std::to_string(migration_id) +
                              " aborted during restore");
    }
  } else if (target_worker == local_rank) {
    // The task moves onto the coordinator: activate locally, flip, and tell
    // the remote source to decommission its frozen incarnation.
    if (!ActivateMigratedTask(migration_id, task_id, std::move(blob),
                              /*notify_coordinator=*/false)) {
      return abort_run(Status::Internal("migration " + std::to_string(migration_id) +
                                        ": local activation failed"));
    }
    FlipRoute(task_id, target_worker);
    ControlFrame ack;
    ack.kind = ControlKind::kAck;
    ack.migration_id = migration_id;
    ack.task_id = task_id;
    ack.worker = target_worker;
    if (!transport->SendControl(src_rank, ack)) {
      MarkFailed("migration " + std::to_string(migration_id) +
                 ": cannot decommission source rank " + std::to_string(src_rank));
    }
    {
      std::lock_guard<std::mutex> lock(mig_mu);
      MigrationRun& run = migration_runs.at(migration_id);
      run.phase = MigPhase::kRestored;
      run.blob.clear();
      mig_cv.notify_all();
    }
    ResumeGate(task_id);
  } else {
    // Remote target: ship the blob, wait for its HANDOFF, flip, then
    // decommission the source (local verdict or ACK frame).
    {
      std::lock_guard<std::mutex> lock(mig_mu);
      migration_runs.at(migration_id).phase = MigPhase::kShipped;
    }
    ControlFrame state;
    state.kind = ControlKind::kState;
    state.migration_id = migration_id;
    state.task_id = task_id;
    state.worker = target_worker;
    state.blob = std::move(blob);
    if (!transport->SendControl(target_worker, state)) {
      return abort_run(Status::Internal("cannot ship state to rank " +
                                        std::to_string(target_worker)));
    }
    {
      std::unique_lock<std::mutex> lock(mig_mu);
      MigrationRun& run = migration_runs.at(migration_id);
      while (run.phase == MigPhase::kShipped && !failed.load(std::memory_order_acquire) &&
             !run_over.load(std::memory_order_acquire)) {
        mig_cv.wait_for(lock, std::chrono::milliseconds(5));
      }
      if (run.phase != MigPhase::kHandoff) {
        lock.unlock();
        if (run_over.load(std::memory_order_acquire)) {
          return abort_run(Status::FailedPrecondition("run finished before the handoff"));
        }
        return abort_run(Status::Internal("migration " + std::to_string(migration_id) +
                                          ": handoff did not complete"));
      }
    }
    FlipRoute(task_id, target_worker);
    if (src_local) {
      std::lock_guard<std::mutex> lock(mig_mu);
      MigrationRun& run = migration_runs.at(migration_id);
      run.phase = MigPhase::kDecommission;
      mig_cv.notify_all();
    } else {
      ControlFrame ack;
      ack.kind = ControlKind::kAck;
      ack.migration_id = migration_id;
      ack.task_id = task_id;
      ack.worker = target_worker;
      if (!transport->SendControl(src_rank, ack)) {
        MarkFailed("migration " + std::to_string(migration_id) +
                   ": cannot decommission source rank " + std::to_string(src_rank));
      }
      std::lock_guard<std::mutex> lock(mig_mu);
      MigrationRun& run = migration_runs.at(migration_id);
      run.phase = MigPhase::kDecommission;
      run.blob.clear();
    }
    ResumeGate(task_id);
  }

  TaskMetrics& m = *task.metrics;
  m.migrations.Increment();
  m.migration_bytes.Add(blob_bytes);
  m.migration_nanos.Add(static_cast<uint64_t>(NowNanos() - t0));
  migrations_in_flight.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

void TopologyImpl::HandleControl(ControlFrame&& frame) {
  switch (frame.kind) {
    case ControlKind::kPrepare: {
      // Coordinator asks this rank to freeze one of its tasks.
      const int task_id = frame.task_id;
      if (task_id < 0 || task_id >= static_cast<int>(tasks.size()) || !Hosted(task_id) ||
          tasks[static_cast<size_t>(task_id)].queue == nullptr) {
        MarkFailed("migration " + std::to_string(frame.migration_id) +
                   ": PREPARE for a task not hosted here");
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mig_mu);
        if (migration_runs.count(frame.migration_id) != 0) return;  // duplicate PREPARE
        MigrationRun run;
        run.id = frame.migration_id;
        run.task_id = task_id;
        run.target_worker = frame.worker;
        run.remote_coordinator = true;
        run.phase = MigPhase::kFreezing;
        migration_runs.emplace(frame.migration_id, std::move(run));
      }
      migrations_in_flight.fetch_add(1, std::memory_order_acq_rel);
      if (tasks[static_cast<size_t>(task_id)].queue->Push(
              Envelope{Tuple(), kMigrationMarkerTask, /*eos=*/false, 0,
                       static_cast<uint64_t>(frame.migration_id)}) == 0) {
        // Queue closed: the task finished first. Tell the coordinator the
        // freeze is off (an ACK toward rank 0 only ever means that).
        {
          std::lock_guard<std::mutex> lock(mig_mu);
          migration_runs.at(frame.migration_id).phase = MigPhase::kAbort;
          mig_cv.notify_all();
        }
        migrations_in_flight.fetch_sub(1, std::memory_order_acq_rel);
        ControlFrame nak;
        nak.kind = ControlKind::kAck;
        nak.migration_id = frame.migration_id;
        nak.task_id = task_id;
        nak.worker = 0;
        transport->SendControl(0, nak);
      }
      return;
    }
    case ControlKind::kState: {
      if (local_rank == 0) {
        // Frozen state arriving back at the coordinator from a remote
        // source; MigrateTaskId is waiting on the phase.
        std::lock_guard<std::mutex> lock(mig_mu);
        const auto it = migration_runs.find(frame.migration_id);
        if (it != migration_runs.end() && it->second.phase == MigPhase::kFreezing) {
          it->second.blob = std::move(frame.blob);
          it->second.phase = MigPhase::kFrozen;
          mig_cv.notify_all();
        }
        return;
      }
      // Target rank: adopt the task and confirm with HANDOFF.
      ActivateMigratedTask(frame.migration_id, frame.task_id, std::move(frame.blob),
                           /*notify_coordinator=*/true);
      return;
    }
    case ControlKind::kHandoff: {
      std::lock_guard<std::mutex> lock(mig_mu);
      const auto it = migration_runs.find(frame.migration_id);
      if (it != migration_runs.end() && it->second.phase == MigPhase::kShipped) {
        it->second.phase = MigPhase::kHandoff;
        mig_cv.notify_all();
      }
      return;
    }
    case ControlKind::kAck: {
      std::lock_guard<std::mutex> lock(mig_mu);
      const auto it = migration_runs.find(frame.migration_id);
      if (it == migration_runs.end()) return;
      MigrationRun& run = it->second;
      if (run.remote_coordinator && run.phase == MigPhase::kFrozen) {
        // Coordinator's verdict: the task now lives elsewhere.
        run.phase = MigPhase::kDecommission;
      } else if (!run.remote_coordinator && run.phase == MigPhase::kFreezing) {
        // Source rank could not freeze (task finished first).
        run.phase = MigPhase::kAbort;
      }
      mig_cv.notify_all();
      return;
    }
    case ControlKind::kFinish: {
      // Coordinator's run-over broadcast: no task can migrate here anymore,
      // so Wait()'s elastic finish hold can release.
      std::lock_guard<std::mutex> lock(mig_mu);
      coordinator_done = true;
      mig_cv.notify_all();
      return;
    }
  }
}

bool TopologyImpl::ActivateMigratedTask(uint32_t migration_id, int task_id, std::string blob,
                                        bool notify_coordinator) {
  {
    std::lock_guard<std::mutex> lock(mig_mu);
    if (!activated_migrations.insert(migration_id).second) return true;  // duplicate STATE
  }
  MigrationState st;
  const Status status = DecodeMigrationState(blob.data(), blob.size(), &st);
  if (!status.ok()) {
    MarkFailed("migration " + std::to_string(migration_id) + ": " + status.message());
    return false;
  }
  if (task_id < 0 || task_id >= static_cast<int>(tasks.size()) ||
      st.task_id != static_cast<uint32_t>(task_id)) {
    MarkFailed("migration " + std::to_string(migration_id) + ": blob/task mismatch");
    return false;
  }
  Task& task = tasks[static_cast<size_t>(task_id)];
  const ComponentSpec& comp = *comps[task.comp];
  if (comp.is_spout || task.queue == nullptr) {
    MarkFailed("migration " + std::to_string(migration_id) + ": task not migratable here");
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mig_mu);
    task.worker = local_rank;
    if (live_worker != nullptr) {
      live_worker[static_cast<size_t>(task_id)].store(local_rank, std::memory_order_release);
    }
    hosted[static_cast<size_t>(task_id)] = 1;
    ever_hosted[static_cast<size_t>(task_id)] = 1;
  }
  if (task_exited != nullptr) {
    task_exited[static_cast<size_t>(task_id)].store(0, std::memory_order_relaxed);
  }
  // Fresh incarnation: the dormant Build-time bolt was never Prepared.
  task.bolt = comp.bolt_factory();
  CHECK(task.bolt != nullptr);
  {
    std::lock_guard<std::mutex> lock(mig_mu);
    elastic_threads.push_back(std::thread(
        [this, &task, st = std::move(st)]() mutable { RunBoltTask(task, &st); }));
  }
  if (notify_coordinator) {
    ControlFrame frame;
    frame.kind = ControlKind::kHandoff;
    frame.migration_id = migration_id;
    frame.task_id = task_id;
    frame.worker = local_rank;
    if (!transport->SendControl(0, frame)) {
      MarkFailed("migration " + std::to_string(migration_id) + ": cannot confirm handoff");
      return false;
    }
  }
  return true;
}

uint64_t TopologyImpl::SpoutEmitted() const {
  uint64_t emitted = 0;
  for (const Task& task : tasks) {
    if (comps[task.comp]->is_spout) emitted += task.metrics->emitted.Get();
  }
  return emitted;
}

void TopologyImpl::WaitForDueAction() const {
  for (;;) {
    const uint64_t hold = action_hold.load(std::memory_order_acquire);
    if (hold == kNoHold || failed.load(std::memory_order_acquire) || SpoutEmitted() < hold) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void TopologyImpl::RunActionDriver() {
  size_t next = 0;
  while (next < actions.size() && !driver_stop.load(std::memory_order_acquire) &&
         !failed.load(std::memory_order_acquire)) {
    const uint64_t emitted = SpoutEmitted();
    bool any_alive = false;
    for (Task& task : tasks) {
      if (task_exited != nullptr &&
          task_exited[static_cast<size_t>(task.id)].load(std::memory_order_relaxed) == 0) {
        any_alive = true;
      }
    }
    while (next < actions.size() && actions[next].at_seq <= emitted) {
      const ResolvedAction& action = actions[next++];
      if (action.is_kill) {
        // "Kill worker": every bolt task currently placed on the rank
        // crashes at its next execution step (spouts are the workload
        // source; killing them would change the input, not test recovery).
        for (Task& task : tasks) {
          if (!comps[task.comp]->is_spout && WorkerOf(task.id) == action.rank) {
            dyn_kill[static_cast<size_t>(task.id)].store(1, std::memory_order_release);
          }
        }
      } else {
        const Status status = MigrateTaskId(action.task_id, action.target_worker);
        if (!status.ok() && status.code() != StatusCode::kFailedPrecondition) {
          // FailedPrecondition = the task finished before the scripted
          // point — benign for schedules that race stream end.
          MarkFailed("scripted migration failed: " + status.message());
        }
      }
    }
    action_hold.store(next < actions.size() ? actions[next].at_seq : kNoHold,
                      std::memory_order_release);
    if (!any_alive) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  action_hold.store(kNoHold, std::memory_order_release);  // never strand a spout
}

}  // namespace internal_topology

using internal_topology::ComponentSpec;
using internal_topology::ResolvedLinkFault;
using internal_topology::Subscription;
using internal_topology::Task;
using internal_topology::TopologyImpl;

// --- Declarers ---------------------------------------------------------

namespace {

void AddInput(ComponentSpec* spec, const std::string& source, GroupingType grouping) {
  for (const auto& [name, _] : spec->inputs) {
    CHECK(name != source) << "duplicate subscription of " << spec->name << " to " << source;
  }
  spec->inputs.emplace_back(source, grouping);
}

/// Pins an executor thread to one core (SetPinThreads). Linux-only; a no-op
/// elsewhere, and best-effort on Linux (a failed setaffinity just leaves
/// the thread floating — pinning is a measurement aid, not a correctness
/// requirement).
void PinThreadToCore(std::thread& thread, unsigned core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)core;
#endif
}

}  // namespace

BoltDeclarer& BoltDeclarer::ShuffleGrouping(const std::string& source) {
  AddInput(spec_, source, GroupingType::kShuffle);
  return *this;
}
BoltDeclarer& BoltDeclarer::GlobalGrouping(const std::string& source) {
  AddInput(spec_, source, GroupingType::kGlobal);
  return *this;
}
BoltDeclarer& BoltDeclarer::DirectGrouping(const std::string& source) {
  AddInput(spec_, source, GroupingType::kDirect);
  return *this;
}
BoltDeclarer& BoltDeclarer::PartnerGrouping(const std::string& source) {
  AddInput(spec_, source, GroupingType::kPartner);
  return *this;
}
BoltDeclarer& BoltDeclarer::SetPlacement(std::vector<int> workers) {
  spec_->placement = std::move(workers);
  return *this;
}
SpoutDeclarer& SpoutDeclarer::SetPlacement(std::vector<int> workers) {
  spec_->placement = std::move(workers);
  return *this;
}

// --- Builder ------------------------------------------------------------

TopologyBuilder::TopologyBuilder() : impl_(std::make_unique<TopologyImpl>()) {}
TopologyBuilder::~TopologyBuilder() = default;

SpoutDeclarer TopologyBuilder::SetSpout(const std::string& name, SpoutFactory factory,
                                        int parallelism) {
  CHECK(impl_ != nullptr) << "builder already consumed";
  CHECK(factory != nullptr);
  CHECK_GE(parallelism, 1);
  CHECK(impl_->comp_index.find(name) == impl_->comp_index.end())
      << "duplicate component " << name;
  auto spec = std::make_unique<ComponentSpec>();
  spec->name = name;
  spec->is_spout = true;
  spec->spout_factory = std::move(factory);
  spec->parallelism = parallelism;
  impl_->comp_index[name] = static_cast<int>(impl_->comps.size());
  impl_->comps.push_back(std::move(spec));
  return SpoutDeclarer(impl_->comps.back().get());
}

BoltDeclarer TopologyBuilder::SetBolt(const std::string& name, BoltFactory factory,
                                      int parallelism) {
  CHECK(impl_ != nullptr) << "builder already consumed";
  CHECK(factory != nullptr);
  CHECK_GE(parallelism, 1);
  CHECK(impl_->comp_index.find(name) == impl_->comp_index.end())
      << "duplicate component " << name;
  auto spec = std::make_unique<ComponentSpec>();
  spec->name = name;
  spec->is_spout = false;
  spec->bolt_factory = std::move(factory);
  spec->parallelism = parallelism;
  impl_->comp_index[name] = static_cast<int>(impl_->comps.size());
  impl_->comps.push_back(std::move(spec));
  return BoltDeclarer(impl_->comps.back().get());
}

TopologyBuilder& TopologyBuilder::SetNumWorkers(int workers) {
  CHECK_GE(workers, 1);
  impl_->num_workers = workers;
  return *this;
}

TopologyBuilder& TopologyBuilder::SetQueueCapacity(size_t capacity) {
  CHECK_GE(capacity, 1u);
  impl_->queue_capacity = capacity;
  return *this;
}

TopologyBuilder& TopologyBuilder::SetPinThreads(bool pin) {
  impl_->pin_threads = pin;
  return *this;
}

TopologyBuilder& TopologyBuilder::SetBatchSize(size_t batch_size) {
  CHECK_GE(batch_size, 1u);
  impl_->batch_size = batch_size;
  return *this;
}

TopologyBuilder& TopologyBuilder::SetRemoteByteCostNanos(double nanos_per_byte) {
  CHECK_GE(nanos_per_byte, 0.0);
  impl_->remote_byte_cost_ns = nanos_per_byte;
  return *this;
}

TopologyBuilder& TopologyBuilder::SetOverload(OverloadOptions options) {
  CHECK_GT(options.shed_watermark, 0.0);
  CHECK_LE(options.shed_watermark, 1.0);
  CHECK_GE(options.watchdog_interval_micros, 1);
  CHECK_GE(options.stall_timeout_micros, 0);
  impl_->overload = options;
  impl_->overload_active = options.enabled();
  return *this;
}

TopologyBuilder& TopologyBuilder::SetSupervision(SupervisorOptions options) {
  CHECK_GE(options.max_restarts, 0);
  CHECK_GE(options.initial_backoff_micros, 0);
  CHECK_GE(options.max_backoff_micros, options.initial_backoff_micros);
  impl_->supervision = options;
  impl_->supervised = true;
  return *this;
}

TopologyBuilder& TopologyBuilder::SetStore(store::StoreOptions options) {
  impl_->store_opts = std::move(options);
  return *this;
}

TopologyBuilder& TopologyBuilder::SetFaultScript(FaultScript script) {
  impl_->fault_script = std::move(script);
  if (!impl_->fault_script.empty()) {
    impl_->fault_active = true;
    impl_->supervised = true;  // kills need a supervisor; defaults apply
  }
  return *this;
}

TopologyBuilder& TopologyBuilder::SetElastic(bool elastic) {
  impl_->elastic = elastic;
  return *this;
}

TopologyBuilder& TopologyBuilder::SetTransport(std::shared_ptr<Transport> transport) {
  impl_->transport = std::move(transport);
  return *this;
}

std::unique_ptr<Topology> TopologyBuilder::Build() {
  CHECK(impl_ != nullptr) << "builder already consumed";
  TopologyImpl& t = *impl_;
  CHECK(!t.built);
  t.built = true;

  // Resolve subscriptions.
  for (size_t ci = 0; ci < t.comps.size(); ++ci) {
    ComponentSpec& comp = *t.comps[ci];
    CHECK(comp.is_spout || !comp.inputs.empty())
        << "bolt " << comp.name << " has no input subscription";
    CHECK(!comp.is_spout || comp.inputs.empty()) << "spouts cannot subscribe to streams";
    for (auto& [source, grouping] : comp.inputs) {
      const auto it = t.comp_index.find(source);
      CHECK(it != t.comp_index.end())
          << comp.name << " subscribes to unknown component " << source;
      CHECK(static_cast<size_t>(it->second) != ci) << "self-loop on " << comp.name;
      if (grouping == GroupingType::kPartner) {
        CHECK_EQ(t.comps[it->second]->parallelism, comp.parallelism)
            << "partner grouping " << source << " -> " << comp.name
            << " requires matching parallelism";
      }
      t.comps[it->second]->subs_out.push_back(
          Subscription{static_cast<int>(ci), grouping});
      comp.upstream_tasks += t.comps[it->second]->parallelism;
    }
  }

  // Cycle check (DFS, 0=unvisited 1=in-stack 2=done).
  {
    std::vector<int> state(t.comps.size(), 0);
    std::function<void(int)> dfs = [&](int u) {
      state[u] = 1;
      for (const Subscription& sub : t.comps[u]->subs_out) {
        CHECK(state[sub.consumer_comp] != 1) << "topology contains a cycle";
        if (state[sub.consumer_comp] == 0) dfs(sub.consumer_comp);
      }
      state[u] = 2;
    };
    for (size_t i = 0; i < t.comps.size(); ++i) {
      if (state[i] == 0) dfs(static_cast<int>(i));
    }
  }

  // Materialize tasks. With a real (non-hosts-all) transport this process
  // instantiates components only for the tasks placed on its own rank; the
  // rest exist as metric slots, and the per-rank placement must agree
  // across processes (every rank runs the same Build on the same spec).
  const bool hosts_all = t.transport == nullptr || t.transport->hosts_all_tasks();
  if (t.transport != nullptr) {
    t.local_rank = t.transport->local_rank();
    if (!hosts_all) {
      CHECK_EQ(t.num_workers, t.transport->num_ranks())
          << "SetNumWorkers must equal the transport's world size";
    }
  }
  if (t.fault_script.has_progress_actions()) {
    // The action driver reads every task's progress and flips routes
    // directly; both need the whole topology in one process.
    CHECK(hosts_all) << "kill_worker/migrate fault actions require a single-process "
                        "(hosts-all) topology; drive real ranks via Topology::MigrateTask";
    t.elastic = true;
  }
  if (t.elastic) t.supervised = true;  // the migration blob doubles as a checkpoint
  for (auto& comp_ptr : t.comps) {
    ComponentSpec& comp = *comp_ptr;
    comp.first_task = static_cast<int>(t.tasks.size());
    if (!comp.placement.empty()) {
      CHECK_EQ(comp.placement.size(), static_cast<size_t>(comp.parallelism))
          << "placement size mismatch for " << comp.name;
    }
    for (int i = 0; i < comp.parallelism; ++i) {
      Task task;
      task.id = static_cast<int>(t.tasks.size());
      task.comp = static_cast<int>(&comp_ptr - t.comps.data());
      task.local_index = i;
      task.worker = comp.placement.empty() ? i % t.num_workers : comp.placement[i];
      CHECK_GE(task.worker, 0);
      CHECK_LT(task.worker, t.num_workers);
      task.metrics = std::make_unique<TaskMetrics>();
      const bool host_here = hosts_all || task.worker == t.local_rank;
      t.hosted.push_back(host_here ? 1 : 0);
      // Elastic + real transport: every rank materializes dormant bolt
      // instances (and queues) for tasks placed elsewhere, so any rank can
      // adopt a migrated task at runtime. Only hosted tasks get executors.
      const bool materialize = host_here || (t.elastic && !comp.is_spout && !hosts_all);
      if (!materialize) {
        t.tasks.push_back(std::move(task));
        continue;
      }
      if (comp.is_spout) {
        task.spout = comp.spout_factory();
        CHECK(task.spout != nullptr);
      } else {
        task.bolt = comp.bolt_factory();
        CHECK(task.bolt != nullptr);
        task.queue = std::make_unique<RingQueue<Envelope>>(t.queue_capacity);
      }
      t.tasks.push_back(std::move(task));
    }
  }

  t.ever_hosted = t.hosted;  // migrations extend this; Build placement seeds it

  if (!t.store_opts.dir.empty()) {
    CHECK(t.supervised) << "a store directory requires SetSupervision";
    const Status st = store::EnsureDir(t.store_opts.dir);
    CHECK(st.ok()) << "cannot create store dir " << t.store_opts.dir << ": " << st.message();
  }
  if (t.supervised && t.supervision.checkpoint_interval > 0) {
    // One chain per bolt this rank materializes — dormant elastic bolts
    // included, so a task adopted mid-run checkpoints like any other.
    // Per-task chain directories are disjoint, so multi-rank runs over a
    // shared filesystem never race each other; stale contents are
    // truncated when the executor starts its incarnation.
    t.task_stores.resize(t.tasks.size());
    for (Task& task : t.tasks) {
      if (task.bolt == nullptr) continue;
      t.task_stores[task.id] = std::make_unique<store::StateStore>(
          t.store_opts.dir.empty() ? std::string()
                                   : t.store_opts.dir + "/task_" + std::to_string(task.id));
      if (t.ckpt_service == nullptr) t.ckpt_service = std::make_unique<store::CheckpointService>();
    }
  }

  if (t.overload_active) {
    t.task_exited = std::make_unique<std::atomic<uint8_t>[]>(t.tasks.size());
    for (size_t i = 0; i < t.tasks.size(); ++i) {
      // Non-hosted tasks run elsewhere; for the local watchdog they are
      // permanently "exited" (their progress is invisible here).
      t.task_exited[i].store(t.Hosted(static_cast<int>(i)) ? 0 : 1,
                             std::memory_order_relaxed);
      if (t.tasks[i].queue != nullptr) t.tasks[i].queue->EnableHealthTracking();
    }
  }

  if (t.elastic) {
    t.gates.resize(t.tasks.size());
    for (auto& gate : t.gates) gate = std::make_unique<TopologyImpl::TaskGate>();
    t.task_quiesced = std::make_unique<std::atomic<uint8_t>[]>(t.tasks.size());
    t.live_worker = std::make_unique<std::atomic<int>[]>(t.tasks.size());
    for (size_t i = 0; i < t.tasks.size(); ++i) {
      t.task_quiesced[i].store(0, std::memory_order_relaxed);
      t.live_worker[i].store(t.tasks[i].worker, std::memory_order_relaxed);
    }
    if (t.task_exited == nullptr) {
      // The migration driver and Wait() need exit tracking even without
      // overload control.
      t.task_exited = std::make_unique<std::atomic<uint8_t>[]>(t.tasks.size());
      for (size_t i = 0; i < t.tasks.size(); ++i) {
        t.task_exited[i].store(t.Hosted(static_cast<int>(i)) ? 0 : 1,
                               std::memory_order_relaxed);
      }
    }
  }

  // Resolve the fault script against the materialized tasks. Script errors
  // are configuration errors, so they abort like every other Build() check.
  t.kill_plan.assign(t.tasks.size(), {});
  t.link_plan.assign(t.tasks.size(), {});
  const auto resolve_task = [&t](const std::string& component, int index,
                                 const char* what) -> int {
    const auto it = t.comp_index.find(component);
    CHECK(it != t.comp_index.end())
        << "fault script " << what << " references unknown component '" << component << "'";
    const ComponentSpec& comp = *t.comps[it->second];
    CHECK(index >= 0 && index < comp.parallelism)
        << "fault script " << what << " task index " << index << " out of range for "
        << component << " (parallelism " << comp.parallelism << ")";
    return comp.first_task + index;
  };
  for (const KillFault& kill : t.fault_script.kills()) {
    t.kill_plan[resolve_task(kill.component, kill.task_index, "kill")].push_back(
        kill.at_count);
  }
  for (std::vector<uint64_t>& kills : t.kill_plan) std::sort(kills.begin(), kills.end());
  for (const LinkFault& fault : t.fault_script.link_faults()) {
    const int src = resolve_task(fault.src_component, fault.src_index, "link fault source");
    const int dst =
        resolve_task(fault.dst_component, fault.dst_index, "link fault destination");
    const ComponentSpec& src_comp = *t.comps[t.tasks[src].comp];
    bool edge = false;
    for (const Subscription& sub : src_comp.subs_out) {
      if (t.comps[sub.consumer_comp].get() == t.comps[t.tasks[dst].comp].get()) edge = true;
    }
    CHECK(edge) << "fault script link " << fault.src_component << "->" << fault.dst_component
                << " is not an edge of the topology";
    if (!hosts_all &&
        (fault.kind == LinkFaultKind::kDrop || fault.kind == LinkFaultKind::kDuplicate)) {
      // Drop retention (and the consumer-side gap recovery that drains it)
      // lives in one process; across real workers only disconnect faults
      // model network loss.
      CHECK_EQ(t.tasks[src].worker, t.tasks[dst].worker)
          << "scripted drop/dup on " << fault.src_component << "->" << fault.dst_component
          << " crosses workers; with a real transport these faults must stay co-located";
    }
    t.link_plan[src][dst].push_back(
        ResolvedLinkFault{fault.kind, fault.at_seq, fault.delay_micros});
  }
  for (auto& per_dst : t.link_plan) {
    for (auto& [dst, faults] : per_dst) {
      std::sort(faults.begin(), faults.end(),
                [](const ResolvedLinkFault& a, const ResolvedLinkFault& b) {
                  return a.seq < b.seq;
                });
    }
  }

  // Resolve progress-driven actions (kill_worker / migrate statements).
  for (const WorkerKillFault& kill : t.fault_script.worker_kills()) {
    CHECK(kill.rank >= 0 && kill.rank < t.num_workers)
        << "fault script kill_worker rank " << kill.rank << " outside [0, " << t.num_workers
        << ")";
    t.actions.push_back(
        TopologyImpl::ResolvedAction{kill.at_seq, /*is_kill=*/true, kill.rank, -1, -1});
  }
  for (const MigrateAction& mig : t.fault_script.migrations()) {
    const int task_id = resolve_task(mig.component, mig.task_index, "migrate");
    CHECK(!t.comps[t.tasks[task_id].comp]->is_spout)
        << "fault script cannot migrate spout component " << mig.component;
    CHECK(mig.target_worker >= 0 && mig.target_worker < t.num_workers)
        << "fault script migrate target " << mig.target_worker << " outside [0, "
        << t.num_workers << ")";
    t.actions.push_back(TopologyImpl::ResolvedAction{mig.at_seq, /*is_kill=*/false, -1,
                                                     task_id, mig.target_worker});
  }
  std::stable_sort(t.actions.begin(), t.actions.end(),
                   [](const TopologyImpl::ResolvedAction& a,
                      const TopologyImpl::ResolvedAction& b) { return a.at_seq < b.at_seq; });
  if (!t.actions.empty()) {
    t.action_hold.store(t.actions.front().at_seq, std::memory_order_relaxed);
    t.dyn_kill = std::make_unique<std::atomic<uint8_t>[]>(t.tasks.size());
    for (size_t i = 0; i < t.tasks.size(); ++i) {
      t.dyn_kill[i].store(0, std::memory_order_relaxed);
    }
  }

  // Hand the placement to the transport and open the inbound path. The
  // impl pointer outlives the transport's threads: Wait() runs the
  // transport's Finish barrier (joining them) before the impl can die.
  if (t.transport != nullptr) {
    TransportPlan plan;
    plan.num_tasks = static_cast<int>(t.tasks.size());
    plan.task_worker.reserve(t.tasks.size());
    for (const Task& task : t.tasks) plan.task_worker.push_back(task.worker);
    TopologyImpl* tp = &t;
    if (t.elastic && !hosts_all) {
      t.transport->SetControlSink(
          [tp](ControlFrame&& frame) { tp->HandleControl(std::move(frame)); });
    }
    t.transport->Start(
        plan,
        [tp](int dst_task, std::vector<Envelope>&& batch) {
          return tp->DeliverInbound(dst_task, std::move(batch));
        },
        [tp](const std::string& message) { tp->FailFromTransport(message); });
  }

  return std::unique_ptr<Topology>(new Topology(std::move(impl_)));
}

// --- Topology -----------------------------------------------------------

Topology::Topology(std::unique_ptr<TopologyImpl> impl) : impl_(std::move(impl)) {}
Topology::~Topology() {
  if (impl_ != nullptr && impl_->submitted) Wait();
}

void Topology::Submit() {
  TopologyImpl& t = *impl_;
  CHECK(!t.submitted) << "topology already submitted";
  t.submitted = true;
  t.start_us.store(NowMicros(), std::memory_order_relaxed);
  const unsigned ncores = std::max(1u, std::thread::hardware_concurrency());
  unsigned spawned = 0;
  for (Task& task : t.tasks) {
    if (task.spout != nullptr) {
      task.thread = std::thread([&t, &task] { t.RunSpoutTask(task); });
    } else if (task.bolt != nullptr && t.Hosted(task.id)) {
      // Dormant elastic bolts (placed on another rank) get no executor
      // until a migration adopts them.
      task.thread = std::thread([&t, &task] { t.RunBoltTask(task); });
    }
    // Tasks hosted on another rank get no executor here.
    if (t.pin_threads && task.thread.joinable()) {
      PinThreadToCore(task.thread, spawned++ % ncores);
    }
  }
  if (t.overload_active && t.overload.stall_timeout_micros > 0) {
    t.watchdog = std::thread([&t] { t.RunWatchdog(); });
  }
  if (!t.actions.empty()) {
    t.action_driver = std::thread([&t] { t.RunActionDriver(); });
  }
}

void Topology::Wait() {
  TopologyImpl& t = *impl_;
  for (Task& task : t.tasks) {
    if (task.thread.joinable()) task.thread.join();
  }
  if (t.action_driver.joinable()) {
    t.driver_stop.store(true, std::memory_order_release);
    t.action_driver.join();
  }
  // Elastic workers can adopt a migrating task at any point before the
  // coordinator's run ends — even when they hosted nothing at startup (a
  // packed placement leaves spare ranks idle until the controller spreads).
  // Hold the finish barrier until rank 0's run-over broadcast (kFinish) or
  // a failure, so the transport stays accepting and the senders stay open
  // for any task that lands here late.
  if (t.elastic && t.transport != nullptr && !t.transport->hosts_all_tasks() &&
      t.transport->local_rank() != 0) {
    std::unique_lock<std::mutex> lock(t.mig_mu);
    while (!t.coordinator_done && !t.failed.load(std::memory_order_acquire)) {
      t.mig_cv.wait_for(lock, std::chrono::milliseconds(10));
    }
  }
  // Join executors adopted through migrations; new ones can be pushed while
  // we join (a remote STATE can still arrive), so drain in rounds.
  for (;;) {
    std::vector<std::thread> adopted;
    {
      std::lock_guard<std::mutex> lock(t.mig_mu);
      adopted.swap(t.elastic_threads);
    }
    if (adopted.empty()) break;
    for (std::thread& th : adopted) th.join();
  }
  if (t.ckpt_service != nullptr) {
    // Every executor is done; drain the checkpoint queue so the metric
    // shipping below sees final counter values. Stop is idempotent.
    t.ckpt_service->Stop();
  }
  t.StopWatchdog();
  if (t.transport != nullptr && !t.finish_done) {
    t.finish_done = true;
    // End-of-run barrier: workers ship their hosted tasks' counters (and
    // any local failure) to rank 0; rank 0 folds the blobs into its metric
    // slots, so AllTasks()/Aggregate on the coordinator see cluster-wide
    // numbers. Joins every transport thread — after this the impl can die.
    Transport::LocalSummary local;
    local.failed = t.failed.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lock(t.fail_mu);
      local.failure_message = t.failure_message;
    }
    if (!t.transport->hosts_all_tasks()) {
      // Surface connection-health counters through the metric pipeline:
      // they are per-process, so park them on the first task this rank
      // ever hosted (MergeTaskCounters adds, so ranks' counts sum).
      const Transport::NetStats net = t.transport->Stats();
      if (net.connect_retries != 0 || net.reconnects != 0) {
        for (const Task& task : t.tasks) {
          if (t.ever_hosted[static_cast<size_t>(task.id)] == 0) continue;
          task.metrics->net_connect_retries.Add(net.connect_retries);
          task.metrics->net_reconnects.Add(net.reconnects);
          break;
        }
      }
    }
    if (t.transport->local_rank() != 0 && !t.transport->hosts_all_tasks()) {
      for (const Task& task : t.tasks) {
        // ever_hosted, not hosted: a task migrated away mid-run still
        // executed here for a while, and those partial counters must reach
        // the coordinator (the incarnations' counters sum in the merge).
        if (t.ever_hosted[static_cast<size_t>(task.id)] == 0) continue;
        std::string blob;
        SerializeTaskCounters(*task.metrics, &blob);
        local.task_metrics.emplace_back(task.id, std::move(blob));
      }
    }
    // A blob the merge rejects would leave cluster-wide counters (the
    // result count among them) short, so it fails the run.
    std::vector<TaskMetrics*> slots;
    for (Task& task : t.tasks) slots.push_back(task.metrics.get());
    TopologyImpl* tp = &t;
    const Transport::FinishReport report =
        t.transport->Finish(local, [tp, &slots](int task_id, const std::string& blob) {
          const Status st = MergeTaskCounters(task_id, blob, slots);
          if (!st.ok()) tp->MarkFailed(st.message());
        });
    if (report.remote_failed) t.MarkFailed(report.remote_failure);
    // A STATE frame racing the barrier can adopt an executor after the
    // drain above; join any stragglers so no thread outlives the impl.
    std::vector<std::thread> stragglers;
    {
      std::lock_guard<std::mutex> lock(t.mig_mu);
      stragglers.swap(t.elastic_threads);
    }
    for (std::thread& th : stragglers) th.join();
  }
  // The run is over here, on this rank and (past the finish barrier) on
  // every rank: no migration can complete any more. A controller thread
  // still waiting on a remote rank's reply would wait forever, because the
  // transport is gone; release it.
  std::lock_guard<std::mutex> lock(t.mig_mu);
  t.run_over.store(true, std::memory_order_release);
  t.mig_cv.notify_all();
}

void Topology::Run() {
  Submit();
  Wait();
}

double Topology::ElapsedSeconds() const {
  const int64_t start = impl_->start_us.load(std::memory_order_relaxed);
  if (start == 0) return 0.0;
  int64_t end = impl_->end_us.load(std::memory_order_relaxed);
  if (end == 0) end = NowMicros();
  return static_cast<double>(end - start) / 1e6;
}

std::vector<TaskStats> Topology::AllTasks() const {
  std::vector<TaskStats> out;
  out.reserve(impl_->tasks.size());
  for (const Task& task : impl_->tasks) {
    out.push_back(TaskStats{impl_->comps[task.comp]->name, task.local_index, task.id,
                            impl_->CurWorker(task.id), task.metrics.get()});
  }
  return out;
}

std::vector<TaskStats> Topology::TasksOf(const std::string& component) const {
  std::vector<TaskStats> out;
  for (TaskStats& s : AllTasks()) {
    if (s.component == component) out.push_back(std::move(s));
  }
  return out;
}

int Topology::num_workers() const { return impl_->num_workers; }

Status Topology::MigrateTask(const std::string& component, int task_index, int target_worker) {
  const auto it = impl_->comp_index.find(component);
  if (it == impl_->comp_index.end()) {
    return Status::NotFound("unknown component '" + component + "'");
  }
  const ComponentSpec& comp = *impl_->comps[static_cast<size_t>(it->second)];
  if (task_index < 0 || task_index >= comp.parallelism) {
    return Status::OutOfRange("task index " + std::to_string(task_index) +
                              " out of range for " + component + " (parallelism " +
                              std::to_string(comp.parallelism) + ")");
  }
  return impl_->MigrateTaskId(comp.first_task + task_index, target_worker);
}

int Topology::TaskWorker(const std::string& component, int task_index) const {
  const auto it = impl_->comp_index.find(component);
  CHECK(it != impl_->comp_index.end()) << "unknown component " << component;
  const ComponentSpec& comp = *impl_->comps[static_cast<size_t>(it->second)];
  CHECK(task_index >= 0 && task_index < comp.parallelism)
      << "task index " << task_index << " out of range for " << component;
  return impl_->WorkerOf(comp.first_task + task_index);
}

bool Topology::ok() const { return !impl_->failed.load(std::memory_order_acquire); }

std::string Topology::failure_message() const {
  std::lock_guard<std::mutex> lock(impl_->fail_mu);
  return impl_->failure_message;
}

}  // namespace dssj::stream
