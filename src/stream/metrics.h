#ifndef DSSJ_STREAM_METRICS_H_
#define DSSJ_STREAM_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"

namespace dssj::stream {

/// Every per-task run counter, declared once as X(name, merge). `merge` is
/// how two values of a counter combine — over a component's tasks
/// (Aggregate), over ranks (MergeTaskCounters) and into a run's totals: Sum
/// adds, Max keeps the larger. TaskMetrics, CounterTotals and the METRICS
/// blob are generated from this list, and the blob carries the counters in
/// this order, so any edit to the list changes the wire format (bump
/// net::kWireVersion). Adding a counter takes one line here plus the code
/// that writes it.
#define DSSJ_TASK_COUNTERS(X)                                                          \
  /* Data tuples executed (bolts; spouts count 0) and tuples emitted on all edges, */  \
  /* local ones included, with their serialized bytes. */                              \
  X(executed, Sum)                                                                     \
  X(emitted, Sum)                                                                      \
  X(total_bytes, Sum)                                                                  \
  /* The subset of `emitted` sent to a task on a different simulated worker. */        \
  X(remote_messages, Sum)                                                              \
  X(remote_bytes, Sum)                                                                 \
  /* Peak inbound-queue depth (bolts): pinned at capacity = the task saturated. */     \
  X(queue_highwater, Max)                                                              \
  /* CPU nanoseconds: the executor thread's CPU time plus any simulated */             \
  /* serialization cost (TopologyBuilder::SetRemoteByteCostNanos). Final once the */   \
  /* task finishes — read after Topology::Wait(). */                                   \
  X(busy_nanos, Sum)                                                                   \
  /* Wall nanoseconds the executor waited on an empty inbound queue (starved by */     \
  /* its upstream) and the collector spent pushing downstream (throttled by it). */    \
  X(idle_nanos, Sum)                                                                   \
  X(blocked_nanos, Sum)                                                                \
  /* Supervision: incarnations re-created, tuples re-executed during recovery, */      \
  /* checkpoints taken (spout snapshots included) with their bytes and wall time, */   \
  /* and link-fault recovery (retained envelopes fetched, duplicates discarded). */    \
  X(restarts, Sum)                                                                     \
  X(replayed_tuples, Sum)                                                              \
  X(checkpoints, Sum)                                                                  \
  X(checkpoint_bytes, Sum)                                                             \
  X(checkpoint_nanos, Sum)                                                             \
  X(link_drops_recovered, Sum)                                                         \
  X(link_dups_discarded, Sum)                                                          \
  /* The bolts' chain checkpoints split by kind (small deltas vs full bases). */       \
  X(delta_checkpoints, Sum)                                                            \
  X(base_checkpoints, Sum)                                                             \
  X(delta_checkpoint_bytes, Sum)                                                       \
  X(base_checkpoint_bytes, Sum)                                                        \
  /* Spill tier: bytes moved to disk, and cold records read back by probes. */         \
  X(spilled_bytes, Sum)                                                                \
  X(spill_reads, Sum)                                                                  \
  /* Published by a component when it finishes: results found, records stored, */      \
  /* probes shed (with Σ stored-window size at each shed, an upper bound on the */     \
  /* pairs lost), records evicted ahead of the window and the highest such seq. */     \
  X(result_count, Sum)                                                                 \
  X(stores, Sum)                                                                       \
  X(shed_probes, Sum)                                                                  \
  X(shed_pairs_upper_bound, Sum)                                                       \
  X(budget_evictions, Sum)                                                             \
  X(eviction_horizon_seq, Max)                                                         \
  /* Elastic scaling: completed live migrations, state bytes shipped, and wall */      \
  /* time frozen (pause → resume). */                                                  \
  X(migrations, Sum)                                                                   \
  X(migration_bytes, Sum)                                                              \
  X(migration_nanos, Sum)                                                              \
  /* Transport health, parked on the first task each rank hosted: connect */           \
  /* attempts beyond the first per dial, and links re-established after a drop. */     \
  X(net_connect_retries, Sum)                                                          \
  X(net_reconnects, Sum)

/// The merge rules of DSSJ_TASK_COUNTERS. A Sum counter lives in a Counter,
/// a Max counter in a MaxGauge.
namespace merge {
struct Sum {
  using Cell = Counter;
  static void Into(Counter& cell, uint64_t v) { cell.Add(v); }
  static uint64_t Of(uint64_t a, uint64_t b) { return a + b; }
};
struct Max {
  using Cell = MaxGauge;
  static void Into(MaxGauge& cell, uint64_t v) { cell.Update(v); }
  static uint64_t Of(uint64_t a, uint64_t b) { return std::max(a, b); }
};
}  // namespace merge

/// One task's counters, updated by the executor, the output collector and
/// the component itself. Every field is thread-safe to read while the
/// topology runs.
struct TaskMetrics {
#define DSSJ_COUNTER_CELL(name, rule) merge::rule::Cell name;
  DSSJ_TASK_COUNTERS(DSSJ_COUNTER_CELL)
#undef DSSJ_COUNTER_CELL
};

/// Identity + metrics of one task, exposed by Topology after (or during) a
/// run.
struct TaskStats {
  std::string component;
  int task_index = 0;  ///< index within the component
  int task_id = 0;     ///< global id
  int worker = 0;      ///< simulated worker hosting this task
  const TaskMetrics* metrics = nullptr;
};

/// Every counter merged by its rule over a set of tasks.
struct CounterTotals {
#define DSSJ_COUNTER_TOTAL(name, rule) uint64_t name = 0;
  DSSJ_TASK_COUNTERS(DSSJ_COUNTER_TOTAL)
#undef DSSJ_COUNTER_TOTAL
};

/// Totals of `tasks` (typically Topology::TasksOf(component) or AllTasks()).
CounterTotals Aggregate(const std::vector<TaskStats>& tasks);

/// Serializes a task's counters into a METRICS blob: the counter count
/// (u32), then each counter (u64) in table order. The network transport
/// ships these from workers to the coordinator at the end of a run.
void SerializeTaskCounters(const TaskMetrics& m, std::string* out);

/// Merges a worker's METRICS blob for task `task_id` into `*tasks[task_id]`
/// by each counter's rule. All or nothing: an out-of-range task, a count
/// other than the table's, a truncated blob or trailing bytes leave every
/// metric unchanged and return an error that names the task.
Status MergeTaskCounters(int task_id, const std::string& blob,
                         std::span<TaskMetrics* const> tasks);

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_METRICS_H_
