#include "stream/metrics.h"

#include "common/serialize.h"

namespace dssj::stream {
namespace {

#define DSSJ_COUNT_COUNTER(name, rule) +1
constexpr uint32_t kNumTaskCounters = 0 DSSJ_TASK_COUNTERS(DSSJ_COUNT_COUNTER);
#undef DSSJ_COUNT_COUNTER

}  // namespace

CounterTotals Aggregate(const std::vector<TaskStats>& tasks) {
  CounterTotals totals;
  for (const TaskStats& t : tasks) {
    if (t.metrics == nullptr) continue;
#define DSSJ_AGGREGATE_COUNTER(name, rule) \
  totals.name = merge::rule::Of(totals.name, t.metrics->name.Get());
    DSSJ_TASK_COUNTERS(DSSJ_AGGREGATE_COUNTER)
#undef DSSJ_AGGREGATE_COUNTER
  }
  return totals;
}

void SerializeTaskCounters(const TaskMetrics& m, std::string* out) {
  BinaryWriter w(out);
  w.WriteU32(kNumTaskCounters);
#define DSSJ_WRITE_COUNTER(name, rule) w.WriteU64(m.name.Get());
  DSSJ_TASK_COUNTERS(DSSJ_WRITE_COUNTER)
#undef DSSJ_WRITE_COUNTER
}

Status MergeTaskCounters(int task_id, const std::string& blob,
                         std::span<TaskMetrics* const> tasks) {
  const std::string what = "METRICS blob for task " + std::to_string(task_id);
  if (task_id < 0 || static_cast<size_t>(task_id) >= tasks.size()) {
    return Status::OutOfRange(what + ": no such task (" + std::to_string(tasks.size()) +
                              " tasks)");
  }
  SafeBinaryReader r(blob.data(), blob.size());
  uint32_t count = 0;
  if (!r.ReadU32(&count)) return Status::InvalidArgument(what + ": truncated");
  if (count != kNumTaskCounters) {
    return Status::InvalidArgument(what + ": " + std::to_string(count) +
                                   " counters, expected " + std::to_string(kNumTaskCounters));
  }
  uint64_t values[kNumTaskCounters] = {};
  for (uint64_t& v : values) {
    if (!r.ReadU64(&v)) return Status::InvalidArgument(what + ": truncated");
  }
  if (!r.AtEnd()) return Status::InvalidArgument(what + ": trailing bytes");
  TaskMetrics& m = *tasks[static_cast<size_t>(task_id)];
  const uint64_t* v = values;
#define DSSJ_MERGE_COUNTER(name, rule) merge::rule::Into(m.name, *v++);
  DSSJ_TASK_COUNTERS(DSSJ_MERGE_COUNTER)
#undef DSSJ_MERGE_COUNTER
  return Status::OK();
}

}  // namespace dssj::stream
