// Configuration of the checkpoint pipeline (docs/INTERNALS.md §13): where
// checkpoint chains live, whether the executor waits for each checkpoint
// to land, and how often the delta chain is compacted into a full base
// image. Spill settings belong to the bolts that spill (JoinerBolt reads
// them from DistributedJoinOptions).
#ifndef DSSJ_STORE_OPTIONS_H_
#define DSSJ_STORE_OPTIONS_H_

#include <cstdint>
#include <string>

namespace dssj::store {

/// Whether the executor waits for its checkpoints. Both modes run one
/// pipeline: the executor freezes a cheap view at the boundary, the
/// checkpoint service thread encodes it and appends it to the task's
/// chain, and the replay log is truncated only once the epoch is durable.
/// kSync additionally blocks the executor until each checkpoint is
/// durable, so its replay log is cut at every boundary.
enum class CheckpointMode : uint8_t {
  kSync = 0,
  kAsync = 1,
};

struct StoreOptions {
  /// Root directory for checkpoint chains; each task uses
  /// `dir`/task_<id>/. Empty keeps every chain in memory.
  std::string dir;

  CheckpointMode mode = CheckpointMode::kAsync;

  /// Every Nth checkpoint of a task is a full base image; the N-1 between
  /// are deltas (dirty sets only); 0 never compacts after the epoch-0
  /// seed. Larger values shrink steady-state checkpoint bytes but lengthen
  /// the recovery chain.
  uint32_t delta_base_interval = 8;
};

}  // namespace dssj::store

#endif  // DSSJ_STORE_OPTIONS_H_
