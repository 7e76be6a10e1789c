// Per-task checkpoint chain: one base image plus the deltas written since,
// kept as one byte image (store/format.h): a frame naming the base epoch,
// the base frame, then one frame per delta in epoch order. On disk the
// image is the file chain_<base epoch>.ckpt, written whole at each base and
// appended to by each delta; without a directory it is a string in memory.
// Recovery parses both the same way (docs/INTERNALS.md §13): a torn or
// bit-flipped frame ends the chain at the last intact frame instead of
// failing recovery outright.
#ifndef DSSJ_STORE_STATE_STORE_H_
#define DSSJ_STORE_STATE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dssj::store {

/// Result of composing the chain: the payload of the chosen base
/// checkpoint, then the delta payloads to apply on top, in epoch order.
/// `epoch` is the epoch of the newest checkpoint in the composition (the
/// state the restored task resumes from). `valid` is false when no intact
/// base exists (fresh task, or every base corrupt).
struct RecoveredChain {
  bool valid = false;
  uint64_t epoch = 0;
  std::string base;
  std::vector<std::string> deltas;
};

/// Owns one task's checkpoint chain. Built with a directory, the chain
/// lives there as a checksummed file; built with an empty directory, it
/// lives in memory as the same bytes. Not thread-safe: the checkpoint
/// service thread makes the writes, and the task thread calls Recover /
/// Truncate only after a service Barrier.
class StateStore {
 public:
  explicit StateStore(std::string dir) : dir_(std::move(dir)) {}

  /// The chain directory; empty for an in-memory chain.
  const std::string& dir() const { return dir_; }

  /// Starts a new chain with a full base image for `epoch`. On disk the
  /// chain file is written tmp+rename, and only then is the previous chain
  /// file removed, so a crash in between leaves a chain to recover from.
  Status WriteBase(uint64_t epoch, const std::string& payload);

  /// Appends the delta for `epoch` to the current chain. `epoch` must be
  /// the chain's next epoch; anything else fails, as a failed write does.
  /// A failed append leaves at most a partial frame, which Recover ignores.
  Status WriteDelta(uint64_t epoch, const std::string& payload);

  /// Composes the newest intact chain: its base and its deltas up to the
  /// first torn or corrupt frame. A chain file whose first frames are bad,
  /// or whose epoch disagrees with its name, falls back to an older chain
  /// file still on disk. Returns non-OK only for IO errors that make the
  /// directory unreadable.
  Status Recover(RecoveredChain* out) const;

  /// Removes the chain (fresh incarnation start).
  Status Truncate();

 private:
  std::string ChainPath(uint64_t epoch) const;

  std::string dir_;
  bool has_chain_ = false;  ///< a base was written since the last Truncate
  uint64_t base_epoch_ = 0;
  uint64_t next_epoch_ = 0;  ///< the epoch WriteDelta accepts
  std::string memory_;       ///< the chain image (empty dir_ only)
};

}  // namespace dssj::store

#endif  // DSSJ_STORE_STATE_STORE_H_
