// Per-task checkpoint chain: full base images plus the deltas written
// since the newest base, kept as files in one directory or in memory.
// Recovery composes the newest *valid* base with the longest contiguous
// run of valid deltas after it (docs/INTERNALS.md §13) — a torn or
// bit-flipped file terminates the chain cleanly instead of failing
// recovery outright.
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
/// lives there as checksummed files; built with an empty directory, it
/// lives in memory. Both keep the same checkpoints (WriteBase drops every
/// older one) and compose them by the same rule. Not thread-safe: the
/// checkpoint service thread makes the writes, and the task thread calls
/// Recover / Truncate only after a service Barrier.
class StateStore {
 public:
  explicit StateStore(std::string dir) : dir_(std::move(dir)) {}

  /// The chain directory; empty for an in-memory chain.
  const std::string& dir() const { return dir_; }

  /// Writes a full base image for `epoch` (on disk: atomic tmp+rename),
  /// then drops every base and delta with a smaller epoch — they can no
  /// longer participate in any recovery composition.
  Status WriteBase(uint64_t epoch, const std::string& payload);

  /// Writes a delta for `epoch` (on disk: atomic tmp+rename).
  Status WriteDelta(uint64_t epoch, const std::string& payload);

  /// Composes the newest valid base + contiguous valid delta chain.
  /// Corrupt or missing files never fail the call: a bad delta truncates
  /// the chain just before it, a bad base falls back to the previous base.
  /// Returns non-OK only for IO errors that make the directory unreadable.
  Status Recover(RecoveredChain* out) const;

  /// Removes every checkpoint (fresh incarnation start).
  Status Truncate();

  /// One checkpoint of the chain; chains order entries by (epoch, kind).
  struct Entry {
    int kind = 0;  // 0 base, 1 delta
    uint64_t epoch = 0;
    std::string payload;  // in-memory chain only (files hold their own)
  };

 private:
  std::string dir_;
  std::vector<Entry> memory_;  ///< the in-memory chain (empty dir_ only)
};

}  // namespace dssj::store

#endif  // DSSJ_STORE_STATE_STORE_H_
