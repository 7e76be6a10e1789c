// Live task migration: the serialized executor state that travels from a
// migration's source worker to its target, plus the control-plane message
// types the coordinator drives the protocol with.
//
// A migration freezes one bolt task at an *exact sequence boundary*: the
// coordinator pauses every producer feeding the task (their deliveries gate
// on a per-task quiesce barrier), injects a PREPARE marker into the task's
// inbound queue, and the executor — having drained everything ahead of the
// marker, which is precisely the in-flight gap replay — snapshots the bolt
// and its link bookkeeping into a MigrationState. The blob is the whole
// truth: a fresh bolt instance on any worker, after Restore(bolt_state) and
// adoption of the collector cursors / LinkGuard sequences below, emits
// byte-identical output for all subsequent input. See docs/INTERNALS.md §12.
#ifndef DSSJ_STREAM_MIGRATION_H_
#define DSSJ_STREAM_MIGRATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dssj::stream {

/// Control-plane message kinds for live migration. They map 1:1 onto the
/// PREPARE/STATE/HANDOFF/ACK wire frame types in src/net/wire.h; in-process
/// topologies short-circuit them through direct calls.
enum class ControlKind : uint8_t {
  kPrepare = 0,  ///< coordinator → source rank: freeze the task, ship state
  kState = 1,    ///< source → coordinator → target: the MigrationState blob
  kHandoff = 2,  ///< target → coordinator: state restored, executor running
  kAck = 3,      ///< coordinator → source: routing flipped, decommission
  kFinish = 4,   ///< coordinator → worker: run over, release the finish hold
};

/// One control-plane message. `worker` is the migration's target rank; the
/// blob rides only on kState.
struct ControlFrame {
  ControlKind kind = ControlKind::kPrepare;
  uint32_t migration_id = 0;
  int32_t task_id = -1;
  int32_t worker = -1;
  std::string blob;
};

/// Complete executor-level state of one bolt task at a sequence boundary.
struct MigrationState {
  uint32_t task_id = 0;
  /// Tuples executed since stream start; the restored executor's scripted
  /// kill/checkpoint counters continue from here.
  uint64_t executed_total = 0;
  /// EOS markers still outstanding from upstream tasks.
  uint32_t remaining_eos = 0;
  /// Bolt Snapshot() blob (present iff the bolt supports snapshots).
  bool has_bolt_state = false;
  std::string bolt_state;
  /// Round-robin cursors of the task's collector, per consumer component
  /// (dense, in component-subscription order).
  std::vector<uint64_t> rr;
  /// Canonical per-link sequence counters toward each consumer task the
  /// collector has emitted to: (consumer task id, last emitted link_seq).
  std::vector<std::pair<uint32_t, uint64_t>> emitted;
  /// Consumer-side LinkGuard cursors: (source task id, next expected seq).
  std::vector<std::pair<uint32_t, uint64_t>> next_seq;
};

/// Serializes `state` into one store frame (store/format.h) with the
/// migration magic. Deterministic for a given state.
void EncodeMigrationState(const MigrationState& state, std::string* out);

/// Decodes a blob produced by EncodeMigrationState. Untrusted input is
/// safe: truncated, corrupted (checksum mismatch, non-canonical varints) or
/// foreign blobs and trailing bytes are rejected with a descriptive Status
/// and no reads past the buffer — never a crash or a partially filled `out`.
Status DecodeMigrationState(const void* data, size_t size, MigrationState* out);

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_MIGRATION_H_
