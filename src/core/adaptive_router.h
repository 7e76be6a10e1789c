#ifndef DSSJ_CORE_ADAPTIVE_ROUTER_H_
#define DSSJ_CORE_ADAPTIVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/repartition.h"
#include "core/router.h"

namespace dssj {

/// Configuration of the adaptive length router.
struct AdaptiveRouterOptions {
  /// Records between advisor evaluations.
  uint64_t replan_interval = 20000;
  /// Decay horizon of the drift monitor.
  uint64_t half_life_records = 20000;
  /// When to accept a replan.
  RepartitionPolicy policy;
  /// With a time window of this span (stream-time µs), an epoch retires
  /// once every record stored under it has expired. 0 (count/unbounded
  /// windows) means epochs never retire and replanning stops at
  /// max_epochs.
  int64_t window_span_micros = 0;
  /// Hard cap on live epochs (probe fan-out grows with the epoch count).
  size_t max_epochs = 8;
};

/// One partition epoch (see AdaptiveLengthRouter).
struct PartitionEpoch {
  LengthPartition partition;
  /// Stream time when this epoch stopped receiving stores (close time);
  /// meaningful for all but the last epoch.
  int64_t closed_at = 0;
};

/// Shared, lane-shardable core of the adaptive router. The live epoch list
/// is an *immutable snapshot* held by a shared_ptr: Route() readers (one
/// per ingestion lane) copy the pointer under a small mutex that guards
/// nothing else, while replans and retirements build a fresh epoch vector
/// off to the side and swap it in under the same mutex. Observation
/// statistics fold into the advisor under a separate mutex; lanes that lose
/// that race buffer their lengths locally (see AdaptiveLengthRouter) so the
/// hot path never blocks on it.
class AdaptiveRouterState {
 public:
  using Snapshot = std::vector<PartitionEpoch>;

  AdaptiveRouterState(const SimilaritySpec& sim, LengthPartition initial,
                      AdaptiveRouterOptions options = {});

  /// The current epoch list (a pointer copy under snapshot_mu_).
  std::shared_ptr<const Snapshot> Load() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Folds the caller's backlog (`pending`, drained in order on success)
  /// plus the newest observation into the advisor, running the retire and
  /// replan checks per observed record exactly as a single-lane router
  /// would. Returns false without observing anything when another lane
  /// holds the fold lock — the caller buffers `length` and retries with
  /// its next record.
  bool TryObserve(std::vector<size_t>* pending, size_t length, int64_t now);

  const SimilaritySpec& sim() const { return sim_; }
  int num_partitions() const { return num_partitions_; }
  uint64_t replans() const { return replans_.load(std::memory_order_relaxed); }
  size_t live_epochs() const { return Load()->size(); }
  LengthPartition current_partition() const { return Load()->back().partition; }

 private:
  // All *Locked helpers run under mu_ and publish via PublishLocked.
  void ObserveOneLocked(size_t length, int64_t now);
  void MaybeRetireLocked(int64_t now);
  void MaybeReplanLocked(int64_t now);
  void PublishLocked(Snapshot next);

  SimilaritySpec sim_;
  int num_partitions_;
  AdaptiveRouterOptions options_;
  std::mutex mu_;               ///< serializes advisor folds + publishes
  RepartitionAdvisor advisor_;  ///< guarded by mu_
  uint64_t since_replan_ = 0;   ///< guarded by mu_
  std::atomic<uint64_t> replans_{0};
  /// Guards only the snapshot_ pointer; writers also hold mu_, so at most
  /// one publish is ever in flight.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;
};

/// Length-based router that *adapts to drift without state migration*.
/// Replans create a new partition **epoch**: records arriving afterwards
/// are stored under the new partition, while records stored under earlier
/// epochs stay where they are. A probe fans out over the union of every
/// live epoch's covering partitions, so no pair is missed; once a time
/// window guarantees an old epoch's records have all expired, the epoch
/// retires and the fan-out shrinks back. This preserves the length-based
/// scheme's no-replication property (each record is still stored exactly
/// once) at the temporary cost of a wider probe fan-out after a replan.
///
/// One instance per dispatcher lane. A single lane may own its state
/// outright (first constructor); sharded ingestion passes the same
/// AdaptiveRouterState to every lane so all lanes route against one
/// coherent epoch list. Routing stays exact either way, but with several
/// lanes the *timing* of replans depends on lane interleaving, so adaptive
/// runs are excluded from the byte-identical lane-equivalence guarantee
/// (docs/INTERNALS.md §14).
class AdaptiveLengthRouter : public Router {
 public:
  AdaptiveLengthRouter(const SimilaritySpec& sim, LengthPartition initial,
                       AdaptiveRouterOptions options = {});
  explicit AdaptiveLengthRouter(std::shared_ptr<AdaptiveRouterState> state);

  void Route(const Record& r, std::vector<RouteTarget>& out) override;
  int num_partitions() const override { return state_->num_partitions(); }

  /// Introspection (shared across lanes when the state is shared).
  uint64_t replans() const { return state_->replans(); }
  size_t live_epochs() const { return state_->live_epochs(); }
  LengthPartition current_partition() const { return state_->current_partition(); }

 private:
  std::shared_ptr<AdaptiveRouterState> state_;
  std::vector<size_t> pending_lengths_;  ///< backlog from contended folds
  std::vector<bool> probe_mask_;         ///< scratch
};

}  // namespace dssj

#endif  // DSSJ_CORE_ADAPTIVE_ROUTER_H_
