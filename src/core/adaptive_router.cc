#include "core/adaptive_router.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dssj {

AdaptiveRouterState::AdaptiveRouterState(const SimilaritySpec& sim, LengthPartition initial,
                                         AdaptiveRouterOptions options)
    : sim_(sim),
      num_partitions_(initial.num_partitions()),
      options_(options),
      advisor_(sim, initial.num_partitions(), options.policy, options.half_life_records),
      snapshot_(std::make_shared<const Snapshot>(
          Snapshot{PartitionEpoch{std::move(initial), 0}})) {
  CHECK_GE(num_partitions_, 1);
  CHECK_GE(options_.max_epochs, 1u);
  CHECK_GE(options_.replan_interval, 1u);
}

bool AdaptiveRouterState::TryObserve(std::vector<size_t>* pending, size_t length,
                                     int64_t now) {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  // Fold the backlog first so observations enter the advisor in lane
  // order; each folded record runs the same retire/replan checks it would
  // have run had the lock been free when it arrived. (Backlogged records
  // borrow the newest record's stream time — under contention the replan
  // timing is already interleaving-dependent.)
  for (const size_t l : *pending) ObserveOneLocked(l, now);
  pending->clear();
  ObserveOneLocked(length, now);
  return true;
}

void AdaptiveRouterState::ObserveOneLocked(size_t length, int64_t now) {
  advisor_.ObserveLength(length);
  MaybeRetireLocked(now);
  MaybeReplanLocked(now);
}

void AdaptiveRouterState::MaybeRetireLocked(int64_t now) {
  if (options_.window_span_micros <= 0) return;
  // The oldest epoch retires once every record stored under it (all with
  // timestamp <= closed_at) has expired from the joiners' time windows.
  std::shared_ptr<const Snapshot> cur = Load();
  size_t drop = 0;
  while (cur->size() - drop > 1 &&
         (*cur)[drop].closed_at < now - options_.window_span_micros) {
    ++drop;
  }
  if (drop == 0) return;
  PublishLocked(Snapshot(cur->begin() + static_cast<ptrdiff_t>(drop), cur->end()));
}

void AdaptiveRouterState::MaybeReplanLocked(int64_t now) {
  if (++since_replan_ < options_.replan_interval) return;
  since_replan_ = 0;
  std::shared_ptr<const Snapshot> cur = Load();
  if (cur->size() >= options_.max_epochs) return;  // fan-out budget exhausted
  // The joiners' stored contents are approximately the recent stream; use
  // the decayed histogram as the migration-free cost proxy (no records
  // move under epoch-based adaptation — move_fraction gates nothing here,
  // but improvement still must clear the policy bar).
  const LengthHistogram recent = advisor_.RecentHistogram();
  MigrationPlan plan = advisor_.Evaluate(cur->back().partition, recent);
  if (plan.improvement_factor < options_.policy.min_improvement) return;
  Snapshot next(*cur);
  next.back().closed_at = now;
  next.push_back(PartitionEpoch{std::move(plan.new_partition), 0});
  PublishLocked(std::move(next));
  replans_.fetch_add(1, std::memory_order_relaxed);
}

void AdaptiveRouterState::PublishLocked(Snapshot next) {
  std::shared_ptr<const Snapshot> fresh = std::make_shared<const Snapshot>(std::move(next));
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.swap(fresh);
  }
  // `fresh` now holds the old list: it is freed here, after the lock drops,
  // or later by the last reader still sharing it.
}

AdaptiveLengthRouter::AdaptiveLengthRouter(const SimilaritySpec& sim,
                                           LengthPartition initial,
                                           AdaptiveRouterOptions options)
    : AdaptiveLengthRouter(
          std::make_shared<AdaptiveRouterState>(sim, std::move(initial), options)) {}

AdaptiveLengthRouter::AdaptiveLengthRouter(std::shared_ptr<AdaptiveRouterState> state)
    : state_(std::move(state)) {
  CHECK(state_ != nullptr);
  probe_mask_.assign(static_cast<size_t>(state_->num_partitions()), false);
}

void AdaptiveLengthRouter::Route(const Record& r, std::vector<RouteTarget>& out) {
  out.clear();
  const size_t l = r.size();
  if (!state_->TryObserve(&pending_lengths_, l, r.timestamp)) {
    pending_lengths_.push_back(l);
  }
  const SimilaritySpec& sim = state_->sim();
  if (l == 0 || sim.PrefixLength(l) == 0) return;

  const std::shared_ptr<const AdaptiveRouterState::Snapshot> epochs = state_->Load();
  const int owner = epochs->back().partition.PartitionOf(l);
  const size_t lo = sim.LengthLowerBound(l);
  const size_t hi = sim.LengthUpperBound(l);

  std::fill(probe_mask_.begin(), probe_mask_.end(), false);
  for (const PartitionEpoch& epoch : *epochs) {
    const auto [first, last] = epoch.partition.PartitionsCovering(lo, hi);
    for (int p = first; p <= last; ++p) probe_mask_[static_cast<size_t>(p)] = true;
  }
  DCHECK(probe_mask_[static_cast<size_t>(owner)]);
  const int num_partitions = state_->num_partitions();
  for (int p = 0; p < num_partitions; ++p) {
    if (probe_mask_[static_cast<size_t>(p)]) {
      out.push_back(RouteTarget{p, /*store=*/p == owner, /*probe=*/true});
    }
  }
}

}  // namespace dssj
