#ifndef DSSJ_STREAM_OVERLOAD_H_
#define DSSJ_STREAM_OVERLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dssj::stream {

/// What a bolt sheds when its inbound queue crosses the high watermark.
/// Shedding only ever drops the *probe* side of a tuple — stores are always
/// processed, so the index contents and the exactly-once store invariant
/// are byte-identical to a shed-free run; only result pairs whose probe was
/// shed are lost, and every shed is counted (see docs/INTERNALS.md §8).
enum class ShedPolicy {
  kNone,    ///< hard backpressure only (seed behavior)
  kProbe,   ///< level-triggered: shed probes while depth >= watermark
  kOldest,  ///< latch-triggered: on crossing, shed the backlog's probes
  kBundle,  ///< kProbe + shrink the stored window to recover service rate
};

const char* ShedPolicyName(ShedPolicy policy);

/// Parses "none" / "probe" / "oldest" / "bundle". Returns false (and leaves
/// *out untouched) on anything else.
bool ParseShedPolicy(const std::string& name, ShedPolicy* out);

/// Topology-level overload control knobs (TopologyBuilder::SetOverload).
struct OverloadOptions {
  ShedPolicy shed_policy = ShedPolicy::kNone;
  /// Queue-depth fraction of capacity at which shedding engages.
  double shed_watermark = 0.75;
  /// How often the watchdog samples progress and queue health.
  int64_t watchdog_interval_micros = 50'000;
  /// The watchdog trips when the topology makes no progress for this long
  /// with work pending, or when a queued tuple is older than this (a
  /// latency-SLO breach under sustained overload). 0 disables the watchdog.
  int64_t stall_timeout_micros = 0;

  bool enabled() const {
    return shed_policy != ShedPolicy::kNone || stall_timeout_micros > 0;
  }
};

/// Point-in-time health snapshot of one task's inbound queue, taken under
/// the ring's health-tracker lock (RingQueue::Health). Tracking is off (and
/// the numbers stay zero) unless EnableHealthTracking() was called before
/// Submit.
struct QueueHealth {
  size_t depth = 0;
  size_t capacity = 0;
  /// Length of the *current* continuous at-capacity stretch (0 if not full).
  int64_t at_capacity_stretch_micros = 0;
  /// Age of the oldest queued tuple (0 if empty).
  int64_t oldest_age_micros = 0;
};

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_OVERLOAD_H_
