#ifndef DSSJ_STREAM_RING_QUEUE_H_
#define DSSJ_STREAM_RING_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "stream/overload.h"

namespace dssj::stream {

/// Building blocks of RingQueue (below), spelled out in docs/INTERNALS.md
/// §10: the spin/yield budgets, the parking lot, the trickle gate and the
/// health tracker.
namespace ring_detail {

static constexpr uint64_t kClosedBit = 1ull << 63;
static constexpr uint64_t kPosMask = kClosedBit - 1;

inline size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

inline void CpuPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Pure-spin iterations before the yield phase. Spinning only helps when
/// the peer can make progress on another core; on a single-core host it
/// just burns the quantum the peer needs, so the budget collapses to zero
/// and waiters go straight to yielding (which hands the core over).
inline int SpinIters() {
  static const int iters = std::thread::hardware_concurrency() > 1 ? 128 : 0;
  return iters;
}

/// Yield iterations between spinning and parking. On a single-core host
/// this budget is also zero: a yielding waiter stays runnable with high
/// vruntime, so the peer's wake cannot preempt-schedule it the way waking
/// a parked (sleeping) thread does — the waiter would consistently lose
/// the race to observe the state its peer just produced (e.g. a consumer
/// sampling queue depth before the producer refills). Parking promptly
/// restores the sleeper-wakeup scheduling boost a condvar waiter gets for
/// free.
inline int YieldIters() {
  static const int iters = std::thread::hardware_concurrency() > 1 ? 64 : 0;
  return iters;
}

/// Parking primitive for the slow path. The mutex/condvar pair is used
/// only while a thread is actually parked; wakers pay one atomic load when
/// nobody is. Protocol (the Dekker pairing that makes a missed wake
/// impossible): a waiter registers with a seq_cst RMW on `waiters_` and
/// re-checks its predicate before sleeping; a waker makes the predicate
/// true, issues a seq_cst fence, and then reads `waiters_`. Either the
/// waker sees the registration (and notifies under the lock), or the
/// waiter's re-check sees the predicate. The timed wait is a belt-and-
/// braces backstop, not part of the protocol.
class ParkingLot {
 public:
  /// Blocks until pred() returns true. pred must only read atomics.
  template <typename Pred>
  void Await(Pred&& pred) {
    for (int i = 0; i < SpinIters(); ++i) {
      if (pred()) return;
      CpuPause();
    }
    for (int i = 0; i < YieldIters(); ++i) {
      if (pred()) return;
      std::this_thread::yield();
    }
    Park(pred);
  }

  /// Caller must issue std::atomic_thread_fence(seq_cst) between the store
  /// that makes the waiters' predicate true and this call.
  ///
  /// pending_ dedupes broadcasts: once a Wake has notified, further Wakes
  /// are no-ops until some waiter actually runs (a notified thread can stay
  /// not-yet-scheduled — and hence still registered — for a while on a
  /// loaded host, and re-notifying a runnable thread is a wasted syscall).
  /// Safe because notify_all covers every waiter registered at broadcast
  /// time, and a waiter registering later clears pending_ first — so a
  /// suppressed Wake implies the in-flight broadcast already covers every
  /// registered waiter (see Park for the seq_cst pairing).
  void Wake() {
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    if (pending_.exchange(true, std::memory_order_seq_cst)) return;
    { std::lock_guard<std::mutex> lock(mu_); }  // order against a registering waiter
    cv_.notify_all();
  }

 private:
  template <typename Pred>
  void Park(Pred&& pred) {
    std::unique_lock<std::mutex> lock(mu_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    // A broadcast issued before this registration does not cover us; clear
    // pending_ so the next Wake signals again. The seq_cst store totally
    // orders against Wake's exchange: either Wake sees our clear (and
    // notifies), or our predicate re-check below sees the data the Wake's
    // caller published before its fence.
    pending_.store(false, std::memory_order_seq_cst);
    while (!pred()) {
      cv_.wait_for(lock, std::chrono::milliseconds(5));
      // We are awake, so the broadcast that woke us is consumed — the next
      // Wake must signal again. (Every waiter asleep at broadcast time was
      // woken by the same notify_all, so clearing here strands nobody.)
      pending_.store(false, std::memory_order_seq_cst);
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  std::atomic<int> waiters_{0};
  std::atomic<bool> pending_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Adaptive consumer-side wait strategy, consulted at the top of every
/// wait episode (the ring looked empty). Two regimes:
///
///  * Bursty links (the common case): the consumer parks on the ParkingLot
///    and the producer's empty→non-empty edge wakes it to a backlog. Wakes
///    are rare because drains are large.
///  * Per-tuple trickle (a serial dispatcher fanning single tuples out to
///    many parked joiners — bench_throughput_threshold's serial-dispatch
///    cell): every push lands on a parked consumer, so park-based waiting
///    degenerates to one wake syscall per tuple, and on a single-core host
///    the woken consumer preempts the producer (sleeper boost), drains the
///    one tuple, and parks again — a context-switch ping-pong that makes
///    the *producer* the bottleneck. The fix is to stop telling the
///    producer: once a streak of waits each preceded by a tiny drain
///    identifies the trickle regime, the consumer waits by napping in timed
///    slices *without registering as parked*, so the producer's Wake sees
///    no waiters and skips the syscall, and tuples batch up across the nap.
///
/// Transitions are deliberately asymmetric so the gate cannot oscillate:
/// kTrickleWaits consecutive waits with drains <= kTrickleItems enter nap
/// mode, and only a *barren* nap (the link went quiet) or one that finds
/// the ring full leaves it — a nap that woke to a backlog is the strategy
/// working, not evidence against it. A full ring is backpressure, not
/// trickle: a ring of a few slots drains at most its capacity per wait
/// however fast its producers run, so a pop from a full ring also ends the
/// streak. Purely a wait-strategy heuristic: naps delay a pop by at most
/// kNapMicros, they never change what is popped.
class TrickleGate {
 public:
  static constexpr uint64_t kTrickleItems = 3;
  static constexpr int kTrickleWaits = 4;
  static constexpr int kBarrenNaps = 2;
  static constexpr int kNapMicros = 200;

  /// Consumer popped n items (any pop path); `from_full` when the ring was
  /// full before the pop, which ends the trickle streak however small n is.
  void OnPopped(size_t n, bool from_full) {
    items_since_wait_.fetch_add(from_full ? kTrickleItems + 1 : n, std::memory_order_relaxed);
  }

  /// Top of a wait episode: returns true when the consumer should take one
  /// timed nap (Nap()) before falling back to the ParkingLot.
  bool ShouldNap() {
    const uint64_t drained = items_since_wait_.exchange(0, std::memory_order_relaxed);
    if (nap_mode_.load(std::memory_order_relaxed)) return true;
    if (drained <= kTrickleItems) {
      if (streak_.fetch_add(1, std::memory_order_relaxed) + 1 >= kTrickleWaits) {
        streak_.store(0, std::memory_order_relaxed);
        nap_mode_.store(true, std::memory_order_relaxed);
        return true;
      }
    } else {
      streak_.store(0, std::memory_order_relaxed);
    }
    return false;
  }

  /// A nap expired with the ring still empty (the link is quiet) or found
  /// it full (producers are blocked on it): go back to parked waits, which
  /// cost nothing while idle and wake instantly.
  void LeaveNapMode() {
    nap_mode_.store(false, std::memory_order_relaxed);
    streak_.store(0, std::memory_order_relaxed);
  }

  static void Nap() {
    std::this_thread::sleep_for(std::chrono::microseconds(kNapMicros));
  }

 private:
  std::atomic<uint64_t> items_since_wait_{0};
  std::atomic<int> streak_{0};
  std::atomic<bool> nap_mode_{false};
};

/// Queue-health bookkeeping: the current at-capacity stretch and the
/// oldest-tuple age via (count, stamp) runs — one run per claimed run of
/// slots, not per item, so the oldest-age probe stays O(1) amortized.
/// Inert — one dead atomic branch per operation — until Enable(); when
/// enabled it serializes on its own small mutex, which only overload-
/// control runs ever turn on. Depths are the caller's racy post-op
/// estimates: they steer shedding and the watchdog, not correctness.
class RingHealthTracker {
 public:
  void Enable() { enabled_.store(true, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  void OnEnqueued(size_t added, size_t depth, size_t capacity) {
    if (!enabled() || added == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    marks_.push_back(Mark{added, NowMicros()});
    UpdateFullSince(depth, capacity);
  }

  void OnDequeued(size_t removed, size_t depth, size_t capacity) {
    if (!enabled() || removed == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    while (removed > 0 && !marks_.empty()) {
      Mark& front = marks_.front();
      if (front.count <= removed) {
        removed -= front.count;
        marks_.pop_front();
      } else {
        front.count -= removed;
        removed = 0;
      }
    }
    UpdateFullSince(depth, capacity);
  }

  QueueHealth Snapshot(size_t depth, size_t capacity) const {
    QueueHealth h;
    h.depth = depth;
    h.capacity = capacity;
    if (!enabled()) return h;
    const int64_t now = NowMicros();
    std::lock_guard<std::mutex> lock(mu_);
    if (!marks_.empty()) h.oldest_age_micros = now - marks_.front().enqueued_us;
    if (full_since_us_ != 0) h.at_capacity_stretch_micros = now - full_since_us_;
    return h;
  }

 private:
  struct Mark {
    size_t count;
    int64_t enqueued_us;
  };

  void UpdateFullSince(size_t depth, size_t capacity) {
    if (depth < capacity) {
      full_since_us_ = 0;
    } else if (full_since_us_ == 0) {
      full_since_us_ = NowMicros();
    }
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::deque<Mark> marks_;
  int64_t full_since_us_ = 0;
};

}  // namespace ring_detail

/// Bounded blocking FIFO with any number of producer threads and exactly
/// one consumer thread — every link in the system: each bolt task's
/// inbound queue (Task::queue, wrapped by InprocChannel) and each TCP
/// per-peer send queue (TcpTransport::SenderConn::queue).
///
/// Contract. Push blocks when full (the topology's backpressure mechanism)
/// and Pop/PopBatch block when empty. Items are delivered in claim order,
/// which implies per-producer FIFO — the property the distributed join's
/// exactly-once rule relies on. A batch larger than the free capacity is
/// delivered in contiguous runs as space frees up; batch boundaries are
/// NOT atomic (other producers may interleave between runs), which still
/// preserves per-producer FIFO. Close() (a supervised task exhausting its
/// restart budget, a transport shutting down) unblocks every waiter:
/// producers stop accepting — a blocked Push returns 0 and a blocked
/// PushBatch leaves the unaccepted remainder in its input vector — while
/// items accepted before the close stay poppable until the ring drains,
/// after which PopBatch returns 0.
///
/// Single consumer. Pop, PopBatch and Drain must only ever be called by
/// one thread at a time, each call ordered after the previous consumer's
/// last one. The consumers are TopologyImpl::RunBoltIncarnation's
/// PopBatch (one executor thread per task: a local reincarnation reuses
/// that thread, and an executor adopted through a migration starts only
/// after the previous host's executor froze the task and stopped popping)
/// and TcpTransport::SenderLoop's PopBatch and Drain (one sender thread
/// per peer). Producers, Close, size, closed and Health are safe from any
/// thread.
///
/// Slot-sequence rule. Producers claim a run of positions with one CAS on
/// `claim_` (bit 63 is the closed bit, so no claim succeeds once Close()
/// sets it: "accepted" means "claimed", and a claimed slot is always
/// published), move each item into slot `pos & mask_` and release-store
/// `pos + 1` into that slot's sequence. The consumer takes position `pos`
/// when its slot reads `seq == pos + 1`, moves the item out, and stores
/// `tail_` once per pop. A producer claims only positions below
/// `tail_ + capacity`, and the ring holds at least `capacity` slots, so the
/// previous occupant of every claimed slot was already popped: a slot
/// never needs re-arming (capacity 1 included — the stale sequence `pos`
/// never equals the awaited `pos + 1`), and "closed and drained" is the
/// closed bit set with claim == tail.
///
/// Waiting spins, yields and then parks on a ParkingLot. Only the edge that
/// can strand a waiter checks for one: a producer whose run the consumer
/// may be parked on (empty→non-empty), a pop from a full ring (producers).
/// The TrickleGate swaps the consumer's park for unregistered naps while
/// the link trickles single tuples.
template <typename T>
class RingQueue {
  static constexpr uint64_t kClosedBit = ring_detail::kClosedBit;
  static constexpr uint64_t kPosMask = ring_detail::kPosMask;

 public:
  explicit RingQueue(size_t capacity)
      : capacity_(capacity),
        mask_(ring_detail::RoundUpPow2(capacity) - 1),
        slots_(mask_ + 1) {
    CHECK_GE(capacity, 1u);
  }

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  /// Blocks until there is room, then enqueues. Returns the depth right
  /// after the push (>= 1, for high-watermark accounting), or 0 when the
  /// queue was closed and the item rejected.
  size_t Push(T item) {
    uint64_t pos;
    if (ClaimOrPark(1, &pos) == 0) return 0;
    Publish(pos, std::move(item));
    return Published(pos, 1);
  }

  /// Enqueues every element of `*items` in order, draining the vector;
  /// blocks for backpressure. If the queue closes mid-batch the unaccepted
  /// remainder is left in `*items` (in order). Returns the depth right
  /// after the last accepted element.
  size_t PushBatch(std::vector<T>* items) {
    const size_t n = items->size();
    if (n == 0) return size();
    size_t i = 0;
    size_t depth = 0;
    while (i < n) {
      uint64_t first;
      const size_t got = ClaimOrPark(n - i, &first);
      if (got == 0) break;  // closed: leave the remainder
      // Publishing per slot lets the consumer take the front of a run
      // while its tail is still being written.
      for (size_t k = 0; k < got; ++k) Publish(first + k, std::move((*items)[i++]));
      depth = Published(first, got);
    }
    items->erase(items->begin(), items->begin() + static_cast<ptrdiff_t>(i));
    return depth;
  }

  /// Blocks until an item is available, then dequeues it. Must not be
  /// called on a closed-and-drained queue (use PopBatch when the queue may
  /// close).
  T Pop() {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    AwaitItem(tail);
    CHECK(Ready(tail)) << "Pop on a closed, drained queue";
    T item = std::move(slots_[tail & mask_].value);
    FinishPop(tail, 1);
    return item;
  }

  /// Blocks until at least one item is available, then appends up to
  /// `max_items` to `*out`. Returns the number popped — 0 only when the
  /// queue is closed and drained.
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    CHECK_GE(max_items, 1u);
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    AwaitItem(tail);
    return Take(tail, max_items, out);
  }

  /// Non-blocking: appends every published item to `*out`. Returns the
  /// number drained (possibly zero).
  size_t Drain(std::vector<T>* out) {
    return Take(tail_.load(std::memory_order_relaxed), SIZE_MAX, out);
  }

  /// Stops accepting new items and wakes every blocked producer and the
  /// consumer. Items already accepted remain poppable. Idempotent.
  void Close() {
    claim_.fetch_or(kClosedBit, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    producers_.Wake();
    consumer_.Wake();
  }

  bool closed() const { return (claim_.load(std::memory_order_acquire) & kClosedBit) != 0; }

  /// Claimed and not yet popped, in-flight claims included.
  size_t size() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t claim = claim_.load(std::memory_order_acquire) & kPosMask;
    return claim > tail ? static_cast<size_t>(claim - tail) : 0;
  }

  size_t capacity() const { return capacity_; }

  /// Turns on queue-health tracking (at-capacity stretch, oldest item
  /// age). Must be called before any concurrent use (the topology does it
  /// at Build time); queues without it pay only a dead branch per
  /// operation.
  void EnableHealthTracking() { health_.Enable(); }

  /// Point-in-time health snapshot (zeros unless tracking is enabled).
  QueueHealth Health() const { return health_.Snapshot(size(), capacity_); }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  /// Claims up to `want` positions without blocking. Returns 0 when the
  /// ring is full or closed; otherwise *first is the first claimed position.
  size_t TryClaim(size_t want, uint64_t* first) {
    for (;;) {
      uint64_t raw = claim_.load(std::memory_order_seq_cst);
      if ((raw & kClosedBit) != 0) return 0;
      // Acquire: the claimed slots' previous occupants were moved out
      // before the consumer stored this tail.
      const uint64_t used = raw - tail_.load(std::memory_order_acquire);
      if (static_cast<int64_t>(used) < 0) continue;  // raw is stale: the tail passed it
      if (used >= capacity_) return 0;
      const size_t take = std::min<uint64_t>(want, capacity_ - used);
      if (claim_.compare_exchange_weak(raw, raw + take, std::memory_order_seq_cst)) {
        *first = raw;
        return take;
      }
    }
  }

  /// Claims up to `want` positions, parking while the ring is full.
  /// Returns 0 when the queue closed instead.
  size_t ClaimOrPark(size_t want, uint64_t* first) {
    for (;;) {
      if (const size_t got = TryClaim(want, first)) return got;
      if (closed()) return 0;
      // Claim before tail: "full" then means full at the instant the tail
      // was read, which the pop that moves that tail sees and wakes us for
      // (a tail past a stale claim reads as room).
      producers_.Await([this] {
        const uint64_t raw = claim_.load(std::memory_order_seq_cst);
        if ((raw & kClosedBit) != 0) return true;
        const uint64_t used = raw - tail_.load(std::memory_order_seq_cst);
        return static_cast<int64_t>(used) < 0 || used < capacity_;
      });
    }
  }

  void Publish(uint64_t pos, T&& item) {
    Slot& slot = slots_[pos & mask_];
    slot.value = std::move(item);
    slot.seq.store(pos + 1, std::memory_order_release);
  }

  /// After publishing the run [first, first + n): wakes a parked consumer
  /// only when it had already caught up to `first` (tail_ >= first) — it
  /// can then be parked on a slot of this run. A consumer parked on an
  /// earlier slot is woken by that slot's producer. Records the run's
  /// health and returns the depth after it.
  size_t Published(uint64_t first, size_t n) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail >= first) consumer_.Wake();
    const uint64_t end = first + n;
    const size_t depth = end > tail ? static_cast<size_t>(end - tail) : 1;
    health_.OnEnqueued(n, depth, capacity_);
    return depth;
  }

  bool Ready(uint64_t pos) const {
    return slots_[pos & mask_].seq.load(std::memory_order_acquire) == pos + 1;
  }

  /// Returns once position `tail` is published or the ring is closed and
  /// drained.
  void AwaitItem(uint64_t tail) {
    if (Ready(tail)) return;
    auto pred = [this, tail] {
      if (slots_[tail & mask_].seq.load(std::memory_order_seq_cst) == tail + 1) return true;
      const uint64_t raw = claim_.load(std::memory_order_seq_cst);
      // Closed and drained only once every claim has been popped; in-flight
      // claims still publish.
      return (raw & kClosedBit) != 0 && (raw & kPosMask) == tail;
    };
    if (trickle_.ShouldNap()) {
      for (int b = 0; b < ring_detail::TrickleGate::kBarrenNaps; ++b) {
        ring_detail::TrickleGate::Nap();
        if (pred()) {
          if (size() >= capacity_) trickle_.LeaveNapMode();
          return;  // productive nap: stay in nap mode unless the ring filled
        }
      }
      trickle_.LeaveNapMode();
    }
    consumer_.Await(pred);
  }

  /// Moves out the published run starting at `tail`, at most `max_items`.
  size_t Take(uint64_t tail, size_t max_items, std::vector<T>* out) {
    size_t n = 0;
    while (n < max_items && Ready(tail + n)) {
      out->push_back(std::move(slots_[(tail + n) & mask_].value));
      ++n;
    }
    if (n > 0) FinishPop(tail, n);
    return n;
  }

  void FinishPop(uint64_t tail, size_t n) {
    tail_.store(tail + n, std::memory_order_release);
    // Full→non-full edge: only a pop from a full ring can unblock a parked
    // producer.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const bool from_full = (claim_.load(std::memory_order_relaxed) & kPosMask) - tail >= capacity_;
    if (from_full) producers_.Wake();
    trickle_.OnPopped(n, from_full);
    health_.OnDequeued(n, size(), capacity_);
  }

  const size_t capacity_;
  const uint64_t mask_;
  std::vector<Slot> slots_;

  /// Producer side: the claim cursor (closed bit in bit 63), on its own
  /// line away from the consumer's tail.
  alignas(64) std::atomic<uint64_t> claim_{0};
  /// Consumer side: every position below tail_ has been popped.
  alignas(64) std::atomic<uint64_t> tail_{0};
  ring_detail::TrickleGate trickle_;  // consumer-side, shares the tail line

  alignas(64) ring_detail::ParkingLot producers_;
  ring_detail::ParkingLot consumer_;
  ring_detail::RingHealthTracker health_;
};

/// perfbench/probes.cc builds its hop probes through this name; every link
/// is a RingQueue, so `spsc_safe` is ignored.
enum class QueueImpl { kRing };
template <typename T>
std::unique_ptr<RingQueue<T>> MakeQueue(QueueImpl, size_t capacity, bool /*spsc_safe*/) {
  return std::make_unique<RingQueue<T>>(capacity);
}

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_RING_QUEUE_H_
