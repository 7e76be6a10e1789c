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
#include "stream/queue.h"

namespace dssj::stream {

/// Lock-free ring implementations of the Queue<T> contract (queue.h) — the
/// only link implementations; MakeQueue picks one per link from its
/// producer count:
///
///   SpscRingQueue  1:1 links (single upstream task, no transport threads):
///                  a classic single-producer single-consumer ring with
///                  monotonic 64-bit cursors.
///   RingQueue      fan-in links: a bounded MPMC ring in the style of
///                  Vyukov's algorithm — every slot carries its own sequence
///                  number, producers claim slots with a CAS on the enqueue
///                  cursor and publish by storing the slot sequence.
///
/// Both share three design points, spelled out in docs/INTERNALS.md §10:
///
///  * Cursor cache-line separation. The enqueue and dequeue cursors live on
///    their own `alignas(64)` cache lines so a producer advancing its cursor
///    never invalidates the line the consumer spins on, and vice versa.
///  * Acquire/release publication. A producer writes the slot, then
///    release-stores the publication cursor (SPSC) or the slot sequence
///    (MPMC); the consumer acquire-loads it before touching the slot. No
///    data ever synchronizes through a lock on the hot path.
///  * Spin-then-park waiting. An empty consumer (or a full producer) spins
///    briefly, yields, and finally parks on a condvar that exists only for
///    parking. The fast path never touches that lock: wakers read an atomic
///    parked-waiter count (after a seq_cst fence pairing with the waiter's
///    seq_cst registration) and skip the condvar entirely when nobody is
///    parked, and only the edge that can strand a waiter (empty→non-empty
///    for consumers, a dequeue from a full ring for producers) performs the
///    check at all, and a pending-broadcast flag dedupes repeated wakes of
///    a notified-but-not-yet-scheduled waiter, so a per-tuple stream into a
///    backlogged link pays for one wake per drain cycle, not one per push.
///    On top of that, a TrickleGate watches the consumer's drain sizes and,
///    when a wait streak identifies the per-tuple trickle regime, swaps the
///    park for unregistered timed naps so the producer skips the wake
///    syscall entirely (see TrickleGate for the regime analysis).
///
/// Close() must linearize against concurrent pushes without a lock — a
/// consumer that observed "closed and drained" must be guaranteed no later
/// Push can still be accepted. Both rings get this by folding the closed
/// flag into bit 63 of the claim cursor itself: Close() is a `fetch_or` of
/// kClosedBit, and every claim is a CAS whose expected value has the bit
/// clear, so no claim can succeed once the bit lands. "Accepted" therefore
/// means "claimed", and a claimed slot is always published, so a drained
/// check only has to wait out claims that are already in flight.
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

/// Adaptive consumer-side wait strategy, consulted by both rings at the top
/// of every wait episode (the ring looked empty). Two regimes:
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
/// mode, and only a *barren* nap (the link went quiet) leaves it — a nap
/// that woke to a big backlog is the strategy working, not evidence against
/// it. Purely a wait-strategy heuristic: naps delay a pop by at most
/// kNapMicros, they never change what is popped.
class TrickleGate {
 public:
  static constexpr uint64_t kTrickleItems = 3;
  static constexpr int kTrickleWaits = 4;
  static constexpr int kBarrenNaps = 2;
  static constexpr int kNapMicros = 200;

  /// Consumer popped n items (any pop path).
  void OnPopped(size_t n) {
    items_since_wait_.fetch_add(n, std::memory_order_relaxed);
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

  /// A nap expired with the ring still empty: the link is quiet, so go back
  /// to parked waits (which cost nothing while idle and wake instantly).
  void OnNapBarren() {
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

/// Queue-health bookkeeping shared by both rings: depth EWMA, time at
/// capacity, and oldest-tuple age via (count, stamp) runs — one run per
/// push call, not per item, so the oldest-age probe stays O(1) amortized.
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
    UpdateClock(depth, capacity);
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
    UpdateClock(depth, capacity);
  }

  QueueHealth Snapshot(size_t depth, size_t capacity) const {
    QueueHealth h;
    h.depth = depth;
    h.capacity = capacity;
    std::lock_guard<std::mutex> lock(mu_);
    h.depth_ewma = depth_ewma_;
    h.time_at_capacity_micros = time_at_capacity_us_;
    if (enabled()) {
      const int64_t now = NowMicros();
      if (!marks_.empty()) h.oldest_age_micros = now - marks_.front().enqueued_us;
      if (full_since_us_ != 0) {
        h.at_capacity_stretch_micros = now - full_since_us_;
        h.time_at_capacity_micros += h.at_capacity_stretch_micros;
      }
    }
    return h;
  }

 private:
  struct Mark {
    size_t count;
    int64_t enqueued_us;
  };

  void UpdateClock(size_t depth, size_t capacity) {
    constexpr double kAlpha = 0.05;
    depth_ewma_ += kAlpha * (static_cast<double>(depth) - depth_ewma_);
    if (depth >= capacity) {
      if (full_since_us_ == 0) full_since_us_ = NowMicros();
    } else if (full_since_us_ != 0) {
      time_at_capacity_us_ += NowMicros() - full_since_us_;
      full_since_us_ = 0;
    }
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::deque<Mark> marks_;
  double depth_ewma_ = 0.0;
  int64_t full_since_us_ = 0;
  int64_t time_at_capacity_us_ = 0;
};

}  // namespace ring_detail

/// Single-producer single-consumer lock-free ring. The topology uses it for
/// 1:1 links (exactly one upstream task, no transport threads), where it
/// degenerates to one CAS (uncontended except against Close) plus one
/// release store per push and two loads plus one release store per pop.
///
/// Cursors: `claim_` (producer claims space; carries the closed bit),
/// `head_` (publication — slots below it are readable), `tail_`
/// (consumption). claim_ == head_ except while the producer is writing
/// slots, so a drained check waits until they agree.
template <typename T>
class SpscRingQueue final : public Queue<T> {
  static constexpr uint64_t kClosedBit = ring_detail::kClosedBit;
  static constexpr uint64_t kPosMask = ring_detail::kPosMask;

 public:
  explicit SpscRingQueue(size_t capacity)
      : capacity_(capacity),
        ring_size_(ring_detail::RoundUpPow2(capacity)),
        mask_(ring_size_ - 1),
        slots_(ring_size_) {
    CHECK_GE(capacity, 1u);
  }

  SpscRingQueue(const SpscRingQueue&) = delete;
  SpscRingQueue& operator=(const SpscRingQueue&) = delete;

  size_t Push(T item) override {
    uint64_t pos;
    if (!ClaimOrPark(1, &pos)) return 0;
    slots_[pos & mask_] = std::move(item);
    head_.store(pos + 1, std::memory_order_release);
    WakeConsumerOnEmptyEdge(pos);
    const size_t depth = DepthAfter(pos + 1);
    health_.OnEnqueued(1, depth, capacity_);
    return depth;
  }

  size_t PushBatch(std::vector<T>* items) override {
    const size_t n = items->size();
    if (n == 0) return size();
    size_t i = 0;
    size_t depth = 0;
    while (i < n) {
      uint64_t pos;
      const size_t want = n - i;
      size_t got = ClaimUpTo(want, &pos);
      if (got == 0) {
        if (!ClaimOrPark(1, &pos)) break;  // closed: leave the remainder
        got = 1;
      }
      const uint64_t first = pos;
      for (size_t k = 0; k < got; ++k) {
        slots_[pos & mask_] = std::move((*items)[i++]);
        // Publish per item so a chunk blocked on a full ring has already
        // handed everything written so far to the consumer.
        head_.store(++pos, std::memory_order_release);
      }
      WakeConsumerOnEmptyEdge(first);
      depth = DepthAfter(pos);
      health_.OnEnqueued(got, depth, capacity_);
    }
    items->erase(items->begin(), items->begin() + static_cast<ptrdiff_t>(i));
    return depth;
  }

  T Pop() override {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    WaitForItem(tail);
    CHECK(head_.load(std::memory_order_acquire) != tail) << "Pop on a closed, drained queue";
    T item = std::move(slots_[tail & mask_]);
    FinishPop(tail, 1);
    return item;
  }

  size_t PopBatch(std::vector<T>* out, size_t max_items) override {
    CHECK_GE(max_items, 1u);
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    WaitForItem(tail);
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (head == tail) return 0;  // closed and drained
    const size_t n = std::min<uint64_t>(max_items, head - tail);
    for (size_t k = 0; k < n; ++k) out->push_back(std::move(slots_[(tail + k) & mask_]));
    FinishPop(tail, n);
    return n;
  }

  size_t Drain(std::vector<T>* out) override {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    const size_t n = head - tail;
    if (n == 0) return 0;
    for (size_t k = 0; k < n; ++k) out->push_back(std::move(slots_[(tail + k) & mask_]));
    FinishPop(tail, n);
    return n;
  }

  bool TryPop(T* out) override {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (head_.load(std::memory_order_acquire) == tail) return false;
    *out = std::move(slots_[tail & mask_]);
    FinishPop(tail, 1);
    return true;
  }

  void Close() override {
    claim_.fetch_or(kClosedBit, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    producers_.Wake();
    consumers_.Wake();
  }

  bool closed() const override {
    return (claim_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

  size_t size() const override {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? head - tail : 0;
  }

  size_t capacity() const override { return capacity_; }

  void EnableHealthTracking() override { health_.Enable(); }

  QueueHealth Health() const override { return health_.Snapshot(size(), capacity_); }

 private:
  /// Claims up to `want` slots without blocking. Returns 0 when the ring is
  /// full or closed; on success *first is the first claimed position.
  size_t ClaimUpTo(size_t want, uint64_t* first) {
    for (;;) {
      const uint64_t raw = claim_.load(std::memory_order_seq_cst);
      if (raw & kClosedBit) return 0;
      const uint64_t pos = raw;
      const uint64_t tail = tail_.load(std::memory_order_acquire);
      if (pos - tail >= capacity_) return 0;
      const size_t room = capacity_ - static_cast<size_t>(pos - tail);
      const size_t take = std::min(want, room);
      uint64_t expected = raw;
      // The CAS only ever races Close()'s fetch_or (single producer), and
      // it is exactly what makes Close linearizable: once the bit is set no
      // claim can succeed, so "accepted" == "claimed before the bit".
      if (claim_.compare_exchange_strong(expected, raw + take, std::memory_order_seq_cst)) {
        *first = pos;
        return take;
      }
    }
  }

  /// Claims `want` slots, parking while the ring is full. Returns false
  /// when the queue closed instead.
  bool ClaimOrPark(size_t want, uint64_t* first) {
    for (;;) {
      if (ClaimUpTo(want, first) != 0) return true;
      if (closed()) return false;
      producers_.Await([this] {
        const uint64_t raw = claim_.load(std::memory_order_seq_cst);
        if (raw & kClosedBit) return true;
        return raw - tail_.load(std::memory_order_seq_cst) < capacity_;
      });
    }
  }

  /// Empty→non-empty edge: wake a parked consumer only when the consumer
  /// had already caught up to `first` (tail_ >= first), i.e. it can have
  /// observed the ring empty and parked. Earlier pushes handled earlier
  /// parks, so this is the only edge that can strand it.
  void WakeConsumerOnEmptyEdge(uint64_t first) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (tail_.load(std::memory_order_relaxed) >= first) consumers_.Wake();
  }

  void WaitForItem(uint64_t tail) {
    if (head_.load(std::memory_order_acquire) != tail) return;
    auto pred = [this, tail] {
      if (head_.load(std::memory_order_seq_cst) != tail) return true;
      const uint64_t raw = claim_.load(std::memory_order_seq_cst);
      // Closed and drained only once in-flight claims have published.
      return (raw & kClosedBit) != 0 && (raw & kPosMask) == tail;
    };
    if (trickle_.ShouldNap()) {
      for (int b = 0; b < ring_detail::TrickleGate::kBarrenNaps; ++b) {
        ring_detail::TrickleGate::Nap();
        if (pred()) return;  // productive nap: stay in nap mode
      }
      trickle_.OnNapBarren();
    }
    consumers_.Await(pred);
  }

  void FinishPop(uint64_t tail, size_t n) {
    trickle_.OnPopped(n);
    tail_.store(tail + n, std::memory_order_release);
    // Full→non-full edge: only a dequeue from a full ring can unblock a
    // parked producer.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if ((claim_.load(std::memory_order_relaxed) & kPosMask) - tail >= capacity_) {
      producers_.Wake();
    }
    health_.OnDequeued(n, DepthAfter(head_.load(std::memory_order_relaxed)), capacity_);
  }

  size_t DepthAfter(uint64_t head) const {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    return head > tail ? static_cast<size_t>(head - tail) : 1;
  }

  const size_t capacity_;
  const size_t ring_size_;
  const uint64_t mask_;
  std::vector<T> slots_;

  /// Producer side: claim cursor (closed bit lives here) and publication
  /// cursor, on their own line away from the consumer's tail.
  alignas(64) std::atomic<uint64_t> claim_{0};
  std::atomic<uint64_t> head_{0};
  /// Consumer side.
  alignas(64) std::atomic<uint64_t> tail_{0};
  ring_detail::TrickleGate trickle_;  // consumer-side, shares the tail line

  alignas(64) ring_detail::ParkingLot producers_;
  ring_detail::ParkingLot consumers_;
  ring_detail::RingHealthTracker health_;
};

/// Bounded lock-free MPMC ring (Vyukov-style slot sequencing) with the
/// blocking Queue<T> contract on top. The topology uses it for fan-in
/// links — several producer tasks (or transport threads) feeding one
/// consumer task — but it is safe for any number of consumers too, which
/// the stress tests exercise.
///
/// Every slot carries a sequence number: `seq == pos` means free for the
/// producer claiming position pos, `seq == pos + 1` means published for the
/// consumer expecting position pos, and a consumed slot is re-armed to
/// `pos + ring_size_` for its next lap. Producers claim with a CAS on the
/// enqueue cursor (which also carries the closed bit) and publish with a
/// release store of the slot sequence; claim order is consumption order, so
/// each producer's items stay FIFO — the invariant the exactly-once rule
/// needs. The logical capacity check (`pos - dequeue >= capacity`) runs
/// against the claim ticket before the CAS, so occupancy never exceeds the
/// configured capacity even though the ring itself is rounded up to a power
/// of two (and to at least 2, so a published slot from the previous lap can
/// never alias a free one).
template <typename T>
class RingQueue final : public Queue<T> {
  static constexpr uint64_t kClosedBit = ring_detail::kClosedBit;
  static constexpr uint64_t kPosMask = ring_detail::kPosMask;

 public:
  explicit RingQueue(size_t capacity)
      : capacity_(capacity),
        ring_size_(std::max<size_t>(2, ring_detail::RoundUpPow2(capacity))),
        mask_(ring_size_ - 1),
        cells_(ring_size_) {
    CHECK_GE(capacity, 1u);
    for (size_t i = 0; i < ring_size_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  size_t Push(T item) override {
    uint64_t pos;
    Cell* cell;
    if (!ClaimOrPark(&pos, &cell)) return 0;
    cell->value = std::move(item);
    cell->seq.store(pos + 1, std::memory_order_release);
    WakeConsumerOnEmptyEdge(pos);
    const size_t depth = DepthAfter(pos + 1);
    health_.OnEnqueued(1, depth, capacity_);
    return depth;
  }

  size_t PushBatch(std::vector<T>* items) override {
    const size_t n = items->size();
    if (n == 0) return size();
    size_t i = 0;
    size_t depth = 0;
    size_t accepted_run = 0;
    uint64_t last_pos = 0;
    while (i < n) {
      uint64_t pos;
      Cell* cell;
      if (!ClaimOrPark(&pos, &cell)) break;  // closed: leave the remainder
      cell->value = std::move((*items)[i++]);
      cell->seq.store(pos + 1, std::memory_order_release);
      WakeConsumerOnEmptyEdge(pos);
      last_pos = pos;
      ++accepted_run;
    }
    if (accepted_run > 0) {
      depth = DepthAfter(last_pos + 1);
      health_.OnEnqueued(accepted_run, depth, capacity_);
    }
    items->erase(items->begin(), items->begin() + static_cast<ptrdiff_t>(i));
    return depth;
  }

  T Pop() override {
    T item{};
    const int got = PopOne(&item, /*blocking=*/true);
    CHECK_EQ(got, 1) << "Pop on a closed, drained queue";
    return item;
  }

  size_t PopBatch(std::vector<T>* out, size_t max_items) override {
    CHECK_GE(max_items, 1u);
    for (;;) {
      uint64_t first = 0;
      const size_t n = PopAvailable(out, max_items, &first);
      if (n > 0) {
        FinishPop(first, n);
        return n;
      }
      if (DrainedAndClosed()) return 0;
      AwaitItem();
    }
  }

  size_t Drain(std::vector<T>* out) override {
    uint64_t first = 0;
    const size_t n = PopAvailable(out, kPosMask, &first);
    if (n > 0) FinishPop(first, n);
    return n;
  }

  bool TryPop(T* out) override { return PopOne(out, /*blocking=*/false) == 1; }

  void Close() override {
    enqueue_pos_.fetch_or(kClosedBit, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    producers_.Wake();
    consumers_.Wake();
  }

  bool closed() const override {
    return (enqueue_pos_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

  size_t size() const override {
    const uint64_t enq = enqueue_pos_.load(std::memory_order_acquire) & kPosMask;
    const uint64_t deq = dequeue_pos_.load(std::memory_order_acquire);
    return enq > deq ? static_cast<size_t>(enq - deq) : 0;
  }

  size_t capacity() const override { return capacity_; }

  void EnableHealthTracking() override { health_.Enable(); }

  QueueHealth Health() const override { return health_.Snapshot(size(), capacity_); }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  /// One non-blocking claim attempt. Returns +1 on success, 0 when the ring
  /// is full (or the claimable slot is still being consumed — backpressure
  /// either way), -1 when closed.
  int TryClaim(uint64_t* out_pos, Cell** out_cell) {
    for (;;) {
      const uint64_t raw = enqueue_pos_.load(std::memory_order_seq_cst);
      if (raw & kClosedBit) return -1;
      const uint64_t pos = raw;
      if (pos - dequeue_pos_.load(std::memory_order_seq_cst) >= capacity_) return 0;
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t dif = static_cast<int64_t>(seq - pos);
      if (dif == 0) {
        uint64_t expected = raw;
        if (enqueue_pos_.compare_exchange_weak(expected, raw + 1,
                                               std::memory_order_seq_cst)) {
          *out_pos = pos;
          *out_cell = &cell;
          return 1;
        }
      } else if (dif < 0) {
        // Previous-lap occupant not fully consumed yet: full in practice.
        return 0;
      }
      // Another producer claimed pos first (dif > 0 or CAS failure): retry.
    }
  }

  bool ClaimOrPark(uint64_t* out_pos, Cell** out_cell) {
    for (;;) {
      const int r = TryClaim(out_pos, out_cell);
      if (r == 1) return true;
      if (r == -1) return false;
      producers_.Await([this] {
        const uint64_t raw = enqueue_pos_.load(std::memory_order_seq_cst);
        if (raw & kClosedBit) return true;
        const uint64_t pos = raw;
        if (pos - dequeue_pos_.load(std::memory_order_seq_cst) >= capacity_) return false;
        const uint64_t seq = cells_[pos & mask_].seq.load(std::memory_order_seq_cst);
        return static_cast<int64_t>(seq - pos) >= 0;
      });
    }
  }

  /// Empty→non-empty edge (see SpscRingQueue): only the publisher of the
  /// slot the consumer is about to park on can strand it, and for that
  /// publisher dequeue_pos has caught up to its position.
  void WakeConsumerOnEmptyEdge(uint64_t pos) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (dequeue_pos_.load(std::memory_order_relaxed) >= pos) consumers_.Wake();
  }

  /// Claims and moves out up to max_items published slots. Stops at the
  /// first unpublished (or empty) position. *first is the first position
  /// consumed (valid when the return value is > 0).
  size_t PopAvailable(std::vector<T>* out, size_t max_items, uint64_t* first) {
    size_t got = 0;
    while (got < max_items) {
      uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t dif = static_cast<int64_t>(seq - (pos + 1));
      if (dif < 0) break;  // empty or still being published
      if (dif > 0) continue;  // another consumer advanced dequeue_pos; reload
      uint64_t expected = pos;
      if (!dequeue_pos_.compare_exchange_weak(expected, pos + 1,
                                              std::memory_order_seq_cst)) {
        continue;
      }
      out->push_back(std::move(cell.value));
      cell.seq.store(pos + ring_size_, std::memory_order_release);
      if (got == 0) *first = pos;
      ++got;
    }
    return got;
  }

  int PopOne(T* out, bool blocking) {
    for (;;) {
      uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t dif = static_cast<int64_t>(seq - (pos + 1));
      if (dif == 0) {
        uint64_t expected = pos;
        if (!dequeue_pos_.compare_exchange_weak(expected, pos + 1,
                                                std::memory_order_seq_cst)) {
          continue;
        }
        *out = std::move(cell.value);
        cell.seq.store(pos + ring_size_, std::memory_order_release);
        FinishPop(pos, 1);
        return 1;
      }
      if (dif > 0) continue;
      if (!blocking) return 0;
      if (DrainedAndClosed()) return 0;
      AwaitItem();
    }
  }

  bool DrainedAndClosed() const {
    const uint64_t raw = enqueue_pos_.load(std::memory_order_seq_cst);
    if (!(raw & kClosedBit)) return false;
    // All claims consumed? In-flight claims will still publish, so wait
    // for them (a claimed item was accepted).
    return dequeue_pos_.load(std::memory_order_seq_cst) == (raw & kPosMask);
  }

  void AwaitItem() {
    auto pred = [this] {
      const uint64_t pos = dequeue_pos_.load(std::memory_order_seq_cst);
      const uint64_t seq = cells_[pos & mask_].seq.load(std::memory_order_seq_cst);
      if (static_cast<int64_t>(seq - (pos + 1)) >= 0) return true;  // consumable
      return DrainedAndClosed();
    };
    if (trickle_.ShouldNap()) {
      for (int b = 0; b < ring_detail::TrickleGate::kBarrenNaps; ++b) {
        ring_detail::TrickleGate::Nap();
        if (pred()) return;  // productive nap: stay in nap mode
      }
      trickle_.OnNapBarren();
    }
    consumers_.Await(pred);
  }

  void FinishPop(uint64_t first, size_t n) {
    trickle_.OnPopped(n);
    // Full→non-full edge: a parked producer implies the ring was full over
    // [its probe, now], which forces enqueue - first >= capacity here.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const uint64_t enq = enqueue_pos_.load(std::memory_order_relaxed) & kPosMask;
    if (enq - first >= capacity_) producers_.Wake();
    health_.OnDequeued(n, size(), capacity_);
  }

  size_t DepthAfter(uint64_t enq_after) const {
    const uint64_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    return enq_after > deq ? static_cast<size_t>(enq_after - deq) : 1;
  }

  const size_t capacity_;
  const size_t ring_size_;
  const uint64_t mask_;
  std::vector<Cell> cells_;

  /// Enqueue cursor (claim tickets + closed bit) and dequeue cursor on
  /// separate cache lines: producers and consumers never dirty each
  /// other's line just by advancing their own side.
  alignas(64) std::atomic<uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<uint64_t> dequeue_pos_{0};
  ring_detail::TrickleGate trickle_;  // consumer-side, shares the dequeue line

  alignas(64) ring_detail::ParkingLot producers_;
  ring_detail::ParkingLot consumers_;
  ring_detail::RingHealthTracker health_;
};

/// Builds the ring for a link with the given number of producer threads
/// (`spsc_safe` = exactly one producer task and no transport threads can
/// ever push). kRing is the only QueueImpl.
template <typename T>
std::unique_ptr<Queue<T>> MakeQueue(QueueImpl /*impl*/, size_t capacity, bool spsc_safe) {
  if (spsc_safe) return std::make_unique<SpscRingQueue<T>>(capacity);
  return std::make_unique<RingQueue<T>>(capacity);
}

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_RING_QUEUE_H_
