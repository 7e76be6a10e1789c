#ifndef DSSJ_STREAM_QUEUE_H_
#define DSSJ_STREAM_QUEUE_H_

#include <cstddef>
#include <vector>

#include "stream/overload.h"

namespace dssj::stream {

/// MakeQueue's implementation selector (stream/ring_queue.h). The lock-free
/// rings are the only implementation — SpscRingQueue for 1:1 links,
/// RingQueue for fan-in links — so kRing is the only value.
enum class QueueImpl { kRing };

/// Bounded blocking FIFO — the channel concept InprocChannel, the executors
/// and the TCP transport's per-peer send queues program against, and the
/// contract both rings in stream/ring_queue.h implement.
///
/// Push blocks when full (this is the topology's backpressure mechanism)
/// and Pop blocks when empty. Items are delivered in claim order, which
/// implies per-producer FIFO — the property the distributed join's
/// exactly-once rule relies on. A batch larger than the remaining capacity
/// is delivered in contiguous chunks as space frees up; batch boundaries
/// are NOT atomic (other producers may interleave between chunks), which
/// still preserves per-producer FIFO.
///
/// Close() (used when a supervised task exhausts its restart budget, and
/// at transport shutdown) unblocks every waiter on both sides: producers
/// stop accepting — a blocked Push returns 0 and a blocked PushBatch leaves
/// the unaccepted remainder in its input vector — while items accepted
/// before the close stay poppable until the queue drains, after which
/// PopBatch returns 0.
template <typename T>
class Queue {
 public:
  virtual ~Queue() = default;

  /// Blocks until there is room, then enqueues. Returns the queue depth
  /// right after the push (>= 1, for high-watermark accounting), or 0 when
  /// the queue was closed and the item rejected.
  virtual size_t Push(T item) = 0;

  /// Enqueues every element of `*items` in order, draining the vector;
  /// blocks for backpressure. If the queue closes mid-batch the unaccepted
  /// remainder is left in `*items` (in order). Returns the depth right
  /// after the last accepted element.
  virtual size_t PushBatch(std::vector<T>* items) = 0;

  /// Blocks until an item is available, then dequeues it. Must not be
  /// called on a closed-and-drained queue (use PopBatch/TryPop when the
  /// queue may close).
  virtual T Pop() = 0;

  /// Blocks until at least one item is available, then appends up to
  /// `max_items` to `*out`. Returns the number popped — 0 only when the
  /// queue is closed and drained.
  virtual size_t PopBatch(std::vector<T>* out, size_t max_items) = 0;

  /// Non-blocking: appends everything currently queued to `*out`. Returns
  /// the number drained (possibly zero).
  virtual size_t Drain(std::vector<T>* out) = 0;

  /// Non-blocking pop; returns false if the queue is empty.
  virtual bool TryPop(T* out) = 0;

  /// Stops accepting new items and wakes every blocked producer and
  /// consumer. Items already accepted remain poppable. Idempotent;
  /// thread-safe against concurrent Push/Pop from any thread.
  virtual void Close() = 0;

  virtual bool closed() const = 0;
  virtual size_t size() const = 0;
  virtual size_t capacity() const = 0;

  /// Turns on queue-health tracking (depth EWMA, time at capacity, oldest
  /// item age). Must be called before any concurrent use (the topology does
  /// it at Build time); queues without it pay only a dead branch per
  /// operation.
  virtual void EnableHealthTracking() = 0;

  /// Point-in-time health snapshot (zeros unless tracking is enabled).
  /// QueueHealth::force_shed is not set here — the topology wrapper owns
  /// that bit.
  virtual QueueHealth Health() const = 0;
};

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_QUEUE_H_
