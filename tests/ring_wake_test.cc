// Wake latency across the ring's two park edges: a consumer parked on an
// empty ring must be woken by the push that publishes its item
// (RingQueue::Published), and a producer parked on a full ring by the pop
// that frees a slot (RingQueue::FinishPop). A lost wake does not hang:
// ParkingLot::Park re-checks its predicate every 5 ms, so a missing wake
// shows only as latency, which is what these tests bound. A third case
// bounds what a consumer pays in CPU to wait for batches that arrive
// further apart than spinning covers, and a fourth checks that a lot which
// parks at once goes back to spinning once its waits turn short, however
// slowly its wakes land. ThreadSanitizer does not model the fences the
// wake protocol relies on, and its slowdown would blur the bounds, so this
// suite is not in the tsan_safe set.
#include "stream/ring_queue.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace dssj::stream {
namespace {

constexpr int kRounds = 50;
/// Long enough for the waiter to spin, yield and park (and for the
/// consumer's trickle naps, 2 x 200 us, to run out) before the wake.
constexpr auto kPause = std::chrono::milliseconds(3);
/// A woken waiter runs within tens of microseconds; a missed wake waits for
/// the 5 ms re-check, on average half of it.
constexpr int64_t kMedianBoundNanos = 500'000;

int64_t Median(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

TEST(RingWakeTest, PushWakesParkedConsumer) {
  RingQueue<int64_t> q(4);
  std::vector<int64_t> latency;
  std::thread consumer([&] {
    for (int r = 0; r < kRounds; ++r) {
      const int64_t pushed_at = q.Pop();  // the item is its push time
      latency.push_back(NowNanos() - pushed_at);
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    std::this_thread::sleep_for(kPause);
    q.Push(NowNanos());
  }
  consumer.join();
  ASSERT_EQ(latency.size(), static_cast<size_t>(kRounds));
  EXPECT_LT(Median(latency), kMedianBoundNanos) << "a push left the parked consumer asleep";
}

TEST(RingWakeTest, PopWakesParkedProducer) {
  RingQueue<int> q(1);
  q.Push(0);
  std::atomic<int64_t> popped_at{0};
  std::vector<int64_t> latency;
  std::thread producer([&] {
    for (int r = 1; r <= kRounds; ++r) {
      EXPECT_GT(q.Push(r), 0u);  // parks: the ring is full until the next pop
      latency.push_back(NowNanos() - popped_at.load(std::memory_order_relaxed));
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    std::this_thread::sleep_for(kPause);
    // Stored before the pop whose tail store (release) the producer's claim
    // reads (acquire), so the producer sees this round's time.
    popped_at.store(NowNanos(), std::memory_order_relaxed);
    EXPECT_EQ(q.Pop(), r);
  }
  producer.join();
  ASSERT_EQ(latency.size(), static_cast<size_t>(kRounds));
  EXPECT_LT(Median(latency), kMedianBoundNanos) << "a pop left the parked producer asleep";
}

// A producer pushes a 32-item batch every 500 us. Each wait then outlasts
// the spin and yield phases (about 30 us of CPU), so once the lot has
// measured enough of them the consumer must park at once: a park and its
// wake cost a few microseconds of CPU. The bound is per batch, over the
// batches after a warm-up.
TEST(RingWakeTest, LongWaitsParkWithoutSpinning) {
  constexpr int kBatches = 300;
  constexpr int kWarmupBatches = 50;
  constexpr int kBatchItems = 32;
  constexpr auto kGap = std::chrono::microseconds(500);
  constexpr int64_t kCpuBoundNanosPerBatch = 12'000;
  RingQueue<int> q(4096);
  int64_t cpu_nanos = 0;
  std::thread consumer([&] {
    std::vector<int> out;
    int64_t cpu_at_warmup = -1;
    int popped = 0;
    while (popped < kBatches * kBatchItems) {
      if (cpu_at_warmup < 0 && popped >= kWarmupBatches * kBatchItems) {
        cpu_at_warmup = ThreadCpuNanos();
      }
      out.clear();
      popped += static_cast<int>(q.PopBatch(&out, 4096));
    }
    cpu_nanos = ThreadCpuNanos() - cpu_at_warmup;
  });
  const auto start = std::chrono::steady_clock::now();
  for (int b = 0; b < kBatches; ++b) {
    std::this_thread::sleep_until(start + b * kGap);
    std::vector<int> batch(kBatchItems, b);
    q.PushBatch(&batch);
  }
  consumer.join();
  const int64_t per_batch = cpu_nanos / (kBatches - kWarmupBatches);
  EXPECT_LT(per_batch, kCpuBoundNanosPerBatch)
      << "the consumer spent " << per_batch << " ns of CPU per batch waiting";
}

// A parked wait ends at the waker's Wake, not when the woken thread runs
// again. Counting a wake's own latency would make every parked wait look
// long, so a lot that once parked at once would never spin again. Here the
// predicate stands in for a slow wake: in a wait that began by parking at
// once, it reports true only 200 us after the release. Long waits first
// make the lot park at once; then each wait is released as soon as it
// starts, and the lot must go back to spinning.
TEST(RingWakeTest, WakeLatencyDoesNotKeepALotParking) {
  constexpr int kLongWaits = 32;
  constexpr int kMaxShortWaits = 200;
  constexpr auto kLongGap = std::chrono::microseconds(200);
  constexpr int64_t kSlowWakeNanos = 200'000;
  ring_detail::ParkingLot lot;
  std::atomic<int> waiting{-1};   // the wait the waiter is in
  std::atomic<int> released{-1};  // the last wait the waker ended
  std::atomic<bool> done{false};
  std::thread waker([&] {
    for (int i = 0;; ++i) {
      while (waiting.load() < i) {
        if (done.load()) return;
        std::this_thread::yield();
      }
      if (i < kLongWaits) std::this_thread::sleep_for(kLongGap);
      released.store(i, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      lot.Wake();
    }
  });
  bool parked_at_once = false;
  int short_waits = 0;
  for (int i = 0; i < kLongWaits + kMaxShortWaits; ++i) {
    const bool slow_wake = i >= kLongWaits;
    if (slow_wake) {
      if (!lot.parks_at_once()) break;  // back to spinning
      parked_at_once = true;
      ++short_waits;
    }
    lot.Await([&] {
      waiting.store(i);
      if (released.load() < i) return false;
      const int64_t seen = NowNanos();
      while (slow_wake && NowNanos() - seen < kSlowWakeNanos) {
      }
      return true;
    });
  }
  done.store(true);
  waker.join();
  ASSERT_TRUE(parked_at_once) << "long waits never made the lot park at once";
  EXPECT_LT(short_waits, kMaxShortWaits)
      << "the lot still parked at once after " << short_waits << " short waits";
}

}  // namespace
}  // namespace dssj::stream
