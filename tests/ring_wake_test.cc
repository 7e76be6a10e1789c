// Wake latency across the ring's two park edges: a consumer parked on an
// empty ring must be woken by the push that publishes its item
// (RingQueue::Published), and a producer parked on a full ring by the pop
// that frees a slot (RingQueue::FinishPop). A lost wake does not hang:
// ParkingLot::Park re-checks its predicate every 5 ms, so a missing wake
// shows only as latency, which is what these tests bound. ThreadSanitizer
// does not model the fences the wake protocol relies on, and its slowdown
// would blur the bound, so this suite is not in the tsan_safe set.
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

}  // namespace
}  // namespace dssj::stream
