// Ring-specific stress for SpscRingQueue and RingQueue: cursor wraparound,
// randomized batch sizes, close-point sweeps and close storms. The Queue<T>
// contract both rings share is tested in queue_test.
#include "stream/ring_queue.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dssj::stream {
namespace {

// ---------------------------------------------------------------------------
// SpscRingQueue
// ---------------------------------------------------------------------------

TEST(SpscRingQueueTest, WraparoundAtTinyCapacities) {
  // Small capacities force the cursors around the ring thousands of times,
  // including the non-power-of-two capacities whose ring is rounded up.
  for (size_t cap : {1u, 2u, 3u, 5u}) {
    SpscRingQueue<int> q(cap);
    int next_out = 0;
    for (int i = 0; i < 4096; ++i) {
      q.Push(i);
      if (q.size() == cap) {
        while (q.size() > 0) EXPECT_EQ(q.Pop(), next_out++);
      }
    }
    while (q.size() > 0) EXPECT_EQ(q.Pop(), next_out++);
    EXPECT_EQ(next_out, 4096) << "capacity " << cap;
  }
}

TEST(SpscRingQueueTest, RandomizedBatchSizesPreserveOrderExactlyOnce) {
  constexpr int kItems = 50000;
  SpscRingQueue<int> q(16);
  std::thread producer([&q] {
    std::mt19937 rng(17);
    std::uniform_int_distribution<int> chunk(1, 19);
    int next = 0;
    while (next < kItems) {
      std::vector<int> batch;
      for (int k = chunk(rng); k > 0 && next < kItems; --k) batch.push_back(next++);
      q.PushBatch(&batch);
      ASSERT_TRUE(batch.empty()) << "open queue did not accept the whole batch";
    }
    q.Close();
  });

  std::mt19937 rng(23);
  std::uniform_int_distribution<int> want(1, 13);
  std::vector<int> got;
  std::vector<int> batch;
  while (q.PopBatch(&batch, static_cast<size_t>(want(rng))) > 0) {
    got.insert(got.end(), batch.begin(), batch.end());
    batch.clear();
  }
  producer.join();

  ASSERT_EQ(got.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(got[i], i) << "lost, duplicated or reordered";
}

TEST(SpscRingQueueTest, ShutdownRaceLosesNoAcceptedItems) {
  // The closed bit lives in the claim cursor, so "Push returned a depth" must
  // mean "the item is poppable" no matter where Close lands. Repeat the race
  // with close points spread across the producer's run.
  for (int round = 0; round < 30; ++round) {
    SpscRingQueue<int> q(4);
    std::atomic<uint64_t> accepted{0};
    std::thread producer([&] {
      for (int i = 0; i < 10000; ++i) {
        if (q.Push(i) == 0) break;
        accepted.fetch_add(1);
      }
    });
    std::vector<int> got;
    std::thread consumer([&] {
      std::vector<int> batch;
      while (q.PopBatch(&batch, 7) > 0) {
        got.insert(got.end(), batch.begin(), batch.end());
        batch.clear();
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    q.Close();
    producer.join();
    consumer.join();
    ASSERT_EQ(got.size(), accepted.load()) << "round " << round;
    for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], static_cast<int>(i));
  }
}

// ---------------------------------------------------------------------------
// RingQueue (MPMC)
// ---------------------------------------------------------------------------

TEST(RingQueueTest, WraparoundAtTinyCapacities) {
  for (size_t cap : {1u, 2u, 3u}) {
    RingQueue<int> q(cap);
    int next_out = 0;
    for (int i = 0; i < 4096; ++i) {
      q.Push(i);
      if (q.size() == cap) {
        while (q.size() > 0) EXPECT_EQ(q.Pop(), next_out++);
      }
    }
    while (q.size() > 0) EXPECT_EQ(q.Pop(), next_out++);
    EXPECT_EQ(next_out, 4096) << "capacity " << cap;
  }
}

TEST(RingQueueTest, RandomizedBatchesPreservePerProducerFifo) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 15000;
  RingQueue<std::pair<int, int>> q(32);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      std::mt19937 rng(100 + p);
      std::uniform_int_distribution<int> chunk(1, 11);
      int next = 0;
      while (next < kPerProducer) {
        std::vector<std::pair<int, int>> batch;
        for (int k = chunk(rng); k > 0 && next < kPerProducer; --k) batch.push_back({p, next++});
        q.PushBatch(&batch);
        ASSERT_TRUE(batch.empty());
      }
    });
  }

  std::mt19937 rng(7);
  std::uniform_int_distribution<int> want(1, 9);
  std::map<int, int> next_expected;
  size_t total = 0;
  std::vector<std::pair<int, int>> batch;
  while (total < static_cast<size_t>(kProducers) * kPerProducer) {
    const size_t n = q.PopBatch(&batch, static_cast<size_t>(want(rng)));
    ASSERT_GT(n, 0u);
    for (const auto& [p, i] : batch) {
      ASSERT_EQ(i, next_expected[p]) << "producer " << p << " reordered";
      ++next_expected[p];
    }
    total += n;
    batch.clear();
  }
  for (auto& t : producers) t.join();
}

TEST(RingQueueTest, CloseWhileFullRaceLosesNoAcceptedItems) {
  for (int round = 0; round < 20; ++round) {
    RingQueue<int> q(4);
    constexpr int kProducers = 3;
    std::atomic<uint64_t> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < 5000; ++i) {
          if (q.Push(i) == 0) break;
          accepted.fetch_add(1);
        }
      });
    }
    std::vector<int> got;
    std::thread consumer([&] {
      std::vector<int> batch;
      while (q.PopBatch(&batch, 3) > 0) {
        got.insert(got.end(), batch.begin(), batch.end());
        batch.clear();
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
    q.Close();
    for (auto& t : producers) t.join();
    consumer.join();
    ASSERT_EQ(got.size(), accepted.load()) << "round " << round;
  }
}

TEST(RingQueueTest, CloseWhileEmptyRaceUnblocksAllConsumers) {
  for (int round = 0; round < 20; ++round) {
    RingQueue<int> q(8);
    std::atomic<int> done{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < 3; ++c) {
      consumers.emplace_back([&] {
        std::vector<int> batch;
        while (q.PopBatch(&batch, 4) > 0) batch.clear();
        done.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
    q.Close();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(done.load(), 3) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

TEST(RingQueueHealthTest, GaugesTrackDepthAgeAndTimeAtCapacity) {
  for (bool spsc : {true, false}) {
    auto q = MakeQueue<int>(QueueImpl::kRing, 4, spsc);
    q->EnableHealthTracking();
    q->Push(1);
    q->Push(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    QueueHealth h = q->Health();
    EXPECT_EQ(h.depth, 2u);
    EXPECT_EQ(h.capacity, 4u);
    EXPECT_GT(h.depth_ewma, 0.0);
    EXPECT_GT(h.oldest_age_micros, 0);
    q->Push(3);
    q->Push(4);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    h = q->Health();
    EXPECT_GT(h.at_capacity_stretch_micros, 0) << "full queue must accrue capacity time";
    int out = 0;
    q->TryPop(&out);
    h = q->Health();
    EXPECT_EQ(h.depth, 3u);
    EXPECT_GT(h.time_at_capacity_micros, 0);
  }
}

TEST(MakeQueueTest, FactorySelectsTheRightImplementationPerLink) {
  auto spsc = MakeQueue<int>(QueueImpl::kRing, 8, /*spsc_safe=*/true);
  auto mpmc = MakeQueue<int>(QueueImpl::kRing, 8, /*spsc_safe=*/false);
  EXPECT_NE(dynamic_cast<SpscRingQueue<int>*>(spsc.get()), nullptr);
  EXPECT_NE(dynamic_cast<RingQueue<int>*>(mpmc.get()), nullptr);
}

}  // namespace
}  // namespace dssj::stream
