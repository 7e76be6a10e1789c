// Ring-specific stress for RingQueue: cursor wraparound, randomized batch
// claims from several producers against a consumer mixing every pop path,
// close-point sweeps and close-while-full races. The RingQueue contract is
// tested in queue_test.
#include "stream/ring_queue.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dssj::stream {
namespace {

TEST(RingQueueTest, WraparoundAtTinyCapacities) {
  // Small capacities force the cursors around the ring thousands of times,
  // including the non-power-of-two capacities whose ring is rounded up and
  // capacity 1, where every position reuses the one slot.
  for (size_t cap : {1u, 2u, 3u, 5u}) {
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

TEST(RingQueueTest, RandomizedBatchSizesPreserveOrderExactlyOnce) {
  constexpr int kItems = 50000;
  RingQueue<int> q(16);
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

TEST(RingQueueTest, BatchClaimStressPreservesPerProducerFifoExactlyOnce) {
  // Producers claim runs of random length (1-40, so often more than the
  // free room or the whole ring) through both Push and PushBatch; the one
  // consumer takes them through Pop, PopBatch and Drain at random. Every
  // producer's items must arrive exactly once and in order, at every
  // capacity and producer count.
  constexpr int kPerProducer = 4000;
  for (size_t cap : {1u, 2u, 3u, 5u, 64u}) {
    for (int producers_n = 1; producers_n <= 3; ++producers_n) {
      RingQueue<std::pair<int, int>> q(cap);
      std::vector<std::thread> producers;
      for (int p = 0; p < producers_n; ++p) {
        producers.emplace_back([&q, p, cap] {
          std::mt19937 rng(static_cast<uint32_t>(1000 * cap + 10 * p));
          std::uniform_int_distribution<int> run(1, 40);
          std::vector<std::pair<int, int>> batch;
          int next = 0;
          while (next < kPerProducer) {
            const int len = std::min(run(rng), kPerProducer - next);
            if (len % 4 == 0) {  // a run pushed one Push at a time
              for (int k = 0; k < len; ++k) ASSERT_GT(q.Push({p, next++}), 0u);
              continue;
            }
            for (int k = 0; k < len; ++k) batch.push_back({p, next++});
            ASSERT_GT(q.PushBatch(&batch), 0u);
            ASSERT_TRUE(batch.empty()) << "open queue did not accept the whole batch";
          }
        });
      }

      std::mt19937 rng(static_cast<uint32_t>(cap * 7 + producers_n));
      std::uniform_int_distribution<int> pick(0, 5);
      std::vector<int> next_expected(producers_n, 0);
      const size_t total = static_cast<size_t>(producers_n) * kPerProducer;
      size_t got = 0;
      std::vector<std::pair<int, int>> out;
      while (got < total) {
        out.clear();
        const int mode = pick(rng);
        if (mode == 0) {
          out.push_back(q.Pop());
        } else if (mode == 1) {
          q.Drain(&out);  // may find nothing
        } else {
          ASSERT_GT(q.PopBatch(&out, static_cast<size_t>(mode * mode * 3)), 0u);
        }
        for (const auto& [p, i] : out) {
          ASSERT_EQ(i, next_expected[p])
              << "capacity " << cap << ", " << producers_n << " producers: producer " << p
              << " lost, duplicated or reordered an item";
          ++next_expected[p];
        }
        got += out.size();
      }
      for (auto& t : producers) t.join();
      EXPECT_EQ(q.size(), 0u);
      out.clear();
      EXPECT_EQ(q.Drain(&out), 0u);
    }
  }
}

TEST(RingQueueTest, ShutdownRaceLosesNoAcceptedItems) {
  // The closed bit lives in the claim cursor, so "Push returned a depth" must
  // mean "the item is poppable" no matter where Close lands. Repeat the race
  // with close points spread across the producer's run.
  for (int round = 0; round < 30; ++round) {
    RingQueue<int> q(4);
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

TEST(RingQueueTest, CloseWhileFullPushBatchRaceLosesNoAcceptedItems) {
  // Three producers push batches far larger than the ring, so each spends
  // most of its time blocked in PushBatch waiting for room. Close lands at a
  // different point each even round; in odd rounds it lands on a full ring
  // before the consumer has popped anything. Every accepted item must be popped, once, in its
  // producer's order, and the unaccepted remainder must stay in the batch.
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 400;
  for (int round = 0; round < 40; ++round) {
    RingQueue<std::pair<int, int>> q(4);
    std::vector<int> accepted(kProducers, 0);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<std::pair<int, int>> batch;
        for (int i = 0; i < kPerProducer; ++i) batch.push_back({p, i});
        q.PushBatch(&batch);  // returns only when all went in or the ring closed
        accepted[p] = kPerProducer - static_cast<int>(batch.size());
        if (!batch.empty()) {
          EXPECT_EQ(batch.front().second, accepted[p]) << "the remainder follows the prefix";
        }
      });
    }
    std::vector<std::vector<int>> popped(kProducers);
    const auto consume = [&] {
      std::vector<std::pair<int, int>> out;
      while (q.PopBatch(&out, 2) > 0) {
        for (const auto& [p, i] : out) popped[p].push_back(i);
        out.clear();
      }
    };
    std::thread consumer;
    if (round % 2 == 0) {
      consumer = std::thread(consume);
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    } else {
      while (q.size() < q.capacity()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));  // let all three block
    }
    q.Close();
    for (auto& t : producers) t.join();
    if (round % 2 == 0) {
      consumer.join();
    } else {
      consume();  // the ring filled and every producer blocked before Close
    }
    int total = 0;
    for (int p = 0; p < kProducers; ++p) {
      ASSERT_EQ(popped[p].size(), static_cast<size_t>(accepted[p])) << "round " << round;
      for (int i = 0; i < accepted[p]; ++i) ASSERT_EQ(popped[p][i], i) << "round " << round;
      total += accepted[p];
    }
    if (round % 2 == 1) {
      EXPECT_EQ(total, 4) << "a closed full ring accepted nothing more";
    }
  }
}

TEST(TrickleGateTest, SmallDrainsNapButPopsFromAFullRingDoNot) {
  using Gate = ring_detail::TrickleGate;
  Gate gate;
  // kTrickleWaits waits in a row, each after a drain of at most
  // kTrickleItems, enter nap mode.
  for (int w = 1; w < Gate::kTrickleWaits; ++w) {
    gate.OnPopped(1, /*from_full=*/false);
    EXPECT_FALSE(gate.ShouldNap()) << "wait " << w;
  }
  gate.OnPopped(Gate::kTrickleItems, /*from_full=*/false);
  EXPECT_TRUE(gate.ShouldNap());
  // In nap mode every wait naps, whatever it drained, until the ring leaves it.
  gate.OnPopped(1000, /*from_full=*/false);
  EXPECT_TRUE(gate.ShouldNap());
  gate.LeaveNapMode();
  for (int w = 1; w < Gate::kTrickleWaits; ++w) {
    gate.OnPopped(1, /*from_full=*/false);
    EXPECT_FALSE(gate.ShouldNap()) << "leaving nap mode restarts the streak";
  }
  // A larger drain ends the streak.
  gate.OnPopped(Gate::kTrickleItems + 1, /*from_full=*/false);
  EXPECT_FALSE(gate.ShouldNap());
  for (int w = 1; w < Gate::kTrickleWaits; ++w) {
    gate.OnPopped(1, /*from_full=*/false);
    EXPECT_FALSE(gate.ShouldNap());
  }
  // So does a pop from a full ring, however few items it took: a ring of
  // one slot that its producers keep full is backpressure, not trickle.
  for (int w = 0; w < 4 * Gate::kTrickleWaits; ++w) {
    gate.OnPopped(1, /*from_full=*/true);
    EXPECT_FALSE(gate.ShouldNap()) << "wait " << w;
  }
}

TEST(RingQueueHealthTest, GaugesTrackDepthAgeAndTimeAtCapacity) {
  RingQueue<int> q(4);
  q.EnableHealthTracking();
  q.Push(1);
  q.Push(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  QueueHealth h = q.Health();
  EXPECT_EQ(h.depth, 2u);
  EXPECT_EQ(h.capacity, 4u);
  EXPECT_GT(h.oldest_age_micros, 0);
  EXPECT_EQ(h.at_capacity_stretch_micros, 0);
  q.Push(3);
  q.Push(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  h = q.Health();
  EXPECT_GT(h.at_capacity_stretch_micros, 0) << "full queue must accrue capacity time";
  EXPECT_EQ(q.Pop(), 1);
  h = q.Health();
  EXPECT_EQ(h.depth, 3u);
  EXPECT_EQ(h.at_capacity_stretch_micros, 0) << "the stretch ends when the ring has room";
}

}  // namespace
}  // namespace dssj::stream
