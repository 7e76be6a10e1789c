// The RingQueue contract (stream/ring_queue.h): blocking at capacity,
// batch transfers, Drain, the Close protocol, and per-producer FIFO with
// several producers feeding the one consumer. Ring-specific stress
// (wraparound, randomized batch claims, close-point sweeps) lives in
// ring_queue_test.
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stream/ring_queue.h"

namespace dssj::stream {
namespace {

TEST(RingQueueContractTest, FifoSingleThread) {
  RingQueue<int> q(8);
  for (int i = 0; i < 5; ++i) q.Push(i);
  EXPECT_EQ(q.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.Pop(), i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(RingQueueContractTest, PushBlocksAtCapacityUntilPop) {
  RingQueue<int> q(1);
  q.Push(1);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(2);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load()) << "push did not block at capacity";
  EXPECT_EQ(q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop(), 2);
}

TEST(RingQueueContractTest, PushBatchDrainsInputAndReportsDepth) {
  RingQueue<int> q(8);
  std::vector<int> batch{1, 2, 3};
  EXPECT_EQ(q.PushBatch(&batch), 3u);
  EXPECT_TRUE(batch.empty()) << "PushBatch must drain the input vector";
  for (int i = 1; i <= 3; ++i) EXPECT_EQ(q.Pop(), i);
}

TEST(RingQueueContractTest, PushBatchLargerThanCapacityBackpressures) {
  RingQueue<int> q(4);
  constexpr int kItems = 100;
  std::thread producer([&q] {
    std::vector<int> batch;
    for (int i = 0; i < kItems; ++i) batch.push_back(i);
    q.PushBatch(&batch);  // must chunk: batch is 25x the capacity
  });
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(q.Pop(), i) << "chunked batch must stay in order";
  }
  producer.join();
  EXPECT_EQ(q.size(), 0u);
}

TEST(RingQueueContractTest, PopBatchRespectsMaxItemsAndOrder) {
  RingQueue<int> q(16);
  for (int i = 0; i < 10; ++i) q.Push(i);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.PopBatch(&out, 100), 6u) << "PopBatch takes at most what is queued";
  EXPECT_EQ(out.size(), 10u) << "PopBatch appends to the output vector";
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TEST(RingQueueContractTest, DrainIsNonBlockingAndEmptiesTheQueue) {
  RingQueue<int> q(8);
  std::vector<int> out;
  EXPECT_EQ(q.Drain(&out), 0u) << "Drain on empty must not block";
  for (int i = 0; i < 5; ++i) q.Push(i);
  EXPECT_EQ(q.Drain(&out), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(RingQueueCloseContractTest, CloseUnblocksBlockedProducer) {
  RingQueue<int> q(1);
  q.Push(1);
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_EQ(q.Push(2), 0u) << "Push into a closed queue must report rejection";
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load()) << "push should be blocked at capacity";
  q.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  // The item accepted before Close stays poppable.
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 8), 1u);
  EXPECT_EQ(out, (std::vector<int>{1}));
  EXPECT_EQ(q.PopBatch(&out, 8), 0u) << "closed and drained: PopBatch returns 0";
}

TEST(RingQueueCloseContractTest, CloseUnblocksBlockedConsumer) {
  RingQueue<int> q(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(q.PopBatch(&out, 8), 0u);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load()) << "pop should be blocked on empty";
  q.Close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(RingQueueCloseContractTest, PushBatchLeavesUnacceptedRemainder) {
  RingQueue<int> q(2);
  q.Close();
  std::vector<int> batch{1, 2, 3};
  q.PushBatch(&batch);
  EXPECT_EQ(batch.size(), 3u) << "nothing accepted into a closed queue";
  RingQueue<int> q2(2);
  std::vector<int> batch2{1, 2, 3, 4, 5};
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q2.Close();
  });
  q2.PushBatch(&batch2);  // accepts 2, blocks, then unblocks on Close
  closer.join();
  EXPECT_EQ(batch2.size(), 3u) << "unaccepted tail must remain in the input";
  EXPECT_EQ(batch2.front(), 3);
  std::vector<int> out;
  EXPECT_EQ(q2.PopBatch(&out, 8), 2u) << "accepted prefix must not be lost";
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(RingQueueCloseContractTest, ShutdownRaceLosesNoAcceptedItems) {
  // The failed-task scenario: producers blocked in PushBatch and the
  // consumer blocked in PopBatch while the queue is closed mid-flight. Every
  // item a producer reports as accepted must be popped exactly once, in its
  // producer's order; both sides must unblock.
  constexpr int kProducers = 3;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    RingQueue<std::pair<int, int>> q(4);
    std::vector<int> accepted(kProducers, 0);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<std::pair<int, int>> batch;
        for (int i = 0; i < 50; ++i) batch.push_back({p, i});
        const size_t before = batch.size();
        while (!batch.empty()) {
          const size_t prev = batch.size();
          q.PushBatch(&batch);
          if (batch.size() == prev) break;  // closed: nothing more accepted
        }
        accepted[p] = static_cast<int>(before - batch.size());
      });
    }
    std::vector<std::vector<int>> popped(kProducers);
    std::thread consumer([&] {
      std::vector<std::pair<int, int>> out;
      while (true) {
        out.clear();
        if (q.PopBatch(&out, 8) == 0) return;  // closed and drained
        for (const auto& [p, i] : out) popped[p].push_back(i);
      }
    });
    q.Close();
    for (auto& t : producers) t.join();
    // The consumer must still drain items accepted before the close.
    consumer.join();
    for (int p = 0; p < kProducers; ++p) {
      ASSERT_EQ(popped[p].size(), static_cast<size_t>(accepted[p]))
          << "round " << round << ": accepted items lost or duplicated";
      for (int i = 0; i < accepted[p]; ++i) {
        ASSERT_EQ(popped[p][i], i) << "accepted prefix must arrive whole and in order";
      }
    }
  }
}

TEST(RingQueueCloseContractTest, CloseDuringChunkedPushBatchWakesLateConsumers) {
  // Wakeup-protocol regression: a producer whose chunked PushBatch is
  // interrupted by Close can exit with items from an earlier chunk still
  // queued, while a consumer only starts waiting *after* Close's broadcast
  // has come and gone. That consumer must still be woken to drain them, or
  // it sleeps forever (the test then hangs and trips the ctest timeout).
  // Many rounds to vary the interleaving of the three threads around the
  // chunk boundaries.
  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    RingQueue<int> q(2);
    std::atomic<int> accepted{0};
    std::thread producer([&] {
      std::vector<int> batch{0, 1, 2, 3, 4, 5, 6};  // 3.5x capacity: must chunk
      const size_t before = batch.size();
      q.PushBatch(&batch);
      accepted.store(static_cast<int>(before - batch.size()));
    });
    std::thread closer([&] { q.Close(); });
    std::atomic<int> popped{0};
    std::thread consumer([&] {
      std::vector<int> out;
      while (true) {
        out.clear();
        if (q.PopBatch(&out, 3) == 0) return;  // closed and drained
        popped.fetch_add(static_cast<int>(out.size()));
      }
    });
    producer.join();
    closer.join();
    consumer.join();
    ASSERT_EQ(popped.load(), accepted.load())
        << "round " << round << ": accepted items lost";
  }
}

// ---------------------------------------------------------------------------
// Several producers, one consumer: fan-in links and TCP send queues.
// ---------------------------------------------------------------------------

TEST(RingQueueFanInTest, PerProducerOrderPreservedWithSingleConsumer) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 10000;
  RingQueue<std::pair<int, int>> q(32);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push({p, i});
    });
  }
  std::vector<int> next(kProducers, 0);
  for (int n = 0; n < kProducers * kPerProducer; ++n) {
    const auto [p, i] = q.Pop();
    ASSERT_EQ(i, next[p]) << "per-producer FIFO violated";
    ++next[p];
  }
  for (auto& t : producers) t.join();
}

TEST(RingQueueFanInTest, PushBatchFromManyProducersPreservesPerProducerFifo) {
  // The invariant the batched transport layer leans on: whatever interleaving
  // PushBatch chunks produce across producers, each producer's own items
  // arrive in order. Small capacity forces chunking and backpressure.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  constexpr int kBatch = 7;  // deliberately not a divisor of kPerProducer
  RingQueue<std::pair<int, int>> q(16);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      std::vector<std::pair<int, int>> batch;
      for (int i = 0; i < kPerProducer; ++i) {
        batch.push_back({p, i});
        if (batch.size() == kBatch) q.PushBatch(&batch);
      }
      q.PushBatch(&batch);  // flush the remainder
    });
  }
  std::vector<int> next(kProducers, 0);
  std::vector<std::pair<int, int>> out;
  int received = 0;
  while (received < kProducers * kPerProducer) {
    out.clear();
    q.PopBatch(&out, 32);
    for (const auto& [p, i] : out) {
      ASSERT_EQ(i, next[p]) << "per-producer FIFO violated under PushBatch";
      ++next[p];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace dssj::stream
