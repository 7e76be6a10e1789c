// A co-located tuple hop must not touch the heap: the join topology's tuple
// shapes keep their fields inline, the rings move envelopes between
// preallocated slots, and an executor's reused TupleBatch keeps its storage.
// This binary replaces the global operator new to count calls, which is why
// it stands alone: the replacement applies to every test linked with it.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stream/channel.h"
#include "stream/component.h"
#include "stream/ring_queue.h"
#include "stream/value.h"
#include "text/record.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(size_t n, size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n, 0); }
void* operator new(size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }

namespace dssj::stream {
namespace {

constexpr size_t kBatch = 32;

/// Builds tuple `i` in one of the four shapes the join topology moves:
/// source [record, emit_us], dispatcher [record, flags, emit_us], lane
/// watermark [lane, frontier], and result [4 x int]. The last field
/// encodes `i` (see LastField), so the sink can check what it received.
Tuple HotShape(const std::shared_ptr<const Record>& record, uint64_t i) {
  const auto n = static_cast<int64_t>(i);
  switch (i % 4) {
    case 0:
      return MakeTuple(std::shared_ptr<const void>(record), n);
    case 1:
      return MakeTuple(std::shared_ptr<const void>(record), int64_t{3}, n);
    case 2:
      return MakeTuple(n, n + 1);
    default:
      return MakeTuple(n, n + 1, n + 2, n + 3);
  }
}

/// The value HotShape(_, i) stores in its last field.
int64_t LastField(uint64_t i) {
  const auto n = static_cast<int64_t>(i);
  return i % 4 == 2 ? n + 1 : i % 4 == 3 ? n + 3 : n;
}

class NullCollector final : public OutputCollector {
 public:
  void Emit(Tuple) override {}
  void EmitDirect(const std::string&, int, Tuple) override {}
};

/// Sums each tuple's last field through the default ExecuteBatch, which
/// moves every tuple out of the executor's batch into Execute.
class SumBolt final : public Bolt {
 public:
  void Execute(Tuple tuple, OutputCollector&) override {
    sum += tuple.Int(tuple.num_fields() - 1);
    ++count;
  }
  int64_t sum = 0;
  uint64_t count = 0;
};

// Producer (this thread) -> RingQueue -> relay thread -> RingQueue ->
// sink thread, which fills one reused TupleBatch and hands it to a bolt.
// Tuples are built on one thread and destroyed on another, as on every
// topology link, so a per-thread allocation cache cannot hide a heap block
// per tuple. A warm-up round sizes every vector and the batch; the second
// round must then make no heap allocation on any thread.
TEST(TupleHopAllocTest, CoLocatedHopAllocatesNothing) {
  auto record = std::make_shared<Record>();
  record->id = 42;
  record->tokens = std::vector<TokenId>{1, 2, 3};
  const std::shared_ptr<const Record> shared = record;

  RingQueue<Envelope> first(4 * kBatch);
  RingQueue<Envelope> second(4 * kBatch);
  std::atomic<uint64_t> sunk{0};
  SumBolt bolt;

  std::thread relay([&] {
    std::vector<Envelope> inbox;
    inbox.reserve(kBatch);
    while (first.PopBatch(&inbox, kBatch) > 0) second.PushBatch(&inbox);
    second.Close();
  });
  std::thread sink([&] {
    std::vector<Envelope> inbox;
    inbox.reserve(kBatch);
    TupleBatch batch;
    NullCollector out;
    while (second.PopBatch(&inbox, kBatch) > 0) {
      for (Envelope& env : inbox) batch.push_back(std::move(env.tuple));
      const size_t n = inbox.size();
      inbox.clear();
      bolt.ExecuteBatch(batch, out);
      batch.clear();
      sunk.fetch_add(n, std::memory_order_release);
    }
  });

  std::vector<Envelope> pending;
  pending.reserve(kBatch);
  uint64_t produced = 0;
  const auto produce = [&](uint64_t count) {
    for (uint64_t k = 0; k < count; ++k) {
      Envelope env;
      env.tuple = HotShape(shared, produced);
      env.source_task = 0;
      env.link_seq = ++produced;
      pending.push_back(std::move(env));
      if (pending.size() == kBatch) first.PushBatch(&pending);
    }
    if (!pending.empty()) first.PushBatch(&pending);
    while (sunk.load(std::memory_order_acquire) < produced) std::this_thread::yield();
  };

  constexpr uint64_t kWarmup = 8 * kBatch;
  constexpr uint64_t kMeasured = 20000;
  produce(kWarmup);
  g_counting.store(true);
  produce(kMeasured);
  g_counting.store(false);
  first.Close();
  relay.join();
  sink.join();

  EXPECT_EQ(g_allocations.load(), 0u) << "heap allocations during " << kMeasured
                                      << " tuple hops";
  int64_t expected = 0;
  for (uint64_t i = 0; i < kWarmup + kMeasured; ++i) expected += LastField(i);
  EXPECT_EQ(bolt.count, kWarmup + kMeasured);
  EXPECT_EQ(bolt.sum, expected);
  EXPECT_EQ(shared.use_count(), 2) << "a hop leaked a payload reference";
}

// A tuple at its four-field capacity, with both kinds of value and a null
// payload. Copies, moves and self-assignment must keep every field.
Tuple WideTuple(const std::shared_ptr<const void>& payload) {
  Tuple t = MakeTuple(int64_t{-7}, payload, std::shared_ptr<const void>(), int64_t{99});
  t.set_payload_bytes(123);
  return t;
}

void ExpectWide(const Tuple& t, const std::shared_ptr<const void>& payload) {
  ASSERT_EQ(t.num_fields(), 4u);
  EXPECT_EQ(t.Int(0), -7);
  EXPECT_EQ(t.Ptr<int>(1), payload);
  EXPECT_EQ(t.Ptr<int>(2), nullptr);
  EXPECT_EQ(t.Int(3), 99);
  EXPECT_EQ(t.payload_bytes(), 123u);
  EXPECT_EQ(t.SerializedBytes(), 16u + 4 * 8 + 123);
}

TEST(TupleHopAllocTest, WideTupleCopiesMovesAndSelfAssigns) {
  const std::shared_ptr<const void> payload = std::make_shared<int>(5);
  Tuple original = WideTuple(payload);
  ExpectWide(original, payload);

  Tuple copy(original);
  ExpectWide(copy, payload);
  ExpectWide(original, payload);
  EXPECT_EQ(payload.use_count(), 3);

  Tuple assigned = MakeTuple(int64_t{1});
  assigned = original;
  ExpectWide(assigned, payload);

  Tuple moved(std::move(copy));
  ExpectWide(moved, payload);
  EXPECT_EQ(copy.num_fields(), 0u);

  Tuple move_assigned = MakeTuple(int64_t{1}, int64_t{2}, int64_t{3}, int64_t{4});
  move_assigned = std::move(moved);
  ExpectWide(move_assigned, payload);
  EXPECT_EQ(moved.num_fields(), 0u);

  Tuple& alias = assigned;
  assigned = alias;
  ExpectWide(assigned, payload);
  assigned = std::move(alias);
  ExpectWide(assigned, payload);

  // original, assigned and move_assigned each hold the payload once.
  EXPECT_EQ(payload.use_count(), 4);
  copy = original;  // a moved-from tuple is reusable
  ExpectWide(copy, payload);
}

}  // namespace
}  // namespace dssj::stream
