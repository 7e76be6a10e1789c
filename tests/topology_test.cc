#include "stream/topology.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dssj::stream {
namespace {

/// Emits the integers [0, n).
class CountingSpout : public Spout {
 public:
  explicit CountingSpout(int64_t n) : n_(n) {}
  bool NextTuple(OutputCollector& out) override {
    if (next_ >= n_) return false;
    out.Emit(MakeTuple(next_++));
    return true;
  }

 private:
  int64_t n_;
  int64_t next_ = 0;
};

/// Records every value it sees (thread-safe via external registry).
struct Seen {
  std::mutex mu;
  std::map<int, std::vector<int64_t>> by_task;
  void Note(int task, int64_t v) {
    std::lock_guard<std::mutex> lock(mu);
    by_task[task].push_back(v);
  }
  size_t Total() {
    std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (auto& [_, v] : by_task) n += v.size();
    return n;
  }
};

class CollectBolt : public Bolt {
 public:
  explicit CollectBolt(std::shared_ptr<Seen> seen, bool forward = false)
      : seen_(std::move(seen)), forward_(forward) {}
  void Prepare(const TaskContext& ctx) override { task_ = ctx.task_index; }
  void Execute(Tuple tuple, OutputCollector& out) override {
    seen_->Note(task_, tuple.Int(0));
    if (forward_) out.Emit(std::move(tuple));
  }

 private:
  std::shared_ptr<Seen> seen_;
  bool forward_;
  int task_ = -1;
};

TEST(TopologyTest, ShuffleGroupingDeliversEverythingOnce) {
  auto seen = std::make_shared<Seen>();
  TopologyBuilder b;
  b.SetSpout("src", [] { return std::make_unique<CountingSpout>(1000); });
  b.SetBolt("sink", [seen] { return std::make_unique<CollectBolt>(seen); }, 4)
      .ShuffleGrouping("src");
  b.Build()->Run();
  EXPECT_EQ(seen->Total(), 1000u);
  std::set<int64_t> all;
  for (auto& [task, values] : seen->by_task) {
    EXPECT_GT(values.size(), 100u) << "shuffle starved task " << task;
    all.insert(values.begin(), values.end());
  }
  EXPECT_EQ(all.size(), 1000u);
}

TEST(TopologyTest, GlobalGroupingGoesToTaskZero) {
  auto seen = std::make_shared<Seen>();
  TopologyBuilder b;
  b.SetSpout("src", [] { return std::make_unique<CountingSpout>(50); });
  b.SetBolt("sink", [seen] { return std::make_unique<CollectBolt>(seen); }, 3)
      .GlobalGrouping("src");
  b.Build()->Run();
  EXPECT_EQ(seen->Total(), 50u);
  EXPECT_EQ(seen->by_task.count(0), 1u);
  EXPECT_EQ(seen->by_task.size(), 1u);
}

/// Direct emission: producer bolt addresses consumer tasks explicitly.
class DirectEmitBolt : public Bolt {
 public:
  void Execute(Tuple tuple, OutputCollector& out) override {
    const int target = static_cast<int>(tuple.Int(0) % 3);
    out.EmitDirect("sink", target, std::move(tuple));
  }
};

TEST(TopologyTest, DirectGroupingDeliversToAddressedTask) {
  auto seen = std::make_shared<Seen>();
  TopologyBuilder b;
  b.SetSpout("src", [] { return std::make_unique<CountingSpout>(99); });
  b.SetBolt("router", [] { return std::make_unique<DirectEmitBolt>(); })
      .ShuffleGrouping("src");
  b.SetBolt("sink", [seen] { return std::make_unique<CollectBolt>(seen); }, 3)
      .DirectGrouping("router");
  b.Build()->Run();
  EXPECT_EQ(seen->Total(), 99u);
  for (auto& [task, values] : seen->by_task) {
    EXPECT_EQ(values.size(), 33u);
    for (int64_t v : values) EXPECT_EQ(static_cast<int>(v % 3), task);
  }
}

TEST(TopologyTest, ChainPropagatesEosThroughMultipleStages) {
  auto seen = std::make_shared<Seen>();
  TopologyBuilder b;
  b.SetSpout("src", [] { return std::make_unique<CountingSpout>(500); }, 2);
  b.SetBolt("mid", [seen] { return std::make_unique<CollectBolt>(seen, /*forward=*/true); }, 3)
      .ShuffleGrouping("src");
  auto seen2 = std::make_shared<Seen>();
  b.SetBolt("sink", [seen2] { return std::make_unique<CollectBolt>(seen2); }, 2)
      .ShuffleGrouping("mid");
  b.Build()->Run();
  EXPECT_EQ(seen->Total(), 1000u);  // two spout tasks × 500
  EXPECT_EQ(seen2->Total(), 1000u);
}

TEST(TopologyTest, FinishIsCalledAfterAllUpstreamEos) {
  struct FinishProbe : public Bolt {
    explicit FinishProbe(std::atomic<int>* executed, std::atomic<int>* finished)
        : executed_(executed), finished_(finished) {}
    void Execute(Tuple, OutputCollector&) override {
      EXPECT_EQ(finished_->load(), 0) << "tuple after Finish";
      executed_->fetch_add(1);
    }
    void Finish(OutputCollector&) override { finished_->fetch_add(1); }
    std::atomic<int>* executed_;
    std::atomic<int>* finished_;
  };
  std::atomic<int> executed{0}, finished{0};
  TopologyBuilder b;
  b.SetSpout("src", [] { return std::make_unique<CountingSpout>(100); }, 3);
  b.SetBolt("sink", [&] { return std::make_unique<FinishProbe>(&executed, &finished); }, 1)
      .ShuffleGrouping("src");
  b.Build()->Run();
  EXPECT_EQ(executed.load(), 300);
  EXPECT_EQ(finished.load(), 1);
}

TEST(TopologyTest, MetricsCountMessagesAndRemoteBytes) {
  auto seen = std::make_shared<Seen>();
  TopologyBuilder b;
  b.SetNumWorkers(2);
  b.SetSpout("src", [] { return std::make_unique<CountingSpout>(100); })
      .SetPlacement({0});
  b.SetBolt("sink", [seen] { return std::make_unique<CollectBolt>(seen); }, 2)
      .ShuffleGrouping("src")
      .SetPlacement({0, 1});
  auto topo = b.Build();
  topo->Run();
  const CounterTotals src = Aggregate(topo->TasksOf("src"));
  EXPECT_EQ(src.emitted, 100u);
  // Half the shuffle goes to the co-located task, half crosses workers.
  EXPECT_EQ(src.remote_messages, 50u);
  EXPECT_GT(src.remote_bytes, 0u);
  EXPECT_GT(src.total_bytes, src.remote_bytes);
  const CounterTotals sink = Aggregate(topo->TasksOf("sink"));
  EXPECT_EQ(sink.executed, 100u);
  EXPECT_EQ(sink.emitted, 0u);
}

TEST(TopologyTest, QueueHighwaterTracksBackpressure) {
  // A slow sink behind a fast spout must show a deep (capacity-bound)
  // inbound queue.
  struct SlowBolt : public Bolt {
    void Execute(Tuple, OutputCollector&) override {
      int sink = 0;
      for (int i = 0; i < 20000; ++i) sink += i;
      benchmark_blackhole_ = sink;
    }
    volatile int benchmark_blackhole_ = 0;
  };
  TopologyBuilder b;
  b.SetQueueCapacity(16);
  b.SetSpout("src", [] { return std::make_unique<CountingSpout>(400); });
  b.SetBolt("sink", [] { return std::make_unique<SlowBolt>(); }).ShuffleGrouping("src");
  auto topo = b.Build();
  topo->Run();
  const auto tasks = topo->TasksOf("sink");
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_GE(tasks[0].metrics->queue_highwater.Get(), 8u);
  EXPECT_LE(tasks[0].metrics->queue_highwater.Get(), 16u);
}

TEST(TopologyTest, ElapsedSecondsIsPositiveAfterRun) {
  TopologyBuilder b;
  auto seen = std::make_shared<Seen>();
  b.SetSpout("src", [] { return std::make_unique<CountingSpout>(10); });
  b.SetBolt("sink", [seen] { return std::make_unique<CollectBolt>(seen); })
      .ShuffleGrouping("src");
  auto topo = b.Build();
  EXPECT_EQ(topo->ElapsedSeconds(), 0.0);
  topo->Run();
  EXPECT_GT(topo->ElapsedSeconds(), 0.0);
}

TEST(TopologyDeathTest, RejectsUnknownSourceAndCycles) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    TopologyBuilder b;
    b.SetSpout("src", [] { return std::make_unique<CountingSpout>(1); });
    auto seen = std::make_shared<Seen>();
    b.SetBolt("sink", [seen] { return std::make_unique<CollectBolt>(seen); })
        .ShuffleGrouping("nope");
    EXPECT_DEATH(b.Build(), "unknown component");
  }
  {
    TopologyBuilder b;
    auto seen = std::make_shared<Seen>();
    b.SetSpout("src", [] { return std::make_unique<CountingSpout>(1); });
    b.SetBolt("a", [seen] { return std::make_unique<CollectBolt>(seen, true); })
        .ShuffleGrouping("src")
        .ShuffleGrouping("b");
    b.SetBolt("b", [seen] { return std::make_unique<CollectBolt>(seen, true); })
        .ShuffleGrouping("a");
    EXPECT_DEATH(b.Build(), "cycle");
  }
  {
    TopologyBuilder b;
    b.SetSpout("src", [] { return std::make_unique<CountingSpout>(1); });
    auto seen = std::make_shared<Seen>();
    b.SetBolt("orphan", [seen] { return std::make_unique<CollectBolt>(seen); });
    EXPECT_DEATH(b.Build(), "no input");
  }
}

TEST(TupleTest, FieldAccessAndBytes) {
  auto payload = std::make_shared<const int64_t>(7);
  Tuple t = MakeTuple(int64_t{42}, std::shared_ptr<const void>(payload), int64_t{-1});
  EXPECT_EQ(t.num_fields(), 3u);
  EXPECT_EQ(t.Int(0), 42);
  EXPECT_EQ(t.Ptr<int64_t>(1), payload);
  EXPECT_EQ(t.Int(2), -1);
  // 16 header + 8 per field.
  EXPECT_EQ(t.SerializedBytes(), 16u + 3 * 8);
  t.set_payload_bytes(100);
  EXPECT_EQ(t.SerializedBytes(), 16u + 3 * 8 + 100);
}

}  // namespace
}  // namespace dssj::stream
