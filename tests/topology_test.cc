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

/// src (1 task, worker 0) -> mid (2 tasks, workers 0 and 1) -> sink (1 task,
/// worker 0): task ids 0, 1-2, 3.
TopologyShape ThreeStageShape(bool hosts_all_tasks) {
  TopologyShape shape;
  shape.num_workers = 2;
  shape.hosts_all_tasks = hosts_all_tasks;
  shape.components = {{"src", true, {0}, {1}}, {"mid", false, {0, 1}, {2}},
                      {"sink", false, {0}, {}}};
  return shape;
}

TEST(FaultScriptResolveTest, TurnsAddressesIntoTaskIds) {
  FaultScript script;
  script.KillAt("mid", 1, 5)
      .DropAt("src", 0, "mid", 1, 3)
      .MigrateAt("mid", 0, 1, 40)
      .KillWorkerAt(1, 20);
  const StatusOr<ResolvedFaultScript> resolved =
      ResolveFaultScript(script, ThreeStageShape(true));
  ASSERT_TRUE(resolved.ok()) << resolved.status().message();
  const ResolvedFaultScript& r = resolved.value();
  ASSERT_EQ(r.kills.size(), 1u);
  EXPECT_EQ(r.kills[0].task, 2);
  EXPECT_EQ(r.kills[0].at_count, 5u);
  ASSERT_EQ(r.links.size(), 1u);
  EXPECT_EQ(r.links[0].src_task, 0);
  EXPECT_EQ(r.links[0].dst_task, 2);
  EXPECT_EQ(r.links[0].kind, LinkFaultKind::kDrop);
  EXPECT_EQ(r.links[0].at_seq, 3u);
  ASSERT_EQ(r.actions.size(), 2u);
  EXPECT_EQ(r.actions[0].task, -1);  // kill_worker
  EXPECT_EQ(r.actions[0].worker, 1);
  EXPECT_EQ(r.actions[1].task, 1);   // migrate mid:0
  EXPECT_EQ(r.actions[1].worker, 1);
}

TEST(FaultScriptResolveTest, RejectsStatementsThatDoNotFitTheShape) {
  const struct {
    std::string script;
    bool hosts_all_tasks;
    std::string expected;
  } cases[] = {
      {"kill:nosuch:0@5", true, "kill nosuch:0: unknown component 'nosuch'"},
      {"kill:mid:2@5", true, "task index 2 out of range for mid (parallelism 2)"},
      {"delay:mid:0->src:0@3x10", true, "mid->src is not an edge"},
      {"dup:src:0->sink:0@3", true, "src->sink is not an edge"},
      {"drop:src:0->mid:1@3", false, "link src:0->mid:1: drop/dup must stay within one"},
      {"kill_worker:2@5", true, "rank 2 outside [0, 2)"},
      {"kill_worker:1@5", false, "need a single-process topology"},
      {"migrate:src:0->1@5", true, "cannot migrate spout component src"},
      {"migrate:mid:0->2@5", true, "target 2 outside [0, 2)"},
      {"migrate:mid:0->1@5", false, "need a single-process topology"},
  };
  for (const auto& c : cases) {
    const StatusOr<FaultScript> script = FaultScript::Parse(c.script);
    ASSERT_TRUE(script.ok()) << c.script;
    const StatusOr<ResolvedFaultScript> resolved =
        ResolveFaultScript(script.value(), ThreeStageShape(c.hosts_all_tasks));
    ASSERT_FALSE(resolved.ok()) << c.script;
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(resolved.status().message().find(c.expected), std::string::npos)
        << resolved.status().message();
  }
  // Faults that stay within one worker are fine under a real transport.
  const StatusOr<FaultScript> local = FaultScript::Parse("drop:src:0->mid:0@3");
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(ResolveFaultScript(local.value(), ThreeStageShape(false)).ok());
}

TEST(TopologyDeathTest, BuildAbortsOnAFaultScriptThatDoesNotFit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TopologyBuilder b;
  b.SetSpout("src", [] { return std::make_unique<CountingSpout>(1); });
  auto seen = std::make_shared<Seen>();
  b.SetBolt("sink", [seen] { return std::make_unique<CollectBolt>(seen); })
      .ShuffleGrouping("src");
  b.SetFaultScript(FaultScript().KillAt("sink", 3, 1));
  EXPECT_DEATH(b.Build(), "task index 3 out of range for sink");
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
