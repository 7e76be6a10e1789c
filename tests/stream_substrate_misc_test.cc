// Odds-and-ends coverage of the stream substrate not exercised by
// topology_test: spout parallelism with placement, tuple payloads, and the
// simulated serialization charge.

#include <atomic>
#include <memory>

#include <gtest/gtest.h>

#include "stream/topology.h"
#include "text/record.h"

namespace dssj::stream {
namespace {

class OneShotSpout : public Spout {
 public:
  explicit OneShotSpout(int64_t value) : value_(value) {}
  bool NextTuple(OutputCollector& out) override {
    if (done_) return false;
    done_ = true;
    out.Emit(MakeTuple(value_));
    return true;
  }

 private:
  int64_t value_;
  bool done_ = false;
};

TEST(StreamMiscTest, OpaquePayloadTravelsByPointer) {
  const RecordPtr record = MakeRecord(1, 2, {10, 20, 30});
  std::atomic<bool> same_object{false};
  struct CheckBolt : public Bolt {
    CheckBolt(const Record* expected, std::atomic<bool>* same)
        : expected_(expected), same_(same) {}
    void Execute(Tuple tuple, OutputCollector&) override {
      same_->store(tuple.Ptr<Record>(0).get() == expected_);
    }
    const Record* expected_;
    std::atomic<bool>* same_;
  };
  TopologyBuilder b;
  b.SetSpout("src", [record] {
    class PayloadSpout : public Spout {
     public:
      explicit PayloadSpout(RecordPtr r) : r_(std::move(r)) {}
      bool NextTuple(OutputCollector& out) override {
        if (done_) return false;
        done_ = true;
        Tuple t = MakeTuple(std::shared_ptr<const void>(r_));
        t.set_payload_bytes(r_->SerializedBytes());
        out.Emit(std::move(t));
        return true;
      }
      RecordPtr r_;
      bool done_ = false;
    };
    return std::make_unique<PayloadSpout>(record);
  });
  b.SetBolt("sink",
            [&record, &same_object] {
              return std::make_unique<CheckBolt>(record.get(), &same_object);
            })
      .ShuffleGrouping("src");
  b.Build()->Run();
  EXPECT_TRUE(same_object.load()) << "payload was copied, not shared";
}

TEST(StreamMiscTest, SerializationChargeLandsOnBothEndpoints) {
  struct NullBolt : public Bolt {
    void Execute(Tuple, OutputCollector&) override {}
  };
  auto run = [&](double cost) {
    TopologyBuilder b;
    b.SetNumWorkers(2);
    b.SetRemoteByteCostNanos(cost);
    b.SetSpout("src", [] { return std::make_unique<OneShotSpout>(1); }).SetPlacement({0});
    b.SetBolt("sink", [] { return std::make_unique<NullBolt>(); }, 1)
        .ShuffleGrouping("src")
        .SetPlacement({1});
    auto topo = b.Build();
    topo->Run();
    const uint64_t src_busy = topo->TasksOf("src")[0].metrics->busy_nanos.Get();
    const uint64_t sink_busy = topo->TasksOf("sink")[0].metrics->busy_nanos.Get();
    return std::pair<uint64_t, uint64_t>{src_busy, sink_busy};
  };
  const auto [src_free, sink_free] = run(0.0);
  // A huge per-byte cost must dominate both endpoints' busy time.
  const auto [src_costly, sink_costly] = run(1e6);
  EXPECT_GT(src_costly, src_free + 1000000u);
  EXPECT_GT(sink_costly, sink_free + 1000000u);
}

TEST(StreamMiscTest, SpoutParallelismWithExplicitPlacement) {
  std::atomic<int> received{0};
  struct CountBolt : public Bolt {
    explicit CountBolt(std::atomic<int>* n) : n_(n) {}
    void Execute(Tuple, OutputCollector&) override { n_->fetch_add(1); }
    std::atomic<int>* n_;
  };
  TopologyBuilder b;
  b.SetNumWorkers(3);
  b.SetSpout("src", [] { return std::make_unique<OneShotSpout>(9); }, 3)
      .SetPlacement({2, 1, 0});
  b.SetBolt("sink", [&received] { return std::make_unique<CountBolt>(&received); }, 2)
      .ShuffleGrouping("src");
  auto topo = b.Build();
  topo->Run();
  EXPECT_EQ(received.load(), 3);
  // Placement respected.
  const auto tasks = topo->TasksOf("src");
  EXPECT_EQ(tasks[0].worker, 2);
  EXPECT_EQ(tasks[1].worker, 1);
  EXPECT_EQ(tasks[2].worker, 0);
}

TEST(StreamMiscTest, MaxGaugeTracksMaximum) {
  MaxGauge gauge;
  EXPECT_EQ(gauge.Get(), 0u);
  gauge.Update(5);
  gauge.Update(3);
  EXPECT_EQ(gauge.Get(), 5u);
  gauge.Update(9);
  EXPECT_EQ(gauge.Get(), 9u);
}

}  // namespace
}  // namespace dssj::stream
