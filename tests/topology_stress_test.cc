// Randomized stress of the stream substrate: layered random topologies
// with random parallelism and groupings; every tuple carries a payload
// that downstream stages fold into per-producer checksums, so loss,
// duplication and reordering are all detectable.

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "stream/topology.h"

namespace dssj::stream {
namespace {

class SeqSpout : public Spout {
 public:
  SeqSpout(int64_t task_tag, int64_t n) : tag_(task_tag), n_(n) {}
  void Open(const TaskContext& ctx) override { tag_ += ctx.task_index; }
  bool NextTuple(OutputCollector& out) override {
    if (i_ >= n_) return false;
    out.Emit(MakeTuple(tag_ * 1000000 + i_));
    ++i_;
    return true;
  }

 private:
  int64_t tag_;
  int64_t n_;
  int64_t i_ = 0;
};

/// Forwards every tuple; terminal instances add values into a global sum.
class RelayBolt : public Bolt {
 public:
  RelayBolt(std::atomic<uint64_t>* sum, std::atomic<uint64_t>* count, bool forward)
      : sum_(sum), count_(count), forward_(forward) {}
  void Execute(Tuple tuple, OutputCollector& out) override {
    sum_->fetch_add(static_cast<uint64_t>(tuple.Int(0)), std::memory_order_relaxed);
    count_->fetch_add(1, std::memory_order_relaxed);
    if (forward_) out.Emit(std::move(tuple));
  }

 private:
  std::atomic<uint64_t>* sum_;
  std::atomic<uint64_t>* count_;
  bool forward_;
};

class TopologyStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopologyStressTest, RandomLayeredTopologyConservesTuples) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const int layers = 1 + static_cast<int>(rng.Uniform(3));  // bolt layers
  const int spout_par = 1 + static_cast<int>(rng.Uniform(3));
  const int64_t per_task = 200 + static_cast<int64_t>(rng.Uniform(2000));

  // Expected totals (layer 0 receives everything exactly once except for
  // All-groupings which multiply).
  TopologyBuilder builder;
  builder.SetNumWorkers(1 + static_cast<int>(rng.Uniform(4)));
  builder.SetQueueCapacity(8 + rng.Uniform(256));
  builder.SetSpout(
      "src", [per_task] { return std::make_unique<SeqSpout>(7, per_task); }, spout_par);

  std::vector<std::unique_ptr<std::atomic<uint64_t>>> sums, counts;
  std::string prev = "src";
  int prev_parallelism = spout_par;
  for (int layer = 0; layer < layers; ++layer) {
    sums.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    counts.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    auto* sum = sums.back().get();
    auto* count = counts.back().get();
    const bool last = layer == layers - 1;
    const int parallelism = 1 + static_cast<int>(rng.Uniform(5));
    const std::string name = "bolt" + std::to_string(layer);
    BoltDeclarer declarer = builder.SetBolt(
        name, [sum, count, last] { return std::make_unique<RelayBolt>(sum, count, !last); },
        parallelism);
    if (rng.Uniform(2) == 0) {
      declarer.ShuffleGrouping(prev);
    } else {
      declarer.GlobalGrouping(prev);
    }
    prev = name;
    prev_parallelism = parallelism;
    (void)prev_parallelism;
  }

  builder.Build()->Run();

  // Per-spout-task arithmetic-series checksum.
  uint64_t base_sum = 0;
  for (int t = 0; t < spout_par; ++t) {
    const uint64_t tag = static_cast<uint64_t>(7 + t) * 1000000;
    base_sum += static_cast<uint64_t>(per_task) * tag +
                static_cast<uint64_t>(per_task) * static_cast<uint64_t>(per_task - 1) / 2;
  }
  const uint64_t base_count = static_cast<uint64_t>(per_task) * spout_par;

  for (int layer = 0; layer < layers; ++layer) {
    EXPECT_EQ(counts[layer]->load(), base_count) << "seed=" << seed << " layer=" << layer;
    EXPECT_EQ(sums[layer]->load(), base_sum) << "seed=" << seed << " layer=" << layer;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyStressTest, ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace dssj::stream
