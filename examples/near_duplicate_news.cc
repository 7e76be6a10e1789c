// On-line near-duplicate detection over a news-like stream — the paper's
// motivating application — on the full distributed topology: one source,
// one dispatcher, eight joiner partitions under length-based distribution
// with the bundle-based local algorithm and a sliding window.
//
//   ./build/examples/near_duplicate_news [num_records] [threshold_permille]

#include <cstdio>
#include <cstdlib>

#include "core/join_topology.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  const size_t num_records = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 50000;
  const int64_t threshold = argc > 2 ? std::atoll(argv[2]) : 800;
  constexpr int kJoiners = 8;

  // A tweet/news-shaped synthetic stream: Zipf vocabulary, short texts,
  // 25% of records are mutated re-posts of recent ones.
  dssj::WorkloadOptions workload = dssj::PresetOptions(dssj::DatasetPreset::kTweet);
  workload.seed = 2026;
  std::printf("generating %zu news-like records...\n", num_records);
  const auto stream = dssj::WorkloadGenerator(workload).Generate(num_records);

  dssj::DistributedJoinOptions options;
  options.sim = dssj::SimilaritySpec(dssj::SimilarityFunction::kJaccard, threshold);
  options.window = dssj::WindowSpec::ByCount(20000);
  options.strategy = dssj::DistributionStrategy::kLengthBased;
  options.local = dssj::LocalAlgorithm::kBundle;
  options.num_joiners = kJoiners;
  options.collect_results = false;  // count duplicates, don't materialize

  // Plan the load-aware length partition from the first records (in a
  // deployment: from a sample of the live stream).
  const std::vector<dssj::RecordPtr> sample(
      stream.begin(), stream.begin() + std::min<size_t>(stream.size(), 10000));
  options.length_partition = dssj::PlanLengthPartition(
      sample, options.sim, kJoiners, dssj::PartitionMethod::kLoadAwareGreedy);
  std::printf("length partition: %s\n", options.length_partition.ToString().c_str());

  const dssj::DistributedJoinResult result = dssj::RunDistributedJoin(stream, options);

  std::printf("\n=== near-duplicate detection (%s, %d joiners, bundle join) ===\n",
              options.sim.ToString().c_str(), kJoiners);
  std::printf("records            %llu\n",
              static_cast<unsigned long long>(result.input_records));
  std::printf("duplicate pairs    %llu\n",
              static_cast<unsigned long long>(result.result_count));
  std::printf("wall throughput    %.0f rec/s\n", result.throughput_rps);
  std::printf("cluster throughput %.0f rec/s (critical-path model)\n",
              result.scaled_throughput_rps);
  std::printf("replication        %.3f (stores per record)\n", result.replication_factor);
  std::printf("dispatch traffic   %.1f MB, %llu messages\n",
              static_cast<double>(result.dispatch_bytes) / 1e6,
              static_cast<unsigned long long>(result.dispatch_messages));
  std::printf("latency p50/p99    %llu / %llu us\n",
              static_cast<unsigned long long>(result.latency.p50_us),
              static_cast<unsigned long long>(result.latency.p99_us));
  std::printf("\nper-joiner partition detail:\n");
  for (int i = 0; i < kJoiners; ++i) {
    const dssj::JoinerStats& s = result.joiner_stats[i];
    std::printf(
        "  joiner %d: probes=%-7llu stores=%-7llu bundles_created=%-6llu results=%llu\n", i,
        static_cast<unsigned long long>(s.probes), static_cast<unsigned long long>(s.stores),
        static_cast<unsigned long long>(s.bundles_created),
        static_cast<unsigned long long>(s.results));
  }
  return 0;
}
