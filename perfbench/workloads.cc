#include "workloads.h"

#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>

#include "common/logging.h"

namespace dssj::perfbench {
namespace {

// Sizes were chosen so one run of RunDistributedJoin takes about 1.5-2.5 s
// on a 4-core host: long enough that thread start-up and end-of-stream
// drain do not dominate, short enough for several fresh-process runs per
// measurement window.
const WorkloadSpec kWorkloads[] = {
    {"tweet_inproc", DatasetPreset::kTweet, 600'000},
    {"tweet_paced", DatasetPreset::kTweet, 400'000, /*arrival_rate=*/200'000.0},
    {"dblp_cluster", DatasetPreset::kDblp, 200'000, 0.0, /*cluster=*/true},
    {"tweet_spill", DatasetPreset::kTweet, 20'000, 0.0, false, /*spill=*/true},
};

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(SteadyNanos() - start_ns) * 1e-9;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

DistributedJoinOptions WorkloadJoinOptions(const WorkloadSpec& spec) {
  DistributedJoinOptions o;
  o.sim = SimilaritySpec(SimilarityFunction::kJaccard, 800);
  o.window = WindowSpec::ByTime(kWindowMicros);
  o.strategy = DistributionStrategy::kLengthBased;
  o.local = LocalAlgorithm::kRecord;
  o.num_joiners = 4;
  o.batch_size = 32;
  o.collect_results = false;
  o.arrival_rate_per_sec = spec.arrival_rate;
  if (spec.cluster) {
    o.transport = JoinTransport::kLoopback;
    o.wire_codec = net::WireCodec::kDelta;
    o.local = LocalAlgorithm::kBundle;
    o.ingest_lanes = 2;
  }
  if (spec.spill) {
    o.max_index_bytes = 131072;
    o.spill_watermark = 0.5;
  }
  if (NeedsStoreDir(spec)) {
    o.supervise = true;
    o.supervision.checkpoint_interval = kCheckpointInterval;
    o.checkpoint_mode = store::CheckpointMode::kAsync;
  }
  return o;
}

Setup Prepare(const WorkloadSpec& spec, uint64_t seed, size_t records, Tracer* tracer) {
  Setup setup;
  setup.options = WorkloadJoinOptions(spec);
  {
    ScopedSpan span(tracer, "workload.generate");
    const int64_t start = SteadyNanos();
    WorkloadOptions wo = PresetOptions(spec.preset);
    wo.seed = seed;
    setup.stream = WorkloadGenerator(wo).Generate(records > 0 ? records : spec.records);
    setup.generate_s = SecondsSince(start);
  }
  {
    ScopedSpan span(tracer, "core.partition.plan");
    const int64_t start = SteadyNanos();
    setup.options.length_partition =
        PlanLengthPartition(setup.stream, setup.options.sim, setup.options.num_joiners,
                            PartitionMethod::kLoadAwareGreedy);
    setup.plan_s = SecondsSince(start);
  }
  return setup;
}

std::unique_ptr<LocalJoiner> MakeOracleJoiner(const DistributedJoinOptions& options) {
  DistributedJoinOptions o;
  o.sim = options.sim;
  o.window = options.window;
  o.local = LocalAlgorithm::kRecord;
  o.num_joiners = 1;
  return MakeLocalJoiner(o, 0);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

TempDir::TempDir(const std::string& root, const std::string& prefix) {
  std::string templ = root + "/" + prefix + "XXXXXX";
  CHECK(mkdtemp(templ.data()) != nullptr) << "mkdtemp failed under " << root;
  path_ = templ;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  if (ec) LOG(ERROR) << "could not remove " << path_ << ": " << ec.message();
}

}  // namespace dssj::perfbench
