// The benchmark's four named workloads, their shared settings, and the
// pieces every mode needs: input generation + partition planning (the
// set-up), the single-node oracle, and per-run temporary directories.
#ifndef DSSJ_PERFBENCH_WORKLOADS_H_
#define DSSJ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/join_topology.h"
#include "trace.h"
#include "workload/generator.h"

namespace dssj::perfbench {

/// Time window of 20 s of stream time (20k records at the generator's 1 ms
/// step). A count window is kept per joiner partition, so its pair set
/// would depend on the partitioning and have no single-node oracle.
inline constexpr int64_t kWindowMicros = 20'000'000;
inline constexpr size_t kCheckpointInterval = 1024;

struct WorkloadSpec {
  const char* name;
  DatasetPreset preset;
  size_t records;
  /// Open-loop source rate in records/s; 0 replays as fast as possible.
  double arrival_rate = 0.0;
  /// Loopback transport with the delta codec, bundle joiner, two ingest
  /// lanes, supervised with async checkpoints into a store directory.
  bool cluster = false;
  /// 128 KiB index budget per joiner spilling at half of it, supervised
  /// with async checkpoints into a store directory.
  bool spill = false;
};

/// Null when `name` names no workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Options the workload runs RunDistributedJoin with, minus the length
/// partition (planned at set-up) and store_dir (fresh per run).
DistributedJoinOptions WorkloadJoinOptions(const WorkloadSpec& spec);

/// True when runs of this workload need a store directory.
inline bool NeedsStoreDir(const WorkloadSpec& spec) { return spec.cluster || spec.spill; }

/// The set-up a user pays before the join starts: generating the stream
/// and planning the length partition over it.
struct Setup {
  std::vector<RecordPtr> stream;
  DistributedJoinOptions options;
  double generate_s = 0.0;
  double plan_s = 0.0;
};

/// Generates `records` records (0 = the workload's own size) from `seed`
/// and plans the partition. Spans "workload.generate" and
/// "core.partition.plan" go to `tracer` when it is non-null.
Setup Prepare(const WorkloadSpec& spec, uint64_t seed, size_t records, Tracer* tracer);

/// The oracle's joiner: one record joiner over the workload's time
/// window, no memory budget.
std::unique_ptr<LocalJoiner> MakeOracleJoiner(const DistributedJoinOptions& options);

/// User + system CPU of the whole process (all threads) so far.
double ProcessCpuSeconds();

/// Peak resident set of the process so far, in MiB.
double PeakRssMb();

/// A directory made with mkdtemp under `root` and removed, with
/// everything in it, when this object is destroyed.
class TempDir {
 public:
  TempDir(const std::string& root, const std::string& prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace dssj::perfbench

#endif  // DSSJ_PERFBENCH_WORKLOADS_H_
