// dssj_perfbench: the benchmark's measuring binary. perfbench/run.py runs
// it once per measurement in a fresh process and aggregates the reports.
//
//   dssj_perfbench oracle  --workload W --seed S [--records N]
//   dssj_perfbench measure --workload W --seed S --tmp DIR [--records N]
//   dssj_perfbench trace   --workload W --seed S --tmp DIR --spans FILE [--records N]
//
// oracle:  the single-node pair count over the workload's input.
// measure: one set-up plus one untraced RunDistributedJoin.
// trace:   the traced run and the layer probes (see probes.h).
// Each prints one JSON object on stdout. --records overrides the
// workload's size (the self-test runs tiny inputs).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "json.h"
#include "probes.h"
#include "workloads.h"

namespace dssj::perfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: dssj_perfbench oracle|measure|trace --workload W --seed S "
               "[--tmp DIR] [--spans FILE] [--records N]\n",
               msg);
  return 2;
}

int RunOracle(const WorkloadSpec& spec, uint64_t seed, size_t records) {
  const Setup setup = Prepare(spec, seed, records, nullptr);
  std::unique_ptr<LocalJoiner> joiner = MakeOracleJoiner(setup.options);
  const int64_t start = SteadyNanos();
  const size_t pairs = SingleNodeJoin(setup.stream, *joiner).size();
  const double seconds = static_cast<double>(SteadyNanos() - start) * 1e-9;
  std::printf("%s\n", JsonObject()
                          .Int("records", setup.stream.size())
                          .Int("pairs", pairs)
                          .Num("oracle_s", seconds)
                          .ToString()
                          .c_str());
  return 0;
}

int RunMeasure(const WorkloadSpec& spec, uint64_t seed, size_t records,
               const std::string& tmp_root) {
  Setup setup = Prepare(spec, seed, records, nullptr);
  std::unique_ptr<TempDir> store_dir;
  if (NeedsStoreDir(spec)) {
    store_dir = std::make_unique<TempDir>(tmp_root, "store_");
    setup.options.store_dir = store_dir->path();
  }
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = SteadyNanos();
  const DistributedJoinResult r = RunDistributedJoin(setup.stream, setup.options);
  const double wall = static_cast<double>(SteadyNanos() - start) * 1e-9;
  const double cpu = ProcessCpuSeconds() - cpu0;
  std::printf("%s\n", JsonObject()
                          .Int("records", setup.stream.size())
                          .Num("arrival_rate", setup.options.arrival_rate_per_sec)
                          .Num("generate_s", setup.generate_s)
                          .Num("plan_s", setup.plan_s)
                          .Num("wall_s", wall)
                          .Num("cpu_s", cpu)
                          .Bool("ok", r.ok)
                          .Str("failure", r.failure_message)
                          .Int("result_count", r.result_count)
                          .Int("latency_count", r.latency.count)
                          .Int("latency_p50_us", r.latency.p50_us)
                          .Int("latency_p99_us", r.latency.p99_us)
                          .Num("peak_rss_mb", PeakRssMb())
                          .ToString()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace dssj::perfbench

int main(int argc, char** argv) {
  using namespace dssj::perfbench;
  if (argc < 2) return Usage("missing mode");
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage(("unexpected argument " + key).c_str());
    flags[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage("flag without a value");
  const WorkloadSpec* spec = FindWorkload(flags["workload"]);
  if (spec == nullptr) return Usage(("unknown workload '" + flags["workload"] + "'").c_str());
  if (flags["seed"].empty()) return Usage("missing --seed");
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  const size_t records =
      flags["records"].empty() ? 0 : std::strtoull(flags["records"].c_str(), nullptr, 10);
  if (mode == "oracle") return RunOracle(*spec, seed, records);
  if (flags["tmp"].empty()) return Usage("missing --tmp");
  if (mode == "measure") return RunMeasure(*spec, seed, records, flags["tmp"]);
  if (mode == "trace") {
    if (flags["spans"].empty()) return Usage("missing --spans");
    return RunTrace(*spec, seed, records, flags["tmp"], flags["spans"]);
  }
  return Usage(("unknown mode " + mode).c_str());
}
