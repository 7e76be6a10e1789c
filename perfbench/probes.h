// The traced run: one RunDistributedJoin with result collection, checked
// pair-for-pair against the oracle, plus layer probes that replay the
// workload's own records through each layer's public functions under
// spans. Nothing here adds a flag or counter to the program.
#ifndef DSSJ_PERFBENCH_PROBES_H_
#define DSSJ_PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace dssj::perfbench {

/// Runs the traced run and every probe for `spec`, writes the spans as
/// JSON to `spans_path`, and prints one JSON object with the per-layer
/// metrics to stdout. Temporary files live under `tmp_root` and are gone
/// when this returns. Returns the process exit code.
int RunTrace(const WorkloadSpec& spec, uint64_t seed, size_t records,
             const std::string& tmp_root, const std::string& spans_path);

}  // namespace dssj::perfbench

#endif  // DSSJ_PERFBENCH_PROBES_H_
