// Worker half of a multi-process join cluster: hosts the tasks placed on
// its rank and exchanges tuples with the coordinator (and other workers)
// over TCP. Run one per non-zero rank of the --connect cluster, with the
// SAME join flags as the coordinator (the topology plan is derived from
// them on every rank) plus --rank=i:
//
//   CLUSTER=--connect=127.0.0.1:9101,127.0.0.1:9102
//   ./build/examples/dssj_cli corpus.txt --transport=tcp $CLUSTER &
//   ./build/examples/dssj_worker --rank=1 --transport=tcp $CLUSTER
//
// Workers never read the corpus — the source task lives on rank 0 — so no
// file argument is needed. The exit status reports the local run outcome
// (0 = clean, 1 = failed); results are printed by the coordinator.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "core/join_topology.h"
#include "join_flags.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --rank=N --transport=tcp --connect=host:port,...\n%s",
               argv0, dssj_examples::JoinFlagsUsage());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = dssj::Flags::Parse(argc, argv);
  if (!parsed.ok() || !parsed.value().positional().empty()) return Usage(argv[0]);

  dssj_examples::JoinCliConfig cfg;
  if (!dssj_examples::ParseJoinFlags(parsed.value(), &cfg)) return Usage(argv[0]);
  if (cfg.options.transport != dssj::JoinTransport::kTcp || cfg.options.rank < 1) {
    std::fprintf(stderr, "dssj_worker needs --transport=tcp and --rank >= 1\n");
    return Usage(argv[0]);
  }

  const dssj::DistributedJoinResult result = dssj::RunDistributedJoin({}, cfg.options);
  if (!result.ok) {
    std::fprintf(stderr, "worker %d failed: %s\n", cfg.options.rank,
                 result.failure_message.c_str());
    return 1;
  }
  return 0;
}
