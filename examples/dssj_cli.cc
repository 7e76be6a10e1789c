// Command-line near-duplicate finder over a text file (one document per
// line) — the tool a downstream user reaches for first.
//
//   ./build/examples/dssj_cli <file> [--function=jaccard|cosine|dice]
//       [--threshold=800] [--joiners=4]
//       [--strategy=length|prefix|broadcast] [--local=record|bundle]
//       [--window=N] [--qgram=Q] [--max-pairs=20] [--batch_size=32]
//       [--ingest_lanes=N]
//       [--transport=inproc|loopback|tcp] [--workers=N]
//       [--connect=host:port,...] [--listen=host:port]
//       [--checkpoint_interval=N] [--max_restarts=N] [--fault_script=SCRIPT]
//       [--shed_policy=none|probe|oldest|bundle] [--shed_watermark=0.75]
//       [--max_index_bytes=N] [--stall_timeout_ms=N] [--arrival_rate=R]
//
// Fault tolerance: --fault_script installs a deterministic fault schedule
// (e.g. "kill:joiner:0@500; drop:dispatcher:0->joiner:1@100") and turns on
// supervised recovery; --checkpoint_interval / --max_restarts tune it. The
// result set is identical to the failure-free run as long as no task
// exceeds --max_restarts.
//
// Overload control (docs/INTERNALS.md §8): --shed_policy drops probe sides
// under queue pressure (stores always land; every shed is counted),
// --max_index_bytes bounds each joiner's memory via early eviction,
// --stall_timeout_ms arms a watchdog that fails a non-progressing run with
// a per-task dump, --arrival_rate paces the source in records/second.
//
// Multi-process execution (docs/INTERNALS.md §9): --transport=tcp makes
// this binary rank 0 (coordinator) of a cluster whose rank-ordered
// endpoints are --connect=host:port,host:port,...; start one dssj_worker
// --rank=i per remaining endpoint with the same flags. --transport=loopback
// stays single-process but wire-encodes every cross-worker tuple
// (serialization cost measurement). --workers splits tasks across N
// simulated workers for inproc/loopback.
//
// Example:
//   printf 'hello world\nhello there world\nbye now\n' > /tmp/docs.txt
//   ./build/examples/dssj_cli /tmp/docs.txt --threshold=500
//
// Two-process example (coordinator + one worker on localhost):
//   CLUSTER=--connect=127.0.0.1:9101,127.0.0.1:9102
//   ./build/examples/dssj_cli /tmp/docs.txt --transport=tcp $CLUSTER &
//   ./build/examples/dssj_worker --rank=1 --transport=tcp $CLUSTER

#include <cstdio>
#include <memory>
#include <string>

#include "common/flags.h"
#include "core/join_topology.h"
#include "join_flags.h"
#include "text/corpus.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <file>\n%s          [--max-pairs=N]\n",
               argv0, dssj_examples::JoinFlagsUsage());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = dssj::Flags::Parse(argc, argv);
  if (!parsed.ok() || parsed.value().positional().size() != 1) return Usage(argv[0]);

  dssj_examples::JoinCliConfig cfg;
  if (!dssj_examples::ParseJoinFlags(parsed.value(), &cfg)) return Usage(argv[0]);
  dssj::DistributedJoinOptions& options = cfg.options;
  if (options.rank != 0) {
    std::fprintf(stderr, "dssj_cli is the coordinator; run dssj_worker for ranks > 0\n");
    return Usage(argv[0]);
  }

  std::unique_ptr<dssj::Tokenizer> tokenizer;
  if (cfg.qgram > 0) {
    tokenizer = std::make_unique<dssj::QGramTokenizer>(static_cast<int>(cfg.qgram));
  } else {
    tokenizer = std::make_unique<dssj::WordTokenizer>();
  }
  // The corpus load shards along with the ingestion front end: one reader +
  // tokenizer thread per lane, stitched back to the serial-identical result.
  auto corpus =
      dssj::LoadCorpusFromFileSharded(cfg.corpus_path, *tokenizer, options.ingest_lanes);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }

  if (options.strategy == dssj::DistributionStrategy::kLengthBased) {
    options.length_partition = dssj::PlanLengthPartition(
        corpus.value().records, options.sim, options.num_joiners,
        dssj::PartitionMethod::kLoadAwareGreedy);
  }

  const dssj::DistributedJoinResult result =
      dssj::RunDistributedJoin(corpus.value().records, options);

  std::printf("%llu documents, %s, %s/%s, %d joiners [%s] -> %llu similar pairs "
              "(%.0f rec/s wall)\n",
              static_cast<unsigned long long>(result.input_records),
              options.sim.ToString().c_str(), cfg.strategy.c_str(), cfg.local.c_str(),
              options.num_joiners, dssj::JoinTransportName(options.transport),
              static_cast<unsigned long long>(result.result_count), result.throughput_rps);
  if (options.shed_policy != dssj::stream::ShedPolicy::kNone || options.max_index_bytes > 0) {
    std::printf("overload: policy=%s shed_probes=%llu (<= %llu pairs lost), "
                "budget_evictions=%llu horizon_seq=%llu\n",
                dssj::stream::ShedPolicyName(options.shed_policy),
                static_cast<unsigned long long>(result.shed_probes),
                static_cast<unsigned long long>(result.shed_pairs_upper_bound),
                static_cast<unsigned long long>(result.budget_evictions),
                static_cast<unsigned long long>(result.eviction_horizon_seq));
  }
  if (!result.ok && options.stall_timeout_micros > 0) {
    std::fprintf(stderr, "run failed: %s\n", result.failure_message.c_str());
    return 1;
  }
  if (options.supervise) {
    std::printf("recovery: %llu restarts, %llu tuples replayed, %llu checkpoints "
                "(%llu bytes)%s\n",
                static_cast<unsigned long long>(result.restarts),
                static_cast<unsigned long long>(result.replayed_tuples),
                static_cast<unsigned long long>(result.checkpoints),
                static_cast<unsigned long long>(result.checkpoint_bytes),
                result.ok ? "" : " [FAILED]");
  }
  if (options.elastic || result.migrations > 0) {
    std::printf("elastic: %llu live migrations (%llu state bytes shipped)\n",
                static_cast<unsigned long long>(result.migrations),
                static_cast<unsigned long long>(result.migration_bytes));
  }
  if (!result.ok) {
    std::fprintf(stderr, "run failed: %s\n", result.failure_message.c_str());
    return 1;
  }
  int64_t shown = 0;
  for (const dssj::ResultPair& pair : result.pairs) {
    if (shown++ >= cfg.max_pairs) {
      std::printf("... (%llu more; raise --max-pairs)\n",
                  static_cast<unsigned long long>(result.pairs.size()) -
                      static_cast<unsigned long long>(cfg.max_pairs));
      break;
    }
    std::printf("line %llu ~ line %llu\n",
                static_cast<unsigned long long>(pair.partner_id + 1),
                static_cast<unsigned long long>(pair.probe_id + 1));
  }
  return 0;
}
