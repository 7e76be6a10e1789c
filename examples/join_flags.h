// Flag parsing shared by dssj_cli (coordinator / single process) and
// dssj_worker (rank > 0 of a TCP cluster). Both binaries must build the
// identical DistributedJoinOptions from the identical flags — the topology
// plan is derived from the options on every rank — so the translation lives
// in one place.
#ifndef DSSJ_EXAMPLES_JOIN_FLAGS_H_
#define DSSJ_EXAMPLES_JOIN_FLAGS_H_

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "core/join_topology.h"

namespace dssj_examples {

struct JoinCliConfig {
  std::string corpus_path;  ///< first positional argument
  std::string function = "jaccard";
  std::string strategy = "length";
  std::string local = "record";
  int64_t qgram = 0;
  int64_t max_pairs = 20;
  dssj::DistributedJoinOptions options;
};

/// Flag lines shared by both binaries' usage text.
inline const char* JoinFlagsUsage() {
  return "          [--function=jaccard|cosine|dice] [--threshold=permille]\n"
         "          [--joiners=N] [--strategy=length|prefix|broadcast]\n"
         "          [--local=record|bundle] [--window=N] [--qgram=Q]\n"
         "          [--batch_size=N] [--ingest_lanes=N]\n"
         "          [--transport=inproc|loopback|tcp] [--workers=N]\n"
         "          [--wire_codec=raw|delta]\n"
         "          [--connect=host:port,host:port,...] [--listen=host:port]\n"
         "          [--checkpoint_interval=N] [--max_restarts=N]\n"
         "          [--fault_script='kill:joiner:0@500; migrate:joiner:1->2@800; ...']\n"
         "          [--elastic] [--migrate_threshold=F] [--elastic_workers=N]\n"
         "          [--elastic_interval_ms=N]\n"
         "          [--shed_policy=none|probe|oldest|bundle] [--shed_watermark=F]\n"
         "          [--max_index_bytes=N] [--stall_timeout_ms=N] [--arrival_rate=R]\n"
         "          [--store_dir=PATH] [--checkpoint_mode=sync|async]\n"
         "          [--delta_base_interval=N] [--spill_watermark=F]\n";
}

/// Parses everything both binaries share into `cfg`. Prints the problem to
/// stderr and returns false on a usage error — including a malformed flag
/// value and a configuration the topology does not support, which must
/// never reach a CHECK. Corpus loading and
/// length-partition planning stay with the caller: the length partition is
/// only consumed by dispatcher tasks, which live on rank 0, so workers never
/// need the corpus.
inline bool ParseJoinFlags(const dssj::Flags& flags, JoinCliConfig* cfg) {
  dssj::DistributedJoinOptions& options = cfg->options;
  if (!flags.positional().empty()) cfg->corpus_path = flags.positional()[0];

  cfg->function = flags.GetString("function", "jaccard");
  const int64_t threshold = flags.GetInt("threshold", 800);
  const int joiners = static_cast<int>(flags.GetInt("joiners", 4));
  cfg->strategy = flags.GetString("strategy", "length");
  cfg->local = flags.GetString("local", "record");
  const int64_t window = flags.GetInt("window", 0);
  cfg->qgram = flags.GetInt("qgram", 0);
  cfg->max_pairs = flags.GetInt("max-pairs", 20);
  const int64_t batch_size = flags.GetInt("batch_size", 32);
  if (batch_size < 1) {
    std::fprintf(stderr, "--batch_size must be >= 1\n");
    return false;
  }
  const int64_t ingest_lanes = flags.GetInt("ingest_lanes", 1);
  if (ingest_lanes < 1) {
    std::fprintf(stderr, "--ingest_lanes must be >= 1\n");
    return false;
  }
  if (ingest_lanes > 1 && cfg->strategy == "broadcast") {
    std::fprintf(stderr, "--ingest_lanes needs a stateless strategy (length|prefix)\n");
    return false;
  }

  const std::string transport = flags.GetString("transport", "inproc");
  const int64_t workers = flags.GetInt("workers", 0);
  const std::string connect = flags.GetString("connect", "");
  const std::string listen = flags.GetString("listen", "");
  const int64_t rank = flags.GetInt("rank", 0);
  if (transport == "inproc") {
    options.transport = dssj::JoinTransport::kInproc;
  } else if (transport == "loopback") {
    options.transport = dssj::JoinTransport::kLoopback;
  } else if (transport == "tcp") {
    options.transport = dssj::JoinTransport::kTcp;
    if (connect.empty()) {
      std::fprintf(stderr, "--transport=tcp needs --connect=host:port,host:port,...\n");
      return false;
    }
  } else {
    std::fprintf(stderr, "unknown transport '%s'\n", transport.c_str());
    return false;
  }
  if (workers < 0 || rank < 0) {
    std::fprintf(stderr, "--workers and --rank must be >= 0\n");
    return false;
  }
  const std::string wire_codec = flags.GetString("wire_codec", "delta");
  if (!dssj::net::ParseWireCodec(wire_codec, &options.wire_codec)) {
    std::fprintf(stderr, "--wire_codec expects raw|delta, got '%s'\n", wire_codec.c_str());
    return false;
  }
  options.num_workers = static_cast<int>(workers);
  options.cluster = connect;
  options.listen = listen;
  options.rank = static_cast<int>(rank);

  const int64_t checkpoint_interval = flags.GetInt("checkpoint_interval", 0);
  const int64_t max_restarts = flags.GetInt("max_restarts", 3);
  const std::string fault_script = flags.GetString("fault_script", "");
  if (checkpoint_interval < 0 || max_restarts < 0) {
    std::fprintf(stderr, "--checkpoint_interval and --max_restarts must be >= 0\n");
    return false;
  }
  const bool elastic = flags.GetBool("elastic", false);
  const double migrate_threshold = flags.GetDouble("migrate_threshold", 0.5);
  const int64_t elastic_workers = flags.GetInt("elastic_workers", 0);
  const int64_t elastic_interval_ms = flags.GetInt("elastic_interval_ms", 20);
  if (migrate_threshold < 0.0) {
    std::fprintf(stderr, "--migrate_threshold must be >= 0\n");
    return false;
  }
  if (elastic_workers < 0 || elastic_interval_ms < 1) {
    std::fprintf(stderr, "--elastic_workers must be >= 0 and --elastic_interval_ms >= 1\n");
    return false;
  }
  const std::string shed_policy_name = flags.GetString("shed_policy", "none");
  const double shed_watermark = flags.GetDouble("shed_watermark", 0.75);
  const int64_t max_index_bytes = flags.GetInt("max_index_bytes", 0);
  const int64_t stall_timeout_ms = flags.GetInt("stall_timeout_ms", 0);
  const double arrival_rate = flags.GetDouble("arrival_rate", 0.0);
  dssj::stream::ShedPolicy shed_policy = dssj::stream::ShedPolicy::kNone;
  if (!dssj::stream::ParseShedPolicy(shed_policy_name, &shed_policy)) {
    std::fprintf(stderr, "unknown shed policy '%s'\n", shed_policy_name.c_str());
    return false;
  }
  if (shed_watermark <= 0.0 || shed_watermark > 1.0) {
    std::fprintf(stderr, "--shed_watermark must be in (0, 1]\n");
    return false;
  }
  if (max_index_bytes < 0 || stall_timeout_ms < 0 || arrival_rate < 0.0) {
    std::fprintf(stderr,
                 "--max_index_bytes, --stall_timeout_ms and --arrival_rate must be >= 0\n");
    return false;
  }
  const std::string store_dir = flags.GetString("store_dir", "");
  const std::string checkpoint_mode = flags.GetString("checkpoint_mode", "async");
  const int64_t delta_base_interval = flags.GetInt("delta_base_interval", 8);
  const double spill_watermark = flags.GetDouble("spill_watermark", 0.0);
  if (checkpoint_mode == "sync") {
    options.checkpoint_mode = dssj::store::CheckpointMode::kSync;
  } else if (checkpoint_mode == "async") {
    options.checkpoint_mode = dssj::store::CheckpointMode::kAsync;
  } else {
    std::fprintf(stderr, "unknown checkpoint mode '%s' (sync|async)\n", checkpoint_mode.c_str());
    return false;
  }
  if (delta_base_interval < 0) {
    std::fprintf(stderr, "--delta_base_interval must be >= 0\n");
    return false;
  }
  if (spill_watermark < 0.0 || spill_watermark > 1.0) {
    std::fprintf(stderr, "--spill_watermark must be in [0, 1]\n");
    return false;
  }
  if (!store_dir.empty() && checkpoint_interval <= 0) {
    std::fprintf(stderr, "--store_dir needs --checkpoint_interval > 0\n");
    return false;
  }
  if (spill_watermark > 0.0 && (store_dir.empty() || max_index_bytes <= 0)) {
    std::fprintf(stderr, "--spill_watermark needs --store_dir and --max_index_bytes\n");
    return false;
  }
  for (const std::string& error : flags.ValueErrors()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
    return false;
  }

  dssj::SimilarityFunction fn;
  if (cfg->function == "jaccard") {
    fn = dssj::SimilarityFunction::kJaccard;
  } else if (cfg->function == "cosine") {
    fn = dssj::SimilarityFunction::kCosine;
  } else if (cfg->function == "dice") {
    fn = dssj::SimilarityFunction::kDice;
  } else {
    std::fprintf(stderr, "unknown similarity function '%s'\n", cfg->function.c_str());
    return false;
  }

  options.sim = dssj::SimilaritySpec(fn, threshold);
  options.num_joiners = joiners;
  options.collect_results = true;
  options.batch_size = static_cast<size_t>(batch_size);
  options.ingest_lanes = static_cast<int>(ingest_lanes);
  options.store_dir = store_dir;
  options.delta_base_interval = static_cast<uint32_t>(delta_base_interval);
  options.spill_watermark = spill_watermark;
  // store_dir requires checkpoint_interval > 0 (validated above), so the
  // supervise branch below always runs for store-enabled invocations.
  if (!fault_script.empty() || checkpoint_interval > 0) {
    // Validate here so a typo'd script is a usage error, not an abort.
    auto script = dssj::stream::FaultScript::Parse(fault_script);
    if (!script.ok()) {
      std::fprintf(stderr, "bad --fault_script: %s\n", script.status().message().c_str());
      return false;
    }
    options.supervise = true;
    options.fault_script = fault_script;
    options.supervision.checkpoint_interval = static_cast<uint64_t>(checkpoint_interval);
    options.supervision.max_restarts = static_cast<int>(max_restarts);
  }
  options.elastic = elastic;
  options.migrate_threshold = migrate_threshold;
  options.elastic_initial_workers = static_cast<int>(elastic_workers);
  options.elastic_interval_micros = elastic_interval_ms * 1000;
  options.shed_policy = shed_policy;
  options.shed_watermark = shed_watermark;
  options.max_index_bytes = static_cast<size_t>(max_index_bytes);
  options.stall_timeout_micros = stall_timeout_ms * 1000;
  options.arrival_rate_per_sec = arrival_rate;
  if (window > 0) options.window = dssj::WindowSpec::ByCount(static_cast<size_t>(window));

  if (cfg->strategy == "length") {
    options.strategy = dssj::DistributionStrategy::kLengthBased;
    // length_partition is planned by the caller from the corpus sample.
  } else if (cfg->strategy == "prefix") {
    options.strategy = dssj::DistributionStrategy::kPrefixBased;
  } else if (cfg->strategy == "broadcast") {
    options.strategy = dssj::DistributionStrategy::kBroadcast;
  } else {
    std::fprintf(stderr, "unknown strategy '%s'\n", cfg->strategy.c_str());
    return false;
  }
  if (cfg->local == "bundle") {
    if (options.strategy == dssj::DistributionStrategy::kPrefixBased) {
      std::fprintf(stderr, "--local=bundle does not support --strategy=prefix\n");
      return false;
    }
    options.local = dssj::LocalAlgorithm::kBundle;
  } else if (cfg->local != "record") {
    std::fprintf(stderr, "unknown local algorithm '%s'\n", cfg->local.c_str());
    return false;
  }
  return true;
}

}  // namespace dssj_examples

#endif  // DSSJ_EXAMPLES_JOIN_FLAGS_H_
