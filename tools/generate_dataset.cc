// Generates a synthetic record stream to a binary file (reloadable with
// LoadRecordsBinary), so experiments can be repeated on identical data and
// the generator cost is paid once.
//
//   ./build/tools/generate_dataset --out=/tmp/tweets.bin
//       [--preset=aol|tweet|enron|dblp] [--records=100000] [--seed=42]
//       [--dup-fraction=0.25] [--drift-length-mean=0] [--stats]

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "text/corpus.h"
#include "workload/drift.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  auto parsed = dssj::Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const dssj::Flags& flags = parsed.value();
  const std::string out = flags.GetString("out", "");
  const std::string preset_name = flags.GetString("preset", "tweet");
  const size_t records = static_cast<size_t>(flags.GetInt("records", 100000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const double dup_fraction = flags.GetDouble("dup-fraction", -1.0);
  const double drift_mean = flags.GetDouble("drift-length-mean", 0.0);
  const bool print_stats = flags.GetBool("stats", true);
  for (const std::string& error : flags.ValueErrors()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
    return 2;
  }
  if (out.empty()) {
    std::fprintf(stderr, "usage: generate_dataset --out=FILE [--preset=...] "
                         "[--records=N] [--seed=S] [--dup-fraction=F] "
                         "[--drift-length-mean=M]\n");
    return 2;
  }

  dssj::DatasetPreset preset;
  if (preset_name == "aol") {
    preset = dssj::DatasetPreset::kAol;
  } else if (preset_name == "tweet") {
    preset = dssj::DatasetPreset::kTweet;
  } else if (preset_name == "enron") {
    preset = dssj::DatasetPreset::kEnron;
  } else if (preset_name == "dblp") {
    preset = dssj::DatasetPreset::kDblp;
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset_name.c_str());
    return 2;
  }

  dssj::WorkloadOptions options = dssj::PresetOptions(preset);
  options.seed = seed;
  if (dup_fraction >= 0.0) options.duplicate_fraction = dup_fraction;

  std::vector<dssj::RecordPtr> stream;
  if (drift_mean > 0.0) {
    dssj::DriftOptions drift;
    drift.base = options;
    drift.end_length_mean = drift_mean;
    drift.drift_records = records;
    stream = dssj::DriftingGenerator(drift).Generate(records);
  } else {
    stream = dssj::WorkloadGenerator(options).Generate(records);
  }

  const dssj::Status status = dssj::SaveRecordsBinary(out, stream);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n", stream.size(), out.c_str());
  if (print_stats) {
    const dssj::CorpusStats stats = dssj::ComputeCorpusStats(stream);
    std::printf("vocab=%llu avg|r|=%.1f min|r|=%llu max|r|=%llu top1%%mass=%.3f\n",
                static_cast<unsigned long long>(stats.vocabulary_size), stats.avg_length,
                static_cast<unsigned long long>(stats.min_length),
                static_cast<unsigned long long>(stats.max_length),
                stats.top1pct_token_mass);
  }
  return 0;
}
