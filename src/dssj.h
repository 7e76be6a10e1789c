#ifndef DSSJ_DSSJ_H_
#define DSSJ_DSSJ_H_

/// \file
/// Umbrella header for the dssj library — distributed streaming set
/// similarity join (reproduction of "Distributed Streaming Set Similarity
/// Join", ICDE 2020; see DESIGN.md).
///
/// Layering (each layer only depends on the ones above it):
///   common/    Status, logging, RNG, stats, flags
///   text/      records, tokenizers, dictionaries, corpus I/O
///   stream/    the in-process Storm-like dataflow substrate
///   workload/  synthetic stream generators (incl. drift)
///   core/      the paper's contribution: similarity math, local joiners,
///              distribution strategies, partition planning, the join
///              topology facade
///
/// Typical entry points: BuildCorpusFromLines / WorkloadGenerator to get a
/// stream of RecordPtr; RecordJoiner or BundleJoiner for single-partition
/// joins; RunDistributedJoin for the full topology.

#include "common/flags.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/brute_force_joiner.h"
#include "core/bundle_joiner.h"
#include "core/join_topology.h"
#include "core/local_joiner.h"
#include "core/partition.h"
#include "core/record_joiner.h"
#include "core/repartition.h"
#include "core/router.h"
#include "core/similarity.h"
#include "core/two_stream_joiner.h"
#include "core/verify.h"
#include "core/window.h"
#include "stream/topology.h"
#include "text/corpus.h"
#include "text/record.h"
#include "text/token_dictionary.h"
#include "text/tokenizer.h"
#include "workload/drift.h"
#include "workload/generator.h"

#endif  // DSSJ_DSSJ_H_
