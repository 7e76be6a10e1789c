// docs/INTERNALS.md §9/§11 — what the real wire costs. The
// encode and parse micro-benches use the SAME denominators — tuples per
// second via items, wire bytes per second via bytes, both counted against
// the identical frame buffer — so the two axes are directly comparable
// (an earlier revision compared parse MB/s of wire bytes against encode
// tuples/s of logical records, which manufactured a 7x "asymmetry").
// Parse runs the production zero-copy path: bytes land in a pooled frame
// arena (the copy is part of the measured work, exactly as in the TCP
// reader) and decoded records borrow token storage from it.
//
// Counters:
//   bytes_per_tuple  — wire bytes / tuple
//   wire_ratio       — wire bytes / the batch's Tuple::SerializedBytes, the
//                      estimate the stream layer's communication accounting
//                      charges
//
// Macro-benches run the identical join over the three transports: inproc
// (pointer-passing queues), loopback (every cross-worker tuple
// wire-encoded and re-parsed in process), and tcp (two ranks
// over localhost sockets, worker rank on a thread). The inproc → loopback
// gap is pure serialization/framing; loopback → tcp adds syscalls and the
// kernel loopback path. remote_byte_cost_ns is 0 here: the usual simulated
// per-byte charge would double-count exactly the cost this bench measures
// for real.

#include <thread>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "net/frame_arena.h"
#include "net/transport.h"
#include "net/wire.h"

namespace dssj::bench {
namespace {

constexpr size_t kRecords = 20000;
constexpr int kJoiners = 8;
constexpr size_t kFrameBatch = 32;

std::vector<stream::Envelope> DispatcherBatch(const std::vector<RecordPtr>& stream) {
  std::vector<stream::Envelope> batch;
  for (size_t i = 0; i < kFrameBatch; ++i) {
    const RecordPtr& r = stream[i % stream.size()];
    stream::Envelope e;
    e.tuple = stream::MakeTuple(std::shared_ptr<const void>(r), int64_t{3},
                                static_cast<int64_t>(1000 + i));
    e.tuple.set_payload_bytes(r->SerializedBytes());
    e.source_task = 1;
    e.link_seq = i + 1;
    batch.push_back(std::move(e));
  }
  return batch;
}

void ReportWireCounters(benchmark::State& state, const std::vector<stream::Envelope>& batch,
                        size_t wire_bytes) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kFrameBatch));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * wire_bytes));
  state.counters["bytes_per_tuple"] =
      static_cast<double>(wire_bytes) / static_cast<double>(kFrameBatch);
  size_t modeled_bytes = 0;
  for (const stream::Envelope& e : batch) modeled_bytes += e.tuple.SerializedBytes();
  state.counters["wire_ratio"] =
      static_cast<double>(wire_bytes) / static_cast<double>(modeled_bytes);
}

void BM_WireEncodeFrames(benchmark::State& state) {
  const net::PayloadCodec codec = RecordWireCodec();
  const auto batch = DispatcherBatch(CachedStream(DatasetPreset::kTweet, 4096));
  std::string bytes;
  for (auto _ : state) {
    bytes.clear();
    net::AppendEnvelopeFrames(2, batch, &codec, &bytes);
    benchmark::DoNotOptimize(bytes.data());
  }
  ReportWireCounters(state, batch, bytes.size());
}

void BM_WireParseFrames(benchmark::State& state) {
  const net::PayloadCodec codec = RecordWireCodec();
  const auto batch = DispatcherBatch(CachedStream(DatasetPreset::kTweet, 4096));
  std::string bytes;
  net::AppendEnvelopeFrames(2, batch, &codec, &bytes);
  net::FrameArenaPool pool(8);
  net::Frame frame;  // reused: ParseFrame keeps envelope capacity across frames
  for (auto _ : state) {
    // Production receive path: land the bytes in a pooled arena (that copy
    // is real per-frame work in the TCP reader), then parse zero-copy.
    auto arena = pool.Acquire();
    arena->bytes() = bytes;
    const char* data = arena->bytes().data();
    size_t pos = 0;
    while (pos < bytes.size()) {
      size_t consumed = 0;
      std::string error;
      if (net::ParseFrame(data + pos, bytes.size() - pos, &codec,
                          net::kDefaultMaxFrameBytes, &frame, &consumed, &error,
                          arena) != net::ParseStatus::kFrame) {
        state.SkipWithError("parse failed");
        return;
      }
      pos += consumed;
      benchmark::DoNotOptimize(frame.envelopes.data());
    }
  }
  ReportWireCounters(state, batch, bytes.size());
}

DistributedJoinOptions TransportJoinOptions(const std::vector<RecordPtr>& stream) {
  DistributedJoinOptions options = BaseJoinOptions(800, kJoiners);
  options.remote_byte_cost_ns = 0.0;  // measure the real cost, not the model
  options.num_workers = 2;
  options.length_partition = PlanLengthPartition(stream, options.sim, kJoiners,
                                                 PartitionMethod::kLoadAwareGreedy);
  return options;
}

void RunTransportJoin(benchmark::State& state, JoinTransport transport) {
  const auto& stream = CachedStream(DatasetPreset::kTweet, kRecords);
  DistributedJoinOptions options = TransportJoinOptions(stream);
  options.transport = transport;
  DistributedJoinResult result;
  for (auto _ : state) {
    if (transport == JoinTransport::kTcp) {
      const std::vector<uint16_t> ports = net::PickFreePorts(2);
      if (ports.empty()) {
        state.SkipWithError("no localhost sockets available");
        return;
      }
      options.cluster = "127.0.0.1:" + std::to_string(ports[0]) + ",127.0.0.1:" +
                        std::to_string(ports[1]);
      DistributedJoinOptions worker_options = options;
      worker_options.rank = 1;
      std::thread worker(
          [worker_options] { RunDistributedJoin({}, worker_options); });
      options.rank = 0;
      result = RunDistributedJoin(stream, options);
      worker.join();
    } else {
      result = RunDistributedJoin(stream, options);
    }
  }
  ReportJoinResult(state, result);
}

void BM_JoinInproc(benchmark::State& state) { RunTransportJoin(state, JoinTransport::kInproc); }
void BM_JoinLoopback(benchmark::State& state) {
  RunTransportJoin(state, JoinTransport::kLoopback);
}
void BM_JoinTcpLocalhost(benchmark::State& state) {
  RunTransportJoin(state, JoinTransport::kTcp);
}

BENCHMARK(BM_WireEncodeFrames);
BENCHMARK(BM_WireParseFrames);
BENCHMARK(BM_JoinInproc)->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_JoinLoopback)->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();
BENCHMARK(BM_JoinTcpLocalhost)->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

}  // namespace
}  // namespace dssj::bench

BENCHMARK_MAIN();
