// Borrow-lifetime regression tests for the zero-copy receive path. Decoded
// records may borrow token storage from the frame arena; the ownership
// contract is: (1) the aliasing payload shared_ptr pins the arena, so a
// borrow can never dangle while the Record is reachable; (2) anything that
// outlives the delivery callback — the joiner's stored index, checkpoint
// blobs, shed bookkeeping — must hold a detached (owning) copy. These tests
// run with net_arena_pool = 0, which frees every arena the instant its last
// borrower drops instead of recycling it, so a missed detach is a
// use-after-free that ASan reports at the exact access (tools/ci.sh runs
// this binary in the ASan tree).
#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_topology.h"
#include "net/frame_arena.h"
#include "net/wire.h"
#include "text/record.h"
#include "workload/generator.h"

namespace dssj {
namespace {

using net::WireCodec;
using stream::Envelope;
using stream::MakeTuple;

constexpr WireCodec kAllCodecs[] = {WireCodec::kRaw, WireCodec::kDelta};

std::string OneRecordFrame(WireCodec wire, const net::PayloadCodec& codec,
                           std::vector<TokenId> tokens) {
  auto record = std::make_shared<Record>();
  record->id = 5;
  record->seq = 6;
  record->timestamp = 7;
  record->tokens = std::move(tokens);
  Envelope e;
  e.tuple = MakeTuple(std::shared_ptr<const void>(record));
  e.source_task = 1;
  e.link_seq = 1;
  std::string bytes;
  net::AppendDataFrame(wire, 1, 2, {e}, &codec, &bytes);
  return bytes;
}

RecordPtr ParseOneRecord(const std::string& bytes, const net::PayloadCodec& codec,
                         const std::shared_ptr<net::FrameArena>& arena) {
  const char* data = bytes.data();
  if (arena != nullptr) {
    arena->bytes() = bytes;
    data = arena->bytes().data();
  }
  net::Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(net::ParseFrame(data, bytes.size(), &codec, net::kDefaultMaxFrameBytes,
                            &frame, &consumed, &error, arena),
            net::ParseStatus::kFrame)
      << error;
  EXPECT_EQ(frame.envelopes.size(), 1u);
  return frame.envelopes[0].tuple.Ptr<Record>(0);
}

TEST(BorrowLifetimeTest, BorrowedTokensOutliveTheArenaHandle) {
  const net::PayloadCodec codec = RecordWireCodec();
  const std::vector<TokenId> tokens = {2, 9, 11, 400000};
  net::FrameArenaPool pool(0);  // freed, not recycled: ASan sees any dangle
  for (const WireCodec wire : kAllCodecs) {
    const std::string bytes = OneRecordFrame(wire, codec, tokens);
    auto arena = pool.Acquire();
    RecordPtr record = ParseOneRecord(bytes, codec, arena);
    ASSERT_NE(record, nullptr);
    // Drop our arena handle: the record's aliasing owner must keep the
    // arena (and with it the frame buffer) alive on its own.
    arena.reset();
    EXPECT_EQ(record->tokens, tokens) << net::WireCodecName(wire);
    // The arena decode path hands out borrows, not copies.
    EXPECT_TRUE(record->tokens.borrowed()) << net::WireCodecName(wire);
  }
}

// A task that keeps one received tuple (a replay-log entry waiting for a
// durable epoch, a lane-merge buffer) pins that tuple's whole arena, so the
// arena must be sized to its frame, not to a fixed floor. Decoding one
// 32-record frame may hold the frame copy (up to twice its size, string
// growth), at most one token per frame byte (every decoded token used at
// least one), and the Record objects — nothing more.
TEST(BorrowLifetimeTest, ArenaMemoryIsProportionalToTheFrame) {
  constexpr size_t kRecords = 32;
  const net::PayloadCodec codec = RecordWireCodec();
  std::vector<Envelope> envs;
  for (size_t i = 0; i < kRecords; ++i) {
    auto record = std::make_shared<Record>();
    record->id = i;
    record->seq = i;
    record->timestamp = static_cast<int64_t>(i);
    const auto t = static_cast<TokenId>(i);
    record->tokens = std::vector<TokenId>{t, t + 40, t + 300, t + 2000, t + 70000};
    Envelope e;
    e.tuple = MakeTuple(std::shared_ptr<const void>(record), static_cast<int64_t>(i));
    e.source_task = 1;
    e.link_seq = i + 1;
    envs.push_back(std::move(e));
  }
  for (const WireCodec wire : kAllCodecs) {
    std::string bytes;
    net::AppendDataFrame(wire, 1, 2, envs, &codec, &bytes);
    net::FrameArenaPool pool(0);
    auto arena = pool.Acquire();
    arena->bytes() = bytes;
    net::Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(net::ParseFrame(arena->bytes().data(), bytes.size(), &codec,
                              net::kDefaultMaxFrameBytes, &frame, &consumed, &error, arena),
              net::ParseStatus::kFrame)
        << error;
    ASSERT_EQ(frame.envelopes.size(), kRecords);
    const size_t bound =
        2 * bytes.size() + sizeof(TokenId) * bytes.size() + kRecords * sizeof(Record);
    EXPECT_LE(arena->MemoryBytes(), bound)
        << net::WireCodecName(wire) << ": " << bytes.size() << "-byte frame";
  }
}

TEST(BorrowLifetimeTest, NullArenaDecodesOwnEverything) {
  const net::PayloadCodec codec = RecordWireCodec();
  for (const WireCodec wire : kAllCodecs) {
    const std::string bytes = OneRecordFrame(wire, codec, {1, 2, 3});
    RecordPtr record = ParseOneRecord(bytes, codec, nullptr);
    ASSERT_NE(record, nullptr);
    EXPECT_FALSE(record->tokens.borrowed()) << net::WireCodecName(wire);
  }
}

TEST(BorrowLifetimeTest, DetachRecordProducesIndependentCopy) {
  const net::PayloadCodec codec = RecordWireCodec();
  net::FrameArenaPool pool(0);
  const std::vector<TokenId> tokens = {2, 9, 11};
  const std::string bytes = OneRecordFrame(WireCodec::kRaw, codec, tokens);
  auto arena = pool.Acquire();
  RecordPtr borrowed = ParseOneRecord(bytes, codec, arena);
  ASSERT_NE(borrowed, nullptr);
  ASSERT_TRUE(borrowed->tokens.borrowed());

  const RecordPtr detached = DetachRecord(borrowed);
  EXPECT_FALSE(detached->tokens.borrowed());
  EXPECT_NE(detached->tokens.data(), borrowed->tokens.data());
  EXPECT_EQ(detached->tokens, tokens);
  EXPECT_EQ(detached->id, borrowed->id);
  EXPECT_EQ(detached->seq, borrowed->seq);

  // Release every reference into the arena; the detached copy must be
  // self-sufficient (ASan catches it if any byte still points at the frame).
  borrowed.reset();
  arena.reset();
  EXPECT_EQ(detached->tokens, tokens);

  // Detaching an already-owning record is a cheap no-op handle copy.
  const RecordPtr again = DetachRecord(detached);
  EXPECT_EQ(again.get(), detached.get());
}

TEST(BorrowLifetimeTest, TokenArrayCopySemanticsAlwaysDetach) {
  std::vector<TokenId> backing = {4, 8, 15};
  TokenArray borrowed = TokenArray::Borrow(backing.data(), backing.size());
  ASSERT_TRUE(borrowed.borrowed());

  TokenArray copied = borrowed;  // copy ctor must deep-copy
  EXPECT_FALSE(copied.borrowed());
  EXPECT_NE(copied.data(), borrowed.data());

  TokenArray assigned;
  assigned = borrowed;  // copy assign too
  EXPECT_FALSE(assigned.borrowed());

  backing.assign({99, 100, 101});  // clobber the original backing store
  EXPECT_EQ(copied, std::vector<TokenId>({4, 8, 15}));
  EXPECT_EQ(assigned, std::vector<TokenId>({4, 8, 15}));
}

// ---------------------------------------------------------------------------
// End-to-end: the joiner's store path must detach before indexing (frames
// are reused long before the index is probed again), and the checkpoint and
// shed paths must never capture a borrow. Loopback with net_arena_pool = 0
// means every frame buffer is freed as soon as its last borrower drops, so
// under ASan any stored borrow is a guaranteed use-after-free.
// ---------------------------------------------------------------------------

std::vector<ResultPair> Canonical(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const ResultPair& a, const ResultPair& b) {
    return std::tie(a.probe_seq, a.partner_seq) < std::tie(b.probe_seq, b.partner_seq);
  });
  return pairs;
}

std::vector<RecordPtr> MakeStream(uint64_t seed, size_t n) {
  WorkloadOptions options;
  options.seed = seed;
  options.token_universe = 400;
  options.zipf_skew = 0.6;
  options.length = LengthModel::Uniform(1, 24);
  options.duplicate_fraction = 0.4;
  options.mutation_rate = 0.12;
  options.dup_locality = 200;
  return WorkloadGenerator(options).Generate(n);
}

DistributedJoinOptions BaseOptions(const std::vector<RecordPtr>& stream) {
  DistributedJoinOptions options;
  options.sim = SimilaritySpec(SimilarityFunction::kJaccard, 700);
  options.num_joiners = 4;
  options.collect_results = true;
  options.length_partition = PlanLengthPartition(stream, options.sim, options.num_joiners,
                                                 PartitionMethod::kLoadAwareGreedy);
  options.transport = JoinTransport::kLoopback;
  options.num_workers = 2;
  options.net_arena_pool = 0;  // free-on-drop arenas: dangling borrows crash
  return options;
}

TEST(BorrowLifetimeTest, StoredIndexSurvivesArenaChurn) {
  const auto stream = MakeStream(83, 600);
  DistributedJoinOptions options = BaseOptions(stream);
  DistributedJoinOptions inproc_options = options;
  inproc_options.transport = JoinTransport::kInproc;
  const DistributedJoinResult inproc = RunDistributedJoin(stream, inproc_options);
  ASSERT_GT(inproc.result_count, 0u);
  for (const WireCodec wire : kAllCodecs) {
    options.wire_codec = wire;
    const DistributedJoinResult got = RunDistributedJoin(stream, options);
    ASSERT_TRUE(got.ok) << got.failure_message;
    EXPECT_EQ(Canonical(got.pairs), Canonical(inproc.pairs)) << net::WireCodecName(wire);
  }
}

TEST(BorrowLifetimeTest, DetachOnCheckpointPath) {
  // A mid-stream kill forces a checkpoint restore + replay: every record in
  // the checkpoint blob was serialized from the stored index while frame
  // arenas churned underneath. Byte-identical recovery proves the blob held
  // copies, not borrows.
  const auto stream = MakeStream(89, 600);
  DistributedJoinOptions options = BaseOptions(stream);
  DistributedJoinOptions inproc_options = options;
  inproc_options.transport = JoinTransport::kInproc;
  const DistributedJoinResult inproc = RunDistributedJoin(stream, inproc_options);
  options.supervise = true;
  options.supervision.checkpoint_interval = 16;
  options.fault_script = "kill:joiner:1@40";
  for (const WireCodec wire : kAllCodecs) {
    options.wire_codec = wire;
    const DistributedJoinResult got = RunDistributedJoin(stream, options);
    ASSERT_TRUE(got.ok) << got.failure_message;
    EXPECT_EQ(Canonical(got.pairs), Canonical(inproc.pairs)) << net::WireCodecName(wire);
    EXPECT_GE(got.restarts, 1u);
  }
}

TEST(BorrowLifetimeTest, DetachOnShedPath) {
  // Probe shedding drops tuples while their frames are still borrowed and
  // records loss bookkeeping (shed seqs). Stores always land, so the result
  // must be a subset of the unshed reference and every missing pair's probe
  // must appear in the shed ledger — with ASan proving no shed bookkeeping
  // kept a frame borrow alive or read one after free.
  const auto stream = MakeStream(97, 800);
  DistributedJoinOptions options = BaseOptions(stream);
  DistributedJoinOptions inproc_options = options;
  inproc_options.transport = JoinTransport::kInproc;
  const DistributedJoinResult reference = RunDistributedJoin(stream, inproc_options);
  options.shed_policy = stream::ShedPolicy::kProbe;
  options.shed_watermark = 0.02;  // tiny queue fraction: shedding is likely
  options.queue_capacity = 256;
  for (const WireCodec wire : kAllCodecs) {
    options.wire_codec = wire;
    const DistributedJoinResult got = RunDistributedJoin(stream, options);
    ASSERT_TRUE(got.ok) << got.failure_message;
    const auto ref_pairs = Canonical(reference.pairs);
    for (const ResultPair& pair : Canonical(got.pairs)) {
      EXPECT_TRUE(std::binary_search(
          ref_pairs.begin(), ref_pairs.end(), pair,
          [](const ResultPair& a, const ResultPair& b) {
            return std::tie(a.probe_seq, a.partner_seq) <
                   std::tie(b.probe_seq, b.partner_seq);
          }))
          << net::WireCodecName(wire);
    }
    EXPECT_LE(got.result_count, reference.result_count);
  }
}

}  // namespace
}  // namespace dssj
