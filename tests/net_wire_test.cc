// Wire-format tests: tuple encoding round-trips every Value alternative in
// every codec, frame parsing is incremental, and malformed inputs (truncated
// bodies, oversized lengths, non-canonical varints, non-monotone token
// deltas, lying length prefixes, too many tuple fields, unknown field tags)
// are rejected instead of crashing — the parser faces bytes from the
// network, not from this process.
//
// METRICS blobs (the per-task counters a worker ships at the end of a run)
// round-trip, merge by each counter's rule, and are rejected whole when
// malformed or addressed to no task.
//
// The fuzz battery at the bottom runs >= 5000 structured mutational
// iterations over seed frame streams in every codec plus the migration
// control frames, parsed both with and without a frame arena (the zero-copy
// path), under ASan/UBSan in CI.
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "core/join_topology.h"
#include "gtest/gtest.h"
#include "net/frame_arena.h"
#include "net/wire.h"
#include "stream/metrics.h"
#include "text/record.h"

namespace dssj::net {
namespace {

using stream::Envelope;
using stream::MakeTuple;
using stream::Tuple;

constexpr WireCodec kAllCodecs[] = {WireCodec::kRaw, WireCodec::kDelta};

Record MakeTestRecord(uint64_t id, std::vector<TokenId> tokens) {
  Record r;
  r.id = id;
  r.seq = id + 100;
  r.timestamp = static_cast<int64_t>(id) * 7 - 3;
  r.tokens = std::move(tokens);
  return r;
}

Tuple RoundTrip(WireCodec wire, const Tuple& in, const PayloadCodec* codec) {
  std::string bytes;
  EncodeTuple(wire, in, codec, &bytes);
  SafeBinaryReader r(bytes.data(), bytes.size());
  Tuple out;
  EXPECT_TRUE(DecodeTuple(wire, r, codec, nullptr, &out));
  EXPECT_TRUE(r.AtEnd());
  return out;
}

TEST(WireTupleTest, RoundTripsScalarsAndStrings) {
  for (const WireCodec wire : kAllCodecs) {
    Tuple in = MakeTuple(int64_t{-42}, int64_t{INT64_MIN}, int64_t{0}, int64_t{INT64_MAX});
    in.set_payload_bytes(99);
    const Tuple out = RoundTrip(wire, in, nullptr);
    ASSERT_EQ(out.num_fields(), 4u);
    EXPECT_EQ(out.Int(0), -42);
    EXPECT_EQ(out.Int(1), INT64_MIN);
    EXPECT_EQ(out.Int(2), 0);
    EXPECT_EQ(out.Int(3), INT64_MAX);
    EXPECT_EQ(out.payload_bytes(), 99u);
  }
}

TEST(WireTupleTest, RoundTripsRecordPayloadViaCodec) {
  const PayloadCodec codec = RecordWireCodec();
  for (const WireCodec wire : kAllCodecs) {
    auto record = std::make_shared<Record>(MakeTestRecord(7, {1, 5, 9, 200000}));
    Tuple in = MakeTuple(std::shared_ptr<const void>(record), int64_t{3});
    const Tuple out = RoundTrip(wire, in, &codec);
    ASSERT_EQ(out.num_fields(), 2u);
    const auto decoded = out.Ptr<Record>(0);
    ASSERT_NE(decoded, nullptr);
    EXPECT_NE(decoded.get(), record.get());  // a real copy crossed the "wire"
    EXPECT_EQ(decoded->id, record->id);
    EXPECT_EQ(decoded->seq, record->seq);
    EXPECT_EQ(decoded->timestamp, record->timestamp);
    EXPECT_EQ(decoded->tokens, record->tokens);
    EXPECT_FALSE(decoded->tokens.borrowed());  // null arena => owning decode
    EXPECT_EQ(out.Int(1), 3);
  }
}

TEST(WireTupleTest, RoundTripsNullPayload) {
  for (const WireCodec wire : kAllCodecs) {
    Tuple in = MakeTuple(std::shared_ptr<const void>(), int64_t{1});
    const Tuple out = RoundTrip(wire, in, nullptr);  // null payload needs no codec
    ASSERT_EQ(out.num_fields(), 2u);
    EXPECT_EQ(std::get<std::shared_ptr<const void>>(out.field(0)), nullptr);
  }
}

TEST(WireRecordTest, DeltaRoundTripsEdgeTokenShapes) {
  const std::vector<std::vector<TokenId>> shapes = {
      {},                                // empty token array
      {0},                               // single minimal token
      {0xffffffffu},                     // single maximal token
      {0, 1, 2, 3, 4},                   // dense gaps (gap-1 == 0)
      {5, 100000, 0xfffffffeu, 0xffffffffu},  // huge gaps + ceiling
  };
  for (const auto& tokens : shapes) {
    const Record in = MakeTestRecord(9, tokens);
    std::string bytes;
    EncodeRecordDelta(in, &bytes);
    Record out;
    ASSERT_TRUE(DecodeRecordDelta(bytes.data(), bytes.size(), &out));
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_EQ(out.timestamp, in.timestamp);
    EXPECT_EQ(out.tokens, in.tokens);
  }
}

TEST(WireRecordTest, DecodeRejectsTruncatedAndMalformed) {
  std::string bytes;
  EncodeRecord(MakeTestRecord(1, {2, 3, 4}), &bytes);
  Record out;
  ASSERT_TRUE(DecodeRecord(bytes.data(), bytes.size(), &out));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeRecord(bytes.data(), cut, &out)) << "prefix " << cut;
  }
  // Token count inconsistent with the remaining bytes.
  std::string lying = bytes;
  lying[24] = static_cast<char>(lying[24] + 1);
  EXPECT_FALSE(DecodeRecord(lying.data(), lying.size(), &out));

  std::string delta;
  EncodeRecordDelta(MakeTestRecord(1, {2, 3, 4}), &delta);
  ASSERT_TRUE(DecodeRecordDelta(delta.data(), delta.size(), &out));
  for (size_t cut = 0; cut < delta.size(); ++cut) {
    EXPECT_FALSE(DecodeRecordDelta(delta.data(), cut, &out)) << "prefix " << cut;
  }
}

TEST(WireRecordTest, RejectsNonMonotoneTokens) {
  // Raw coding can express an unsorted array; the decoder must refuse it
  // (every downstream index assumes strict ascent).
  Record unsorted = MakeTestRecord(1, {5, 3, 9});
  std::string bytes;
  EncodeRecord(unsorted, &bytes);
  Record out;
  EXPECT_FALSE(DecodeRecord(bytes.data(), bytes.size(), &out));

  Record dup = MakeTestRecord(1, {5, 5});
  bytes.clear();
  EncodeRecord(dup, &bytes);
  EXPECT_FALSE(DecodeRecord(bytes.data(), bytes.size(), &out));
}

TEST(WireRecordTest, RejectsDeltaTokenOverflow) {
  // Delta coding is monotone by construction, so the only way to break
  // ascent is to run the reconstruction past UINT32_MAX. Hand-build a blob
  // whose second gap does exactly that.
  std::string bytes;
  BinaryWriter w(&bytes);
  w.WriteVarint(1);                        // id
  w.WriteVarint(2);                        // seq
  w.WriteVarintI64(-3);                    // timestamp
  w.WriteVarint(2);                        // token count
  w.WriteVarint(0xffffffffu);              // first token: at the ceiling
  w.WriteVarint(4);                        // next = 0xffffffff + 4 + 1: overflow
  Record out;
  EXPECT_FALSE(DecodeRecordDelta(bytes.data(), bytes.size(), &out));

  // A gap so large that prev + d + 1 wraps mod 2^64 back under the ceiling
  // would smuggle a duplicate token past the ascent check; the gap itself
  // must be range-checked first.
  std::string wrap;
  BinaryWriter w2(&wrap);
  w2.WriteVarint(1);                            // id
  w2.WriteVarint(2);                            // seq
  w2.WriteVarintI64(-3);                        // timestamp
  w2.WriteVarint(2);                            // token count
  w2.WriteVarint(5);                            // first token
  w2.WriteVarint(0xffffffffffffffffull);        // next = 5 + 2^64-1 + 1 = 5 again
  EXPECT_FALSE(DecodeRecordDelta(wrap.data(), wrap.size(), &out));
}

TEST(WireRecordTest, RejectsNonCanonicalVarint) {
  std::string bytes;
  EncodeRecordDelta(MakeTestRecord(1, {2, 3, 4}), &bytes);
  Record out;
  ASSERT_TRUE(DecodeRecordDelta(bytes.data(), bytes.size(), &out));
  // Re-encode the leading id varint (value 1, one byte) as the padded
  // two-byte form 0x81 0x00 — same value, non-minimal encoding. A canonical
  // decoder must reject it; accepting would give attackers encoding
  // freedom (two byte strings, one meaning) that breaks byte-identity
  // guarantees downstream.
  std::string padded;
  padded.push_back(static_cast<char>(0x81));
  padded.push_back(static_cast<char>(0x00));
  padded.append(bytes.data() + 1, bytes.size() - 1);
  EXPECT_FALSE(DecodeRecordDelta(padded.data(), padded.size(), &out));
}

std::vector<Envelope> SmallBatch() {
  std::vector<Envelope> envs;
  for (int i = 0; i < 3; ++i) {
    Envelope e;
    e.tuple = MakeTuple(int64_t{i}, int64_t{-i});
    e.source_task = 4;
    e.link_seq = static_cast<uint64_t>(i + 1);
    envs.push_back(std::move(e));
  }
  return envs;
}

std::string OneDataFrame(WireCodec wire, const PayloadCodec* codec) {
  std::string bytes;
  AppendDataFrame(wire, 4, 9, SmallBatch(), codec, &bytes);
  return bytes;
}

TEST(WireFrameTest, DataFrameRoundTripAllCodecs) {
  for (const WireCodec wire : kAllCodecs) {
    const std::string bytes = OneDataFrame(wire, nullptr);
    Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ParseFrame(bytes.data(), bytes.size(), nullptr, kDefaultMaxFrameBytes,
                         &frame, &consumed, &error),
              ParseStatus::kFrame)
        << WireCodecName(wire) << ": " << error;
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(frame.type, FrameType::kData);
    EXPECT_EQ(frame.dst_task, 9);
    ASSERT_EQ(frame.envelopes.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(frame.envelopes[i].source_task, 4);
      EXPECT_EQ(frame.envelopes[i].link_seq, static_cast<uint64_t>(i + 1));
      EXPECT_EQ(frame.envelopes[i].tuple.Int(0), i);
      EXPECT_EQ(frame.envelopes[i].tuple.Int(1), -i);
      EXPECT_FALSE(frame.envelopes[i].eos);
    }
  }
}

TEST(WireFrameTest, MixedCodecPeersInteroperate) {
  // The codec byte is per frame: a stream holding one frame of each codec
  // parses with no out-of-band configuration.
  std::string bytes;
  for (const WireCodec wire : kAllCodecs) {
    AppendDataFrame(wire, 4, 9, SmallBatch(), nullptr, &bytes);
  }
  size_t pos = 0;
  size_t frames = 0;
  while (pos < bytes.size()) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ParseFrame(bytes.data() + pos, bytes.size() - pos, nullptr,
                         kDefaultMaxFrameBytes, &frame, &consumed, &error),
              ParseStatus::kFrame)
        << error;
    ASSERT_EQ(frame.envelopes.size(), 3u);
    EXPECT_EQ(frame.envelopes[2].tuple.Int(0), 2);
    pos += consumed;
    ++frames;
  }
  EXPECT_EQ(frames, std::size(kAllCodecs));
}

TEST(WireFrameTest, EnvelopeFramesSplitRunsAndEos) {
  std::vector<Envelope> envs;
  Envelope a;
  a.tuple = MakeTuple(int64_t{1});
  a.source_task = 2;
  a.link_seq = 1;
  envs.push_back(a);
  Envelope b = a;
  b.source_task = 3;  // source change forces a new kData frame
  envs.push_back(b);
  Envelope eos;
  eos.source_task = 3;
  eos.eos = true;
  eos.link_seq = 17;  // final link count rides the EOS marker
  envs.push_back(eos);
  std::string bytes;
  AppendEnvelopeFrames(WireCodec::kDelta, 5, envs, nullptr, &bytes);

  std::vector<Frame> frames;
  size_t pos = 0;
  while (pos < bytes.size()) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ParseFrame(bytes.data() + pos, bytes.size() - pos, nullptr,
                         kDefaultMaxFrameBytes, &frame, &consumed, &error),
              ParseStatus::kFrame)
        << error;
    pos += consumed;
    frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kData);
  EXPECT_EQ(frames[0].envelopes[0].source_task, 2);
  EXPECT_EQ(frames[1].type, FrameType::kData);
  EXPECT_EQ(frames[1].envelopes[0].source_task, 3);
  EXPECT_EQ(frames[2].type, FrameType::kEos);
  ASSERT_EQ(frames[2].envelopes.size(), 1u);
  EXPECT_TRUE(frames[2].envelopes[0].eos);
  EXPECT_EQ(frames[2].envelopes[0].link_seq, 17u);
}

TEST(WireFrameTest, ControlFramesRoundTrip) {
  // STATE carries its MigrationState blob verbatim: empty, with embedded
  // NULs, and large.
  std::string big(1u << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 131 + (i >> 10));
  const std::string state_blobs[] = {std::string(), std::string("a\0b\0\0c", 6), big};

  std::string bytes;
  AppendHelloFrame(3, 0xfffffffeu, &bytes);
  AppendMetricsFrame(12, "blobby", &bytes);
  AppendDoneFrame(2, &bytes);
  AppendFailFrame(1, "task 5 exceeded restart budget", &bytes);
  AppendPrepareFrame(0xfffffff0u, 5, 2, &bytes);
  for (uint32_t i = 0; i < std::size(state_blobs); ++i) {
    AppendStateFrame(71 + i, 6 + static_cast<int32_t>(i), 3, state_blobs[i], &bytes);
  }
  AppendHandoffFrame(80, 9, 0xffff, &bytes);
  AppendAckFrame(81, 10, 1, &bytes);

  std::vector<Frame> frames;
  size_t pos = 0;
  while (pos < bytes.size()) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ParseFrame(bytes.data() + pos, bytes.size() - pos, nullptr,
                         kDefaultMaxFrameBytes, &frame, &consumed, &error),
              ParseStatus::kFrame)
        << error;
    pos += consumed;
    frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 10u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].rank, 3);
  EXPECT_EQ(frames[0].connection, 0xfffffffeu);
  EXPECT_EQ(frames[1].type, FrameType::kMetrics);
  EXPECT_EQ(frames[1].task_id, 12);
  EXPECT_EQ(frames[1].blob, "blobby");
  EXPECT_EQ(frames[2].type, FrameType::kDone);
  EXPECT_EQ(frames[2].rank, 2);
  EXPECT_EQ(frames[3].type, FrameType::kFail);
  EXPECT_EQ(frames[3].rank, 1);
  EXPECT_EQ(frames[3].blob, "task 5 exceeded restart budget");

  const auto expect_migration = [](const Frame& f, FrameType type, uint32_t migration_id,
                                   int32_t task_id, uint16_t rank, const std::string& blob) {
    EXPECT_EQ(f.type, type);
    EXPECT_EQ(f.migration_id, migration_id);
    EXPECT_EQ(f.task_id, task_id);
    EXPECT_EQ(f.rank, rank);
    EXPECT_TRUE(f.blob == blob) << "blob of " << f.blob.size() << " bytes, want "
                                << blob.size();
  };
  expect_migration(frames[4], FrameType::kPrepare, 0xfffffff0u, 5, 2, "");
  for (uint32_t i = 0; i < std::size(state_blobs); ++i) {
    expect_migration(frames[5 + i], FrameType::kState, 71 + i, 6 + static_cast<int32_t>(i), 3,
                     state_blobs[i]);
  }
  expect_migration(frames[8], FrameType::kHandoff, 80, 9, 0xffff, "");
  expect_migration(frames[9], FrameType::kAck, 81, 10, 1, "");
}

TEST(WireFrameTest, PrefixesAskForMoreBytes) {
  for (const WireCodec wire : kAllCodecs) {
    const std::string bytes = OneDataFrame(wire, nullptr);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      Frame frame;
      size_t consumed = 0;
      std::string error;
      EXPECT_EQ(ParseFrame(bytes.data(), cut, nullptr, kDefaultMaxFrameBytes, &frame,
                           &consumed, &error),
                ParseStatus::kNeedMore)
          << WireCodecName(wire) << " prefix " << cut;
    }
  }
}

TEST(WireFrameTest, RejectsOversizedLength) {
  std::string bytes = OneDataFrame(WireCodec::kDelta, nullptr);
  const uint32_t huge = kDefaultMaxFrameBytes + 1;
  std::memcpy(bytes.data(), &huge, 4);
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseFrame(bytes.data(), bytes.size(), nullptr, kDefaultMaxFrameBytes,
                       &frame, &consumed, &error),
            ParseStatus::kError);
  EXPECT_FALSE(error.empty());
}

TEST(WireFrameTest, RejectsUnknownType) {
  std::string bytes = OneDataFrame(WireCodec::kDelta, nullptr);
  bytes[4] = 0x7f;  // type byte
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseFrame(bytes.data(), bytes.size(), nullptr, kDefaultMaxFrameBytes,
                       &frame, &consumed, &error),
            ParseStatus::kError);
}

TEST(WireFrameTest, RejectsUnknownCodecByte) {
  // Only 0 (raw) and 1 (delta) are assigned; a v3 peer could send 2.
  for (const char codec_byte : {'\x02', '\x09'}) {
    std::string bytes = OneDataFrame(WireCodec::kDelta, nullptr);
    bytes[5] = codec_byte;
    Frame frame;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(ParseFrame(bytes.data(), bytes.size(), nullptr, kDefaultMaxFrameBytes,
                         &frame, &consumed, &error),
              ParseStatus::kError)
        << "codec byte " << int{codec_byte};
    EXPECT_FALSE(error.empty());
  }
}

TEST(WireFrameTest, RejectsBodyTruncatedInsideAnnouncedLength) {
  // Shrink the announced length so it cuts a tuple mid-field: the body is
  // "complete" per the length prefix but malformed inside.
  for (const WireCodec wire : kAllCodecs) {
    std::string bytes = OneDataFrame(wire, nullptr);
    uint32_t len;
    std::memcpy(&len, bytes.data(), 4);
    const uint32_t cut_len = len - 3;
    std::memcpy(bytes.data(), &cut_len, 4);
    bytes.resize(4 + cut_len);
    Frame frame;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(ParseFrame(bytes.data(), bytes.size(), nullptr, kDefaultMaxFrameBytes,
                         &frame, &consumed, &error),
              ParseStatus::kError)
        << WireCodecName(wire);
  }
}

TEST(WireFrameTest, RejectsBadHelloMagic) {
  std::string bytes;
  AppendHelloFrame(0, 0, &bytes);
  bytes[5] ^= 0x55;  // first magic byte
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseFrame(bytes.data(), bytes.size(), nullptr, kDefaultMaxFrameBytes,
                       &frame, &consumed, &error),
            ParseStatus::kError);
}

TEST(WireFrameTest, RejectsCodecFailureInPayload) {
  const PayloadCodec codec = RecordWireCodec();
  auto record = std::make_shared<Record>(MakeTestRecord(1, {2, 3}));
  Envelope e;
  e.tuple = MakeTuple(std::shared_ptr<const void>(record));
  e.source_task = 0;
  e.link_seq = 1;
  std::string bytes;
  AppendDataFrame(WireCodec::kRaw, 0, 1, {e}, &codec, &bytes);
  // Corrupt the encoded record's token count so only the codec fails (the
  // frame and tuple structure stay valid). The record blob is the frame's
  // final payload; its token count sits 24 bytes in (after
  // id/seq/timestamp).
  const size_t record_bytes = 28 + sizeof(TokenId) * record->tokens.size();
  const size_t count_offset = bytes.size() - record_bytes + 24;
  bytes[count_offset] ^= 0x01;
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseFrame(bytes.data(), bytes.size(), &codec, kDefaultMaxFrameBytes,
                       &frame, &consumed, &error),
            ParseStatus::kError);
}

// Builds a complete frame from a hand-rolled body (length prefix + type).
std::string RawFrame(FrameType type, const std::string& body) {
  std::string out;
  BinaryWriter w(&out);
  w.WriteU32(static_cast<uint32_t>(1 + body.size()));
  w.WriteU8(static_cast<uint8_t>(type));
  out.append(body);
  return out;
}

ParseStatus ParseOne(const std::string& bytes, std::string* error) {
  Frame frame;
  size_t consumed = 0;
  return ParseFrame(bytes.data(), bytes.size(), nullptr, kDefaultMaxFrameBytes,
                    &frame, &consumed, error);
}

TEST(WireFrameTest, RejectsMalformedStateFrames) {
  std::string good;
  AppendStateFrame(7, 3, 1, "state", &good);
  const std::string body = good.substr(4 + 1);  // past the length prefix and type
  constexpr size_t kHeaderBytes = 4 + 4 + 2;    // migration_id, task_id, rank
  std::string error;
  ASSERT_EQ(ParseOne(RawFrame(FrameType::kState, body), &error), ParseStatus::kFrame) << error;

  // A blob length that overruns the body.
  for (const uint32_t lie : {uint32_t{6}, std::numeric_limits<uint32_t>::max()}) {
    std::string overrun = body;
    std::memcpy(overrun.data() + kHeaderBytes, &lie, sizeof(lie));
    error.clear();
    EXPECT_EQ(ParseOne(RawFrame(FrameType::kState, overrun), &error), ParseStatus::kError)
        << "blob length " << lie;
    EXPECT_FALSE(error.empty());
  }
  // One byte after the blob.
  error.clear();
  EXPECT_EQ(ParseOne(RawFrame(FrameType::kState, body + 'x'), &error), ParseStatus::kError);
  EXPECT_FALSE(error.empty());
  // A body cut inside the header.
  error.clear();
  EXPECT_EQ(ParseOne(RawFrame(FrameType::kState, body.substr(0, kHeaderBytes - 3)), &error),
            ParseStatus::kError);
  EXPECT_FALSE(error.empty());
}

// A DATA frame holding one envelope whose tuple announces `num_fields`
// fields, followed by `fields` (tags and values) verbatim.
std::string DataFrameWithFields(WireCodec wire, uint64_t num_fields, const std::string& fields) {
  std::string body;
  BinaryWriter w(&body);
  w.WriteU8(static_cast<uint8_t>(wire));
  w.WriteU32(1);  // source task
  w.WriteU32(2);  // dst task
  w.WriteU32(1);  // envelope count
  if (wire == WireCodec::kRaw) {
    w.WriteU64(1);  // link_seq
    w.WriteU32(0);  // payload_bytes
    w.WriteU32(static_cast<uint32_t>(num_fields));
  } else {
    w.WriteVarint(1);
    w.WriteVarint(0);
    w.WriteVarint(num_fields);
  }
  body.append(fields);
  return RawFrame(FrameType::kData, body);
}

TEST(WireFrameTest, RejectsWideTuplesAndUnassignedTags) {
  const PayloadCodec codec = RecordWireCodec();
  FrameArenaPool pool(0);
  const auto parse = [&](const std::string& bytes, bool use_arena, std::string* error) {
    std::shared_ptr<FrameArena> arena;
    const char* data = bytes.data();
    if (use_arena) {
      arena = pool.Acquire();
      arena->bytes() = bytes;
      data = arena->bytes().data();
    }
    Frame frame;
    size_t consumed = 0;
    return ParseFrame(data, bytes.size(), &codec, kDefaultMaxFrameBytes, &frame, &consumed,
                      error, arena);
  };
  for (const WireCodec wire : kAllCodecs) {
    const bool raw = wire == WireCodec::kRaw;
    // Tag 0 and the value 0: eight raw bytes, or one zigzag varint byte.
    const std::string int_field(raw ? 9 : 2, '\0');
    const auto ints = [&](int n) {
      std::string out;
      for (int i = 0; i < n; ++i) out.append(int_field);
      return out;
    };
    // Tag 1 followed by eight bytes, and tag 2 followed by a zero length.
    std::string tag1(9, '\0');
    tag1[0] = '\x01';
    std::string tag2(raw ? 5 : 2, '\0');
    tag2[0] = '\x02';
    const struct {
      const char* what;
      std::string bytes;
      ParseStatus want;
    } cases[] = {
        {"four fields", DataFrameWithFields(wire, 4, ints(4)), ParseStatus::kFrame},
        {"five fields", DataFrameWithFields(wire, 5, ints(5)), ParseStatus::kError},
        {"2^32-1 fields", DataFrameWithFields(wire, 0xffffffffu, ints(4)), ParseStatus::kError},
        {"tag 1", DataFrameWithFields(wire, 2, ints(1).append(tag1)), ParseStatus::kError},
        {"tag 2", DataFrameWithFields(wire, 2, ints(1).append(tag2)), ParseStatus::kError},
    };
    for (const auto& c : cases) {
      for (const bool use_arena : {false, true}) {
        std::string error;
        EXPECT_EQ(parse(c.bytes, use_arena, &error), c.want)
            << WireCodecName(wire) << " " << c.what << (use_arena ? " (arena)" : "");
        EXPECT_EQ(error.empty(), c.want == ParseStatus::kFrame) << error;
      }
    }
  }
}

TEST(WireFrameTest, RejectsHelloFromOtherWireVersion) {
  // A peer on another wire version codes some bodies differently (v3 sent
  // STATE blobs compressed), so HELLO refuses it before any other frame.
  std::string bytes;
  AppendHelloFrame(1, 0, &bytes);
  const uint16_t v3 = 3;
  std::memcpy(bytes.data() + 4 + 1 + 4, &v3, sizeof(v3));  // past prefix, type, magic
  std::string error;
  EXPECT_EQ(ParseOne(bytes, &error), ParseStatus::kError);
  EXPECT_NE(error.find("peer 3"), std::string::npos) << error;
  EXPECT_NE(error.find("local " + std::to_string(kWireVersion)), std::string::npos) << error;
}

// METRICS blobs are generated from the counter table (DSSJ_TASK_COUNTERS),
// so these tests walk the table too: a counter added to it is covered here
// without editing them.

/// Gives the i-th counter of the table the value scale * (i + 1).
void FillByTable(uint64_t scale, stream::TaskMetrics* m) {
  uint64_t i = 0;
#define DSSJ_FILL_COUNTER(name, rule) stream::merge::rule::Into(m->name, scale * ++i);
  DSSJ_TASK_COUNTERS(DSSJ_FILL_COUNTER)
#undef DSSJ_FILL_COUNTER
}

std::vector<uint64_t> CounterValues(const stream::TaskMetrics& m) {
  std::vector<uint64_t> out;
#define DSSJ_GET_COUNTER(name, rule) out.push_back(m.name.Get());
  DSSJ_TASK_COUNTERS(DSSJ_GET_COUNTER)
#undef DSSJ_GET_COUNTER
  return out;
}

TEST(WireMetricsTest, BlobRoundTripsAndMergesEveryCounterByItsRule) {
  stream::TaskMetrics high, low;
  FillByTable(100, &high);
  FillByTable(1, &low);
  std::string high_blob, low_blob;
  stream::SerializeTaskCounters(high, &high_blob);
  stream::SerializeTaskCounters(low, &low_blob);

  stream::TaskMetrics merged;
  stream::TaskMetrics* slots[] = {nullptr, &merged};
  const Status first = stream::MergeTaskCounters(1, high_blob, slots);
  ASSERT_TRUE(first.ok()) << first.ToString();
  EXPECT_EQ(CounterValues(merged), CounterValues(high));
  // A later, smaller value adds to a Sum counter and leaves a Max one.
  const Status second = stream::MergeTaskCounters(1, low_blob, slots);
  ASSERT_TRUE(second.ok()) << second.ToString();
  const stream::CounterTotals totals =
      stream::Aggregate({stream::TaskStats{"a", 0, 0, 0, &high},
                         stream::TaskStats{"a", 1, 1, 0, &low}});
  uint64_t i = 0;
  size_t max_counters = 0;
#define DSSJ_CHECK_COUNTER(name, rule)                                        \
  {                                                                          \
    ++i;                                                                     \
    const bool sum = std::is_same_v<stream::merge::rule, stream::merge::Sum>; \
    max_counters += sum ? 0 : 1;                                             \
    EXPECT_EQ(merged.name.Get(), sum ? 101 * i : 100 * i) << #name;          \
    EXPECT_EQ(totals.name, merged.name.Get()) << #name;                      \
  }
  DSSJ_TASK_COUNTERS(DSSJ_CHECK_COUNTER)
#undef DSSJ_CHECK_COUNTER
  EXPECT_GT(max_counters, 0u) << "no Max counter left; the Max rule is untested";
}

TEST(WireMetricsTest, RejectedBlobsLeaveTheMetricsUnchanged) {
  stream::TaskMetrics sent;
  FillByTable(3, &sent);
  std::string blob;
  stream::SerializeTaskCounters(sent, &blob);

  stream::TaskMetrics target;
  FillByTable(7, &target);  // nonzero, so a partial merge would show
  const std::vector<uint64_t> before = CounterValues(target);
  stream::TaskMetrics* slots[] = {&target};
  const auto expect_rejected = [&](int task_id, const std::string& bad,
                                   const std::string& what) {
    const Status st = stream::MergeTaskCounters(task_id, bad, slots);
    EXPECT_FALSE(st.ok()) << what;
    EXPECT_NE(st.message().find("task " + std::to_string(task_id)), std::string::npos)
        << what << ": " << st.message();
    EXPECT_EQ(CounterValues(target), before) << what;
  };
  for (size_t len = 0; len < blob.size(); ++len) {
    expect_rejected(0, blob.substr(0, len), "truncated to " + std::to_string(len) + " bytes");
  }
  expect_rejected(0, blob + '\0', "one trailing byte");
  expect_rejected(0, blob + std::string(8, '\0'), "one trailing counter");
  // A count that disagrees with the table is rejected even when the body
  // matches the count (a prefix merge would accept it).
  uint32_t count = 0;
  std::memcpy(&count, blob.data(), sizeof(count));
  for (const uint32_t lie : {count - 1, count + 1}) {
    std::string bad = blob;
    std::memcpy(bad.data(), &lie, sizeof(lie));
    bad.resize(sizeof(lie) + 8 * static_cast<size_t>(lie), '\0');
    expect_rejected(0, bad, "count " + std::to_string(lie));
  }
  expect_rejected(1, blob, "task past the end");
  expect_rejected(-1, blob, "negative task");

  ASSERT_TRUE(stream::MergeTaskCounters(0, blob, slots).ok());
  EXPECT_NE(CounterValues(target), before);
}

// ---------------------------------------------------------------------------
// Fuzz battery: >= 5000 structured mutational iterations over seed frame
// streams, one per codec plus one of migration control frames. Mutation
// classes: random bit flips, truncations, length-field lies, varint padding
// injection (non-canonical encodings), 0xff runs (huge varints /
// non-monotone deltas / blob length lies), and chunk splices. Every outcome
// is acceptable except a crash, a sanitizer report, or a parser that stops
// making progress.
// ---------------------------------------------------------------------------

std::vector<std::string> FuzzSeeds(const PayloadCodec* codec) {
  std::vector<Envelope> envs;
  // Records spanning the interesting shapes: empty tokens, dense gaps, huge
  // gaps, ceiling tokens, plus an INT64_MIN field and a null payload.
  const std::vector<std::vector<TokenId>> shapes = {
      {}, {7}, {1, 2, 3, 4, 5, 6, 7, 8}, {10, 100000, 0xfffffffeu}};
  uint64_t link_seq = 1;
  for (size_t i = 0; i < shapes.size(); ++i) {
    Envelope e;
    auto record = std::make_shared<Record>(
        MakeTestRecord(40 + i, shapes[i]));
    e.tuple = MakeTuple(std::shared_ptr<const void>(record), int64_t{-5},
                        int64_t{INT64_MIN}, std::shared_ptr<const void>());
    e.source_task = 1;
    e.link_seq = link_seq;
    link_seq += 1 + i;  // non-unit gaps exercise the zigzag link_seq coding
    envs.push_back(std::move(e));
  }
  std::vector<std::string> seeds;
  for (const WireCodec wire : kAllCodecs) {
    std::string s;
    AppendHelloFrame(1, 0, &s);
    AppendDataFrame(wire, 1, 2, envs, codec, &s);
    AppendEosFrame(1, 2, 55, &s);
    AppendMetricsFrame(3, std::string(40, 'x'), &s);
    AppendFailFrame(1, "boom", &s);
    seeds.push_back(std::move(s));
  }
  std::string control;
  AppendHelloFrame(1, 2, &control);
  AppendPrepareFrame(9, 2, 1, &control);
  AppendStateFrame(9, 2, 1, std::string("state\0blob", 10) + std::string(40, 's'), &control);
  AppendHandoffFrame(9, 2, 1, &control);
  AppendAckFrame(9, 2, 1, &control);
  seeds.push_back(std::move(control));
  return seeds;
}

void Mutate(std::mt19937& rng, std::string* bytes) {
  if (bytes->empty()) return;
  switch (rng() % 6) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng() % 8);
      for (int f = 0; f < flips; ++f) {
        (*bytes)[rng() % bytes->size()] ^= static_cast<char>(1 + rng() % 255);
      }
      break;
    }
    case 1:  // truncation
      bytes->resize(rng() % (bytes->size() + 1));
      break;
    case 2: {  // length-field lie on the first frame
      uint32_t lie = rng();
      if (rng() % 2) lie %= (bytes->size() + 4);  // also small, plausible lies
      std::memcpy(bytes->data(), &lie, 4);
      break;
    }
    case 3: {  // varint-padding injection: continuation bytes shift structure
      const size_t pos = rng() % bytes->size();
      const int pad = 1 + static_cast<int>(rng() % 3);
      bytes->insert(pos, static_cast<size_t>(pad), static_cast<char>(0x80));
      break;
    }
    case 4: {  // 0xff run: maximal varints, wild deltas
      const size_t pos = rng() % bytes->size();
      const size_t run = 1 + rng() % 16;
      for (size_t i = pos; i < bytes->size() && i < pos + run; ++i) {
        (*bytes)[i] = static_cast<char>(0xff);
      }
      break;
    }
    default: {  // splice: copy one chunk over another
      const size_t len = 1 + rng() % 32;
      const size_t src = rng() % bytes->size();
      const size_t dst = rng() % bytes->size();
      const size_t n = std::min(len, bytes->size() - std::max(src, dst));
      if (n > 0) std::memmove(bytes->data() + dst, bytes->data() + src, n);
      break;
    }
  }
}

TEST(WireFuzzTest, StructuredMutationsNeverCrash) {
  const PayloadCodec codec = RecordWireCodec();
  const std::vector<std::string> seeds = FuzzSeeds(&codec);
  // Capacity 0: every arena is freed (not recycled) the moment its last
  // borrower drops, so ASan sees any use-after-free immediately.
  FrameArenaPool pool(0);
  std::mt19937 rng(20260808);
  constexpr int kIters = 6000;
  for (int iter = 0; iter < kIters; ++iter) {
    std::string mutated = seeds[static_cast<size_t>(iter) % seeds.size()];
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < rounds; ++m) Mutate(rng, &mutated);

    // Alternate between the owning path and the zero-copy arena path; the
    // arena path must copy the bytes into arena storage first (that is the
    // ParseFrame contract the transports uphold).
    std::shared_ptr<FrameArena> arena;
    const char* data = mutated.data();
    if (iter % 2 == 1) {
      arena = pool.Acquire();
      arena->bytes() = mutated;
      data = arena->bytes().data();
    }

    // Parse as a stream until error or exhaustion; any outcome is fine as
    // long as nothing crashes and consumed always advances.
    size_t pos = 0;
    std::vector<Frame> parsed;
    while (pos < mutated.size()) {
      Frame frame;
      size_t consumed = 0;
      std::string error;
      const ParseStatus status = ParseFrame(data + pos, mutated.size() - pos, &codec,
                                            1u << 20, &frame, &consumed, &error, arena);
      if (status != ParseStatus::kFrame) break;
      ASSERT_GT(consumed, 0u);
      pos += consumed;
      parsed.push_back(std::move(frame));
    }
    // Touch every surviving payload after the arena handle is dropped:
    // borrowed token views must keep the arena alive via their aliasing
    // owners, so this is exactly where ASan would catch a lifetime bug.
    arena.reset();
    for (const Frame& frame : parsed) {
      for (const Envelope& env : frame.envelopes) {
        for (size_t f = 0; f < env.tuple.num_fields(); ++f) {
          if (const auto* p =
                  std::get_if<std::shared_ptr<const void>>(&env.tuple.field(f))) {
            if (*p == nullptr) continue;
            const auto* r = static_cast<const Record*>(p->get());
            size_t sum = 0;
            for (const TokenId t : r->tokens) sum += t;
            ASSERT_GE(sum, 0u);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dssj::net
