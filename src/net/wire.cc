#include "net/wire.h"

#include <cstring>
#include <variant>

#include "common/logging.h"
#include "common/serialize.h"

namespace dssj::net {
namespace {

// Per-field tags inside an encoded tuple. Tags 1 and 2 are unassigned, so
// a decoder rejects them like any unknown tag.
constexpr uint8_t kTagInt = 0;
constexpr uint8_t kTagPayload = 3;
constexpr uint8_t kTagNullPayload = 4;

/// Reserves the length prefix, returning the offset to patch once the frame
/// body is complete.
size_t BeginFrame(FrameType type, std::string* out) {
  const size_t len_at = out->size();
  BinaryWriter w(out);
  w.WriteU32(0);  // patched by EndFrame
  w.WriteU8(static_cast<uint8_t>(type));
  return len_at;
}

void EndFrame(size_t len_at, std::string* out) {
  const uint32_t len = static_cast<uint32_t>(out->size() - len_at - sizeof(uint32_t));
  std::memcpy(out->data() + len_at, &len, sizeof(len));
}

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Body decoders. Each gets a reader scoped to exactly the frame body (type
/// byte already consumed) and must consume it fully — trailing bytes are a
/// framing error.
bool ParseHello(SafeBinaryReader& r, Frame* frame, std::string* error) {
  uint32_t magic = 0;
  uint16_t version = 0;
  if (!r.ReadU32(&magic) || !r.ReadU16(&version) || !r.ReadU16(&frame->rank) ||
      !r.ReadU32(&frame->connection)) {
    return SetError(error, "truncated HELLO frame");
  }
  if (magic != kWireMagic) return SetError(error, "bad magic in HELLO (not a dssj peer?)");
  if (version != kWireVersion) {
    return SetError(error, "wire version mismatch: peer " + std::to_string(version) +
                               ", local " + std::to_string(kWireVersion));
  }
  return true;
}

bool ParseData(SafeBinaryReader& r, const PayloadCodec* codec,
               const std::shared_ptr<FrameArena>& arena, Frame* frame, std::string* error) {
  uint8_t codec_byte = 0;
  int32_t source_task = 0;
  uint32_t count = 0;
  {
    uint32_t src_u = 0;
    uint32_t dst_u = 0;
    if (!r.ReadU8(&codec_byte) || !r.ReadU32(&src_u) || !r.ReadU32(&dst_u) ||
        !r.ReadU32(&count)) {
      return SetError(error, "truncated DATA header");
    }
    source_task = static_cast<int32_t>(src_u);
    frame->dst_task = static_cast<int32_t>(dst_u);
  }
  if (codec_byte > static_cast<uint8_t>(WireCodec::kDelta)) {
    return SetError(error, "unknown wire codec " + std::to_string(codec_byte) + " in DATA");
  }
  const WireCodec wire = static_cast<WireCodec>(codec_byte);

  // Cheap per-envelope size floors stop a corrupt count from driving a huge
  // reserve: raw needs link_seq (8) + tuple header (8) per envelope, delta
  // at least one byte each for link_seq / payload_bytes / num_fields.
  const uint64_t floor_per_env = wire == WireCodec::kRaw ? 16 : 3;
  if (static_cast<uint64_t>(count) * floor_per_env > r.remaining()) {
    return SetError(error, "DATA count exceeds frame size");
  }
  frame->envelopes.reserve(count);
  uint64_t prev_seq = 0;
  for (uint32_t i = 0; i < count; ++i) {
    stream::Envelope& env = frame->envelopes.emplace_back();
    env.source_task = source_task;
    if (wire == WireCodec::kRaw) {
      if (!r.ReadU64(&env.link_seq)) return SetError(error, "truncated DATA envelope");
    } else {
      if (i == 0) {
        if (!r.ReadVarint(&env.link_seq)) return SetError(error, "truncated DATA envelope");
      } else {
        int64_t gap = 0;
        if (!r.ReadVarintI64(&gap)) return SetError(error, "truncated DATA envelope");
        env.link_seq = prev_seq + static_cast<uint64_t>(gap);
      }
      prev_seq = env.link_seq;
    }
    if (!DecodeTuple(wire, r, codec, arena, &env.tuple)) {
      return SetError(error, "malformed tuple in DATA");
    }
  }
  return true;
}

bool ParseEos(SafeBinaryReader& r, Frame* frame, std::string* error) {
  uint32_t src_u = 0;
  uint32_t dst_u = 0;
  stream::Envelope env;
  env.eos = true;
  if (!r.ReadU32(&src_u) || !r.ReadU32(&dst_u) || !r.ReadU64(&env.link_seq)) {
    return SetError(error, "truncated EOS frame");
  }
  env.source_task = static_cast<int32_t>(src_u);
  frame->dst_task = static_cast<int32_t>(dst_u);
  frame->envelopes.push_back(std::move(env));
  return true;
}

bool ParseMetrics(SafeBinaryReader& r, Frame* frame, std::string* error) {
  uint32_t task_u = 0;
  if (!r.ReadU32(&task_u) || !r.ReadBytesU32(&frame->blob)) {
    return SetError(error, "truncated METRICS frame");
  }
  frame->task_id = static_cast<int32_t>(task_u);
  return true;
}

bool ParseFail(SafeBinaryReader& r, Frame* frame, std::string* error) {
  if (!r.ReadU16(&frame->rank) || !r.ReadBytesU32(&frame->blob)) {
    return SetError(error, "truncated FAIL frame");
  }
  return true;
}

/// The (migration_id, task_id, rank) triple shared by all four migration
/// control frames.
bool ParseMigrationHeader(SafeBinaryReader& r, Frame* frame, const char* what,
                          std::string* error) {
  uint32_t task_u = 0;
  if (!r.ReadU32(&frame->migration_id) || !r.ReadU32(&task_u) || !r.ReadU16(&frame->rank)) {
    return SetError(error, std::string("truncated ") + what + " frame");
  }
  frame->task_id = static_cast<int32_t>(task_u);
  return true;
}

bool ParseState(SafeBinaryReader& r, Frame* frame, std::string* error) {
  return ParseMigrationHeader(r, frame, "STATE", error) &&
         (r.ReadBytesU32(&frame->blob) || SetError(error, "truncated STATE blob"));
}

}  // namespace

const char* WireCodecName(WireCodec codec) {
  switch (codec) {
    case WireCodec::kRaw:
      return "raw";
    case WireCodec::kDelta:
      return "delta";
  }
  return "?";
}

bool ParseWireCodec(const std::string& name, WireCodec* out) {
  if (name == "raw") {
    *out = WireCodec::kRaw;
  } else if (name == "delta") {
    *out = WireCodec::kDelta;
  } else {
    return false;
  }
  return true;
}

void EncodeTuple(WireCodec wire, const stream::Tuple& tuple, const PayloadCodec* codec,
                 std::string* out) {
  const bool delta = wire == WireCodec::kDelta;
  BinaryWriter w(out);
  if (delta) {
    w.WriteVarint(tuple.payload_bytes());
    w.WriteVarint(tuple.num_fields());
  } else {
    w.WriteU32(static_cast<uint32_t>(tuple.payload_bytes()));
    w.WriteU32(static_cast<uint32_t>(tuple.num_fields()));
  }
  for (size_t i = 0; i < tuple.num_fields(); ++i) {
    const stream::Value& v = tuple.field(i);
    if (const auto* n = std::get_if<int64_t>(&v)) {
      w.WriteU8(kTagInt);
      if (delta) {
        w.WriteVarintI64(*n);
      } else {
        w.WriteI64(*n);
      }
    } else {
      const auto& p = std::get<std::shared_ptr<const void>>(v);
      if (p == nullptr) {
        w.WriteU8(kTagNullPayload);
      } else {
        CHECK(codec != nullptr && codec->encode)
            << "tuple carries an opaque payload but the transport has no payload codec";
        w.WriteU8(kTagPayload);
        if (delta) {
          // Varint length prefix: encode to scratch first (the length is
          // variable width, so no patch-in-place like the raw path).
          thread_local std::string scratch;
          scratch.clear();
          codec->encode(wire, p, &scratch);
          w.WriteVarint(scratch.size());
          out->append(scratch);
        } else {
          const size_t len_at = out->size();
          w.WriteU32(0);  // patched below
          codec->encode(wire, p, out);
          const uint32_t len = static_cast<uint32_t>(out->size() - len_at - sizeof(uint32_t));
          std::memcpy(out->data() + len_at, &len, sizeof(len));
        }
      }
    }
  }
}

bool DecodeTuple(WireCodec wire, SafeBinaryReader& r, const PayloadCodec* codec,
                 const std::shared_ptr<FrameArena>& arena, stream::Tuple* out) {
  const bool delta = wire == WireCodec::kDelta;
  uint64_t payload_bytes = 0;
  uint64_t num_fields = 0;
  if (delta) {
    if (!r.ReadVarint(&payload_bytes) || !r.ReadVarint(&num_fields)) return false;
  } else {
    uint32_t pb = 0, nf = 0;
    if (!r.ReadU32(&pb) || !r.ReadU32(&nf)) return false;
    payload_bytes = pb;
    num_fields = nf;
  }
  // Checked before any field: Tuple::Append CHECKs its bound, and wire
  // bytes must never reach a CHECK.
  if (num_fields > stream::Tuple::kMaxFields) return false;
  // Decodes straight into *out; on failure the caller discards the whole
  // frame, so partial fills never escape.
  stream::Tuple& tuple = *out;
  tuple = stream::Tuple();
  for (uint64_t i = 0; i < num_fields; ++i) {
    uint8_t tag = 0;
    if (!r.ReadU8(&tag)) return false;
    switch (tag) {
      case kTagInt: {
        int64_t n = 0;
        if (delta ? !r.ReadVarintI64(&n) : !r.ReadI64(&n)) return false;
        tuple.Append(n);
        break;
      }
      case kTagPayload: {
        const char* data = nullptr;
        size_t size = 0;
        if (delta) {
          uint64_t len = 0;
          if (!r.ReadVarint(&len) || !r.ReadSpan(&data, &size, len)) return false;
        } else {
          if (!r.ReadSpanU32(&data, &size)) return false;
        }
        if (codec == nullptr || !codec->decode) return false;
        std::shared_ptr<const void> p;
        if (!codec->decode(wire, data, size, arena, &p)) return false;
        tuple.Append(std::move(p));
        break;
      }
      case kTagNullPayload:
        tuple.Append(std::shared_ptr<const void>());
        break;
      default:
        return false;
    }
  }
  tuple.set_payload_bytes(payload_bytes);
  return true;
}

void AppendHelloFrame(uint16_t rank, uint32_t connection, std::string* out) {
  const size_t at = BeginFrame(FrameType::kHello, out);
  BinaryWriter w(out);
  w.WriteU32(kWireMagic);
  w.WriteU16(kWireVersion);
  w.WriteU16(rank);
  w.WriteU32(connection);
  EndFrame(at, out);
}

namespace {

void AppendDataFrameRange(WireCodec wire, int32_t source_task, int32_t dst_task,
                          const stream::Envelope* envs, size_t count,
                          const PayloadCodec* codec, std::string* out) {
  const size_t at = BeginFrame(FrameType::kData, out);
  BinaryWriter w(out);
  w.WriteU8(static_cast<uint8_t>(wire));
  w.WriteU32(static_cast<uint32_t>(source_task));
  w.WriteU32(static_cast<uint32_t>(dst_task));
  w.WriteU32(static_cast<uint32_t>(count));
  // Per envelope a link_seq, then the tuple. delta codes the first link_seq
  // as a plain varint and the rest as zigzag gaps to the previous one.
  uint64_t prev_seq = 0;
  for (size_t i = 0; i < count; ++i) {
    DCHECK(!envs[i].eos) << "EOS markers travel as kEos frames";
    const uint64_t seq = envs[i].link_seq;
    if (wire == WireCodec::kRaw) {
      w.WriteU64(seq);
    } else if (i == 0) {
      w.WriteVarint(seq);
    } else {
      w.WriteVarintI64(static_cast<int64_t>(seq - prev_seq));
    }
    prev_seq = seq;
    EncodeTuple(wire, envs[i].tuple, codec, out);
  }
  EndFrame(at, out);
}

}  // namespace

void AppendDataFrame(WireCodec wire, int32_t source_task, int32_t dst_task,
                     const std::vector<stream::Envelope>& batch, const PayloadCodec* codec,
                     std::string* out) {
  AppendDataFrameRange(wire, source_task, dst_task, batch.data(), batch.size(), codec, out);
}

void AppendEnvelopeFrames(WireCodec wire, int32_t dst_task,
                          const std::vector<stream::Envelope>& envs, const PayloadCodec* codec,
                          std::string* out) {
  size_t i = 0;
  while (i < envs.size()) {
    if (envs[i].eos) {
      AppendEosFrame(envs[i].source_task, dst_task, envs[i].link_seq, out);
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < envs.size() && !envs[j].eos && envs[j].source_task == envs[i].source_task) ++j;
    AppendDataFrameRange(wire, envs[i].source_task, dst_task, &envs[i], j - i, codec, out);
    i = j;
  }
}

void AppendEosFrame(int32_t source_task, int32_t dst_task, uint64_t final_count,
                    std::string* out) {
  const size_t at = BeginFrame(FrameType::kEos, out);
  BinaryWriter w(out);
  w.WriteU32(static_cast<uint32_t>(source_task));
  w.WriteU32(static_cast<uint32_t>(dst_task));
  w.WriteU64(final_count);
  EndFrame(at, out);
}

void AppendMetricsFrame(int32_t task_id, const std::string& blob, std::string* out) {
  const size_t at = BeginFrame(FrameType::kMetrics, out);
  BinaryWriter w(out);
  w.WriteU32(static_cast<uint32_t>(task_id));
  w.WriteBytesU32(blob);
  EndFrame(at, out);
}

void AppendDoneFrame(uint16_t rank, std::string* out) {
  const size_t at = BeginFrame(FrameType::kDone, out);
  BinaryWriter w(out);
  w.WriteU16(rank);
  EndFrame(at, out);
}

void AppendFailFrame(uint16_t rank, const std::string& message, std::string* out) {
  const size_t at = BeginFrame(FrameType::kFail, out);
  BinaryWriter w(out);
  w.WriteU16(rank);
  w.WriteBytesU32(message);
  EndFrame(at, out);
}

namespace {

void AppendMigrationHeader(FrameType type, uint32_t migration_id, int32_t task_id,
                           uint16_t rank, std::string* out, size_t* at) {
  *at = BeginFrame(type, out);
  BinaryWriter w(out);
  w.WriteU32(migration_id);
  w.WriteU32(static_cast<uint32_t>(task_id));
  w.WriteU16(rank);
}

}  // namespace

void AppendPrepareFrame(uint32_t migration_id, int32_t task_id, uint16_t target_rank,
                        std::string* out) {
  size_t at = 0;
  AppendMigrationHeader(FrameType::kPrepare, migration_id, task_id, target_rank, out, &at);
  EndFrame(at, out);
}

void AppendStateFrame(uint32_t migration_id, int32_t task_id, uint16_t target_rank,
                      const std::string& blob, std::string* out) {
  size_t at = 0;
  AppendMigrationHeader(FrameType::kState, migration_id, task_id, target_rank, out, &at);
  BinaryWriter(out).WriteBytesU32(blob);
  EndFrame(at, out);
}

void AppendHandoffFrame(uint32_t migration_id, int32_t task_id, uint16_t new_rank,
                        std::string* out) {
  size_t at = 0;
  AppendMigrationHeader(FrameType::kHandoff, migration_id, task_id, new_rank, out, &at);
  EndFrame(at, out);
}

void AppendAckFrame(uint32_t migration_id, int32_t task_id, uint16_t new_rank,
                    std::string* out) {
  size_t at = 0;
  AppendMigrationHeader(FrameType::kAck, migration_id, task_id, new_rank, out, &at);
  EndFrame(at, out);
}

ParseStatus ParseFrame(const char* data, size_t size, const PayloadCodec* codec,
                       uint32_t max_frame_bytes, Frame* frame, size_t* consumed,
                       std::string* error, const std::shared_ptr<FrameArena>& arena) {
  *consumed = 0;
  if (size < sizeof(uint32_t)) return ParseStatus::kNeedMore;
  uint32_t body_len = 0;
  std::memcpy(&body_len, data, sizeof(body_len));
  if (body_len < 1 || body_len > max_frame_bytes) {
    SetError(error, "frame length " + std::to_string(body_len) + " out of range (max " +
                        std::to_string(max_frame_bytes) + ")");
    return ParseStatus::kError;
  }
  if (size < sizeof(uint32_t) + body_len) return ParseStatus::kNeedMore;

  const char* body = data + sizeof(uint32_t);
  SafeBinaryReader r(body + 1, body_len - 1);
  frame->Clear();
  frame->type = static_cast<FrameType>(static_cast<uint8_t>(body[0]));
  bool ok = false;
  switch (frame->type) {
    case FrameType::kHello:
      ok = ParseHello(r, frame, error);
      break;
    case FrameType::kData:
      ok = ParseData(r, codec, arena, frame, error);
      break;
    case FrameType::kEos:
      ok = ParseEos(r, frame, error);
      break;
    case FrameType::kMetrics:
      ok = ParseMetrics(r, frame, error);
      break;
    case FrameType::kDone:
      ok = r.ReadU16(&frame->rank) || SetError(error, "truncated DONE frame");
      break;
    case FrameType::kFail:
      ok = ParseFail(r, frame, error);
      break;
    case FrameType::kPrepare:
      ok = ParseMigrationHeader(r, frame, "PREPARE", error);
      break;
    case FrameType::kState:
      ok = ParseState(r, frame, error);
      break;
    case FrameType::kHandoff:
      ok = ParseMigrationHeader(r, frame, "HANDOFF", error);
      break;
    case FrameType::kAck:
      ok = ParseMigrationHeader(r, frame, "ACK", error);
      break;
    default:
      SetError(error,
               "unknown frame type " + std::to_string(static_cast<int>(frame->type)));
      return ParseStatus::kError;
  }
  if (!ok) return ParseStatus::kError;
  if (!r.AtEnd()) {
    SetError(error, "trailing bytes inside frame body");
    return ParseStatus::kError;
  }
  *consumed = sizeof(uint32_t) + body_len;
  return ParseStatus::kFrame;
}

}  // namespace dssj::net
