#include "stream/migration.h"

#include "common/serialize.h"
#include "store/format.h"

namespace dssj::stream {

namespace {

constexpr uint32_t kMigrationMagic = 0x4247494d;  // "MIGB"

}  // namespace

void EncodeMigrationState(const MigrationState& state, std::string* out) {
  std::string payload;
  {
    BinaryWriter w(&payload);
    w.WriteU32(state.task_id);
    w.WriteU64(state.executed_total);
    w.WriteVarint(state.remaining_eos);
    w.WriteU8(state.has_bolt_state ? 1 : 0);
    w.WriteBytes(state.bolt_state);
    w.WriteVarint(state.rr.size());
    for (const uint64_t v : state.rr) w.WriteVarint(v);
    w.WriteVarint(state.emitted.size());
    for (const auto& [task, seq] : state.emitted) {
      w.WriteVarint(task);
      w.WriteVarint(seq);
    }
    w.WriteVarint(state.next_seq.size());
    for (const auto& [task, seq] : state.next_seq) {
      w.WriteVarint(task);
      w.WriteVarint(seq);
    }
  }
  store::AppendFrame(kMigrationMagic, payload, out);
}

Status DecodeMigrationState(const void* data, size_t size, MigrationState* out) {
  // The frame's checksum covers the whole payload, so a single flipped bit
  // anywhere is rejected here rather than surfacing as a silently
  // different state.
  std::string_view payload;
  size_t frame_end = 0;
  const Status framed = store::ReadFrame(kMigrationMagic, data, size, 0, &payload, &frame_end);
  if (!framed.ok()) return Status::InvalidArgument("migration blob: " + framed.message());
  if (frame_end != size) return Status::InvalidArgument("migration blob: trailing bytes");
  SafeBinaryReader r(payload.data(), payload.size());
  MigrationState s;
  uint64_t remaining_eos = 0;
  uint8_t has_state = 0;
  if (!r.ReadU32(&s.task_id) || !r.ReadU64(&s.executed_total) || !r.ReadVarint(&remaining_eos) ||
      !r.ReadU8(&has_state)) {
    return Status::InvalidArgument("migration blob: truncated body");
  }
  if (remaining_eos > 0xFFFFFFFFull || has_state > 1) {
    return Status::InvalidArgument("migration blob: field out of range");
  }
  s.remaining_eos = static_cast<uint32_t>(remaining_eos);
  s.has_bolt_state = has_state == 1;
  uint64_t blob_len = 0;
  const char* blob = nullptr;
  size_t blob_size = 0;
  if (!r.ReadU64(&blob_len) || !r.ReadSpan(&blob, &blob_size, blob_len)) {
    return Status::InvalidArgument("migration blob: truncated bolt state");
  }
  s.bolt_state.assign(blob, blob_size);
  uint64_t n = 0;
  if (!r.ReadVarint(&n) || n > r.remaining()) {
    return Status::InvalidArgument("migration blob: bad rr count");
  }
  s.rr.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    if (!r.ReadVarint(&v)) return Status::InvalidArgument("migration blob: truncated rr");
    s.rr.push_back(v);
  }
  for (std::vector<std::pair<uint32_t, uint64_t>>* vec : {&s.emitted, &s.next_seq}) {
    if (!r.ReadVarint(&n) || n > r.remaining()) {
      return Status::InvalidArgument("migration blob: bad link count");
    }
    vec->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t task = 0, seq = 0;
      if (!r.ReadVarint(&task) || !r.ReadVarint(&seq) || task > 0x7FFFFFFFull) {
        return Status::InvalidArgument("migration blob: truncated link entry");
      }
      vec->emplace_back(static_cast<uint32_t>(task), seq);
    }
  }
  if (!r.AtEnd()) return Status::InvalidArgument("migration blob: trailing bytes");
  *out = std::move(s);
  return Status::OK();
}

}  // namespace dssj::stream
