#include "store/format.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/hash.h"
#include "common/serialize.h"

namespace dssj::store {
namespace {

// "DSST" / "DSSG" little-endian; distinct magics keep a checkpoint file
// from ever parsing as a spill segment (and vice versa) even before the
// checksum runs.
constexpr uint32_t kCheckpointMagic = 0x54535344u;
constexpr uint32_t kSegmentMagic = 0x47535344u;
// Bumped whenever the framing or its checksum function changes, so an image
// written by another version fails on its version, not on its checksum.
constexpr uint16_t kVersion = 2;

namespace fs = std::filesystem;

}  // namespace

void EncodeCheckpointFile(CheckpointKind kind, uint64_t epoch, const std::string& payload,
                          std::string* out) {
  BinaryWriter w(out);
  w.WriteU32(kCheckpointMagic);
  w.WriteU16(kVersion);
  w.WriteU8(static_cast<uint8_t>(kind));
  w.WriteU64(epoch);
  w.WriteU64(Checksum64(payload.data(), payload.size()));
  w.WriteVarint(payload.size());
  out->append(payload);
}

Status DecodeCheckpointFile(const void* data, size_t size, CheckpointKind* kind,
                            uint64_t* epoch, std::string* payload) {
  SafeBinaryReader r(static_cast<const char*>(data), size);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t kind_byte = 0;
  uint64_t ep = 0, checksum = 0;
  if (!r.ReadU32(&magic) || magic != kCheckpointMagic) {
    return Status::InvalidArgument("checkpoint file: bad magic");
  }
  if (!r.ReadU16(&version) || version != kVersion) {
    return Status::InvalidArgument("checkpoint file: unsupported version");
  }
  if (!r.ReadU8(&kind_byte) || kind_byte > 1) {
    return Status::InvalidArgument("checkpoint file: bad kind byte");
  }
  if (!r.ReadU64(&ep) || !r.ReadU64(&checksum)) {
    return Status::InvalidArgument("checkpoint file: truncated header");
  }
  uint64_t len = 0;
  if (!r.ReadVarint(&len) || len != r.remaining()) {
    return Status::InvalidArgument("checkpoint file: length mismatch");
  }
  const char* body = nullptr;
  size_t body_size = 0;
  if (!r.ReadSpan(&body, &body_size, len)) {
    return Status::InvalidArgument("checkpoint file: truncated payload");
  }
  if (Checksum64(body, body_size) != checksum) {
    return Status::InvalidArgument("checkpoint file: checksum mismatch");
  }
  *kind = static_cast<CheckpointKind>(kind_byte);
  *epoch = ep;
  payload->assign(body, body_size);
  return Status::OK();
}

size_t AppendSegmentFrame(const std::string& payload, std::string* out) {
  BinaryWriter w(out);
  w.WriteU32(kSegmentMagic);
  w.WriteU64(Checksum64(payload.data(), payload.size()));
  w.WriteVarint(payload.size());
  out->append(payload);
  return payload.size();
}

Status ReadSegmentFrame(const void* data, size_t size, size_t offset, std::string* payload,
                        size_t* frame_end) {
  if (offset > size) return Status::OutOfRange("segment frame: offset past end");
  const char* base = static_cast<const char*>(data);
  SafeBinaryReader r(base + offset, size - offset);
  uint32_t magic = 0;
  uint64_t checksum = 0, len = 0;
  if (!r.ReadU32(&magic) || magic != kSegmentMagic) {
    return Status::InvalidArgument("segment frame: bad magic");
  }
  if (!r.ReadU64(&checksum) || !r.ReadVarint(&len)) {
    return Status::InvalidArgument("segment frame: truncated header");
  }
  const char* body = nullptr;
  size_t body_size = 0;
  if (!r.ReadSpan(&body, &body_size, len)) {
    return Status::InvalidArgument("segment frame: truncated payload");
  }
  if (Checksum64(body, body_size) != checksum) {
    return Status::InvalidArgument("segment frame: checksum mismatch");
  }
  payload->assign(body, body_size);
  if (frame_end != nullptr) *frame_end = size - r.remaining();
  return Status::OK();
}

std::string BaseFileName(uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "base_%020llu.ckpt", static_cast<unsigned long long>(epoch));
  return buf;
}

std::string DeltaFileName(uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "delta_%020llu.ckpt", static_cast<unsigned long long>(epoch));
  return buf;
}

std::string SegmentFileName(uint32_t segment_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg_%06u.spill", segment_id);
  return buf;
}

bool ParseStoreFileName(const std::string& name, int* kind, uint64_t* id) {
  unsigned long long v = 0;
  char tail = 0;
  if (std::sscanf(name.c_str(), "base_%20llu.ckp%c", &v, &tail) == 2 && tail == 't' &&
      name == BaseFileName(v)) {
    *kind = 0;
    *id = v;
    return true;
  }
  if (std::sscanf(name.c_str(), "delta_%20llu.ckp%c", &v, &tail) == 2 && tail == 't' &&
      name == DeltaFileName(v)) {
    *kind = 1;
    *id = v;
    return true;
  }
  if (std::sscanf(name.c_str(), "seg_%llu.spil%c", &v, &tail) == 2 && tail == 'l' &&
      v <= 0xffffffffull && name == SegmentFileName(static_cast<uint32_t>(v))) {
    *kind = 2;
    *id = v;
    return true;
  }
  return false;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + tmp + " for writing");
  const size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  out->clear();
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return Status::Internal("read error on " + path);
  return Status::OK();
}

Status AppendToFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return Status::Internal("cannot open " + path + " for append");
  const size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    return Status::Internal("short append to " + path);
  }
  return Status::OK();
}

Status ListStoreFiles(const std::string& dir, std::vector<std::string>* names) {
  names->clear();
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) return Status::OK();
    return Status::Internal("cannot list " + dir + ": " + ec.message());
  }
  for (const fs::directory_entry& e : it) {
    int kind = 0;
    uint64_t id = 0;
    const std::string name = e.path().filename().string();
    if (ParseStoreFileName(name, &kind, &id)) names->push_back(name);
  }
  return Status::OK();
}

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

Status RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec) return Status::Internal("cannot remove " + dir + ": " + ec.message());
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::Internal("cannot remove " + path + ": " + ec.message());
  return Status::OK();
}

}  // namespace dssj::store
