#include "store/format.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/hash.h"
#include "common/serialize.h"

namespace dssj::store {

namespace fs = std::filesystem;

void AppendFrame(uint32_t magic, std::string_view payload, std::string* out) {
  BinaryWriter w(out);
  w.WriteU32(magic);
  w.WriteU64(Checksum64(payload.data(), payload.size()));
  w.WriteVarint(payload.size());
  out->append(payload);
}

Status ReadFrame(uint32_t magic, const void* data, size_t size, size_t offset,
                 std::string_view* payload, size_t* frame_end) {
  if (offset > size) return Status::OutOfRange("frame: offset past end");
  const char* base = static_cast<const char*>(data);
  SafeBinaryReader r(base + offset, size - offset);
  uint32_t got_magic = 0;
  uint64_t checksum = 0, len = 0;
  if (!r.ReadU32(&got_magic) || got_magic != magic) {
    return Status::InvalidArgument("frame: bad magic");
  }
  if (!r.ReadU64(&checksum) || !r.ReadVarint(&len)) {
    return Status::InvalidArgument("frame: truncated header");
  }
  const char* body = nullptr;
  size_t body_size = 0;
  if (!r.ReadSpan(&body, &body_size, len)) {
    return Status::InvalidArgument("frame: truncated payload");
  }
  if (Checksum64(body, body_size) != checksum) {
    return Status::InvalidArgument("frame: checksum mismatch");
  }
  *payload = std::string_view(body, body_size);
  if (frame_end != nullptr) *frame_end = size - r.remaining();
  return Status::OK();
}

size_t ReadFrames(uint32_t magic, std::string_view bytes, std::vector<Frame>* frames) {
  frames->clear();
  size_t offset = 0;
  while (offset < bytes.size()) {
    Frame frame{offset, {}};
    if (!ReadFrame(magic, bytes.data(), bytes.size(), offset, &frame.payload, &offset).ok()) {
      break;
    }
    frames->push_back(frame);
  }
  return offset;
}

std::string ChainFileName(uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "chain_%020llu.ckpt", static_cast<unsigned long long>(epoch));
  return buf;
}

std::string SegmentFileName(uint32_t segment_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg_%06u.spill", segment_id);
  return buf;
}

bool ParseStoreFileName(const std::string& name, StoreFileKind* kind, uint64_t* id) {
  unsigned long long v = 0;
  char tail = 0;
  if (std::sscanf(name.c_str(), "chain_%20llu.ckp%c", &v, &tail) == 2 && tail == 't' &&
      name == ChainFileName(v)) {
    *kind = StoreFileKind::kChain;
    *id = v;
    return true;
  }
  if (std::sscanf(name.c_str(), "seg_%llu.spil%c", &v, &tail) == 2 && tail == 'l' &&
      v <= 0xffffffffull && name == SegmentFileName(static_cast<uint32_t>(v))) {
    *kind = StoreFileKind::kSegment;
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

Status ListStoreFiles(const std::string& dir, StoreFileKind kind, std::vector<uint64_t>* ids) {
  ids->clear();
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) return Status::OK();
    return Status::Internal("cannot list " + dir + ": " + ec.message());
  }
  for (const fs::directory_entry& e : it) {
    StoreFileKind got = StoreFileKind::kChain;
    uint64_t id = 0;
    if (ParseStoreFileName(e.path().filename().string(), &got, &id) && got == kind) {
      ids->push_back(id);
    }
  }
  std::sort(ids->begin(), ids->end());
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
