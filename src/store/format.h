// On-disk framing of the tiered state store (docs/INTERNALS.md §13). Three
// file species live in a task's store directory, all carrying the same
// magic + version + Checksum64 + varint-length discipline as the
// stream/migration.cc blobs, so every truncation or bit flip is rejected
// with a clean Status instead of a crash or silent corruption:
//
//   base_<epoch>.ckpt   one checkpoint-file frame; full state image
//   delta_<epoch>.ckpt  one checkpoint-file frame; dirty sets since epoch-1
//   seg_<id>.spill      append-only sequence of segment frames, each one
//                       spilled cold record; readers address frames by
//                       (segment id, byte offset) handles
#ifndef DSSJ_STORE_FORMAT_H_
#define DSSJ_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dssj::store {

/// Checkpoint-file kind byte.
enum class CheckpointKind : uint8_t {
  kBase = 0,
  kDelta = 1,
};

/// Serializes one checkpoint file image: header (magic, version, kind,
/// epoch), Checksum64 of the payload, varint payload length, payload.
void EncodeCheckpointFile(CheckpointKind kind, uint64_t epoch, const std::string& payload,
                          std::string* out);

/// Validates and unwraps a checkpoint file image. Untrusted input is safe:
/// truncated, bit-flipped, wrong-magic or wrong-version bytes are rejected
/// with a descriptive Status; `payload` is filled only on OK.
Status DecodeCheckpointFile(const void* data, size_t size, CheckpointKind* kind,
                            uint64_t* epoch, std::string* payload);

/// Appends one segment frame (magic, checksum, varint length, payload) to
/// `out`, returning the payload length for the caller's handle bookkeeping.
size_t AppendSegmentFrame(const std::string& payload, std::string* out);

/// Reads the segment frame starting at `offset` within a segment file
/// image. On OK fills `payload` and sets `frame_end` to the offset just
/// past the frame (for sequential scans).
Status ReadSegmentFrame(const void* data, size_t size, size_t offset, std::string* payload,
                        size_t* frame_end);

/// File names within a task store directory. Epochs are zero-padded so a
/// lexicographic listing is also epoch-ordered.
std::string BaseFileName(uint64_t epoch);
std::string DeltaFileName(uint64_t epoch);
std::string SegmentFileName(uint32_t segment_id);

/// Parses a store file name; returns false for foreign files. `kind` is 0
/// for base, 1 for delta, 2 for segment; `id` is the epoch or segment id.
bool ParseStoreFileName(const std::string& name, int* kind, uint64_t* id);

/// Whole-file IO. WriteFileAtomic writes to `<path>.tmp` then renames, so
/// a concurrent crash never leaves a half-written file under the final
/// name (torn writes are still detected by the checksums above).
Status WriteFileAtomic(const std::string& path, const std::string& bytes);
Status ReadFileToString(const std::string& path, std::string* out);
/// Appends `bytes` to `path`, creating it if missing.
Status AppendToFile(const std::string& path, const std::string& bytes);

/// Lists the store files in `dir` (file names only, foreign files
/// skipped). Missing directory yields an empty list and OK.
Status ListStoreFiles(const std::string& dir, std::vector<std::string>* names);

/// mkdir -p / rm -rf equivalents used by stores and tests.
Status EnsureDir(const std::string& dir);
Status RemoveTree(const std::string& dir);
Status RemoveFile(const std::string& path);

}  // namespace dssj::store

#endif  // DSSJ_STORE_FORMAT_H_
