// The one checksummed frame (docs/INTERNALS.md §13): magic, Checksum64 of
// the payload, varint payload length, payload. It carries checkpoint
// chains, spilled records and migration blobs. The magic names what the
// payload is, so a frame of one kind never parses as another, and every
// truncation or bit flip is rejected with a clean Status instead of a crash
// or silent corruption. Frames carry no version: a chain file never outlives
// the incarnation that wrote it, and a migration blob crosses processes only
// after HELLO has matched net::kWireVersion. Files of the store:
//
//   chain_<epoch>.ckpt  one task's checkpoint chain: a frame naming the base
//                       epoch, a frame holding the base image, then one
//                       frame per delta in epoch order (appended in place)
//   seg_<id>.spill      append-only sequence of segment frames, each one
//                       spilled cold record; readers address frames by
//                       (segment id, byte offset) handles
#ifndef DSSJ_STORE_FORMAT_H_
#define DSSJ_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dssj::store {

/// Frame magics of the store's two file kinds ("DSSC", "DSSG" little-endian).
/// stream/migration.cc frames its blobs with a third.
inline constexpr uint32_t kChainMagic = 0x43535344u;
inline constexpr uint32_t kSegmentMagic = 0x47535344u;

/// Appends one frame (magic, checksum, varint length, payload) to `out`.
void AppendFrame(uint32_t magic, std::string_view payload, std::string* out);

/// Validates the frame starting at `offset` within `data[0, size)`: its
/// magic must be `magic` and its checksum must match before `payload` is
/// set, as a view into `data`. `frame_end`, if not null, is set to the
/// offset just past the frame (for sequential scans).
Status ReadFrame(uint32_t magic, const void* data, size_t size, size_t offset,
                 std::string_view* payload, size_t* frame_end);

/// One intact frame found by ReadFrames.
struct Frame {
  size_t offset = 0;         ///< where the frame starts
  std::string_view payload;  ///< view into the scanned bytes
};

/// Reads frames from the start of `bytes` up to the first one ReadFrame
/// rejects: frames are only ever appended, so nothing after a torn or
/// corrupt frame is reachable. Fills `frames` with the intact ones and
/// returns the length of that intact prefix.
size_t ReadFrames(uint32_t magic, std::string_view bytes, std::vector<Frame>* frames);

/// File names within a store directory. Epochs are zero-padded so a
/// lexicographic listing is also epoch-ordered.
std::string ChainFileName(uint64_t epoch);
std::string SegmentFileName(uint32_t segment_id);

enum class StoreFileKind : uint8_t { kChain, kSegment };

/// Parses a store file name; returns false for foreign files. `id` is the
/// chain's base epoch or the segment id.
bool ParseStoreFileName(const std::string& name, StoreFileKind* kind, uint64_t* id);

/// Whole-file IO. WriteFileAtomic writes to `<path>.tmp` then renames, so
/// a concurrent crash never leaves a half-written file under the final
/// name (torn writes are still detected by the checksums above).
Status WriteFileAtomic(const std::string& path, const std::string& bytes);
Status ReadFileToString(const std::string& path, std::string* out);
/// Appends `bytes` to `path`, creating it if missing.
Status AppendToFile(const std::string& path, const std::string& bytes);

/// Lists the ids of the store files of `kind` in `dir`, ascending. A
/// missing directory yields an empty list and OK.
Status ListStoreFiles(const std::string& dir, StoreFileKind kind, std::vector<uint64_t>* ids);

/// mkdir -p / rm -rf equivalents used by stores and tests.
Status EnsureDir(const std::string& dir);
Status RemoveTree(const std::string& dir);
Status RemoveFile(const std::string& path);

}  // namespace dssj::store

#endif  // DSSJ_STORE_FORMAT_H_
