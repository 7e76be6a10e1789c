#ifndef DSSJ_NET_WIRE_H_
#define DSSJ_NET_WIRE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "net/frame_arena.h"
#include "stream/channel.h"
#include "stream/value.h"

namespace dssj::net {

/// Wire format for inter-worker links: length-prefixed frames over a byte
/// stream. Every frame is
///
///   [u32 length][u8 type][body...]
///
/// where `length` counts the bytes after itself (type + body). All fixed-
/// width integers are little endian; `vu` below denotes a canonical LEB128
/// varint and `vz` a zigzag-mapped varint (see SafeBinaryReader::ReadVarint
/// for the canonicality rule). The body layout per type:
///
///   kHello:   u32 magic, u16 version, u16 sender rank, u32 connection
///             index (0 for the sender's first connection to this peer, +1
///             per redial). First frame on every connection; both sides
///             reject a mismatched magic/version, and the receiver delivers
///             a rank's connections in index order.
///   kData:    i32 source_task, i32 dst_task, u32 count, then count x
///             [link_seq: first vu, then vz of the gap to the previous
///             envelope][tuple] (see EncodeTuple).
///   kEos:     i32 source_task, i32 dst_task, u64 final link count
///             (Envelope::link_seq semantics for EOS markers).
///   kMetrics: i32 task_id, u32-length-prefixed SerializeTaskCounters blob,
///             laid out by DSSJ_TASK_COUNTERS (stream/metrics.h): editing
///             that list bumps kWireVersion.
///   kDone:    u16 sender rank. Worker's end-of-run marker: everything this
///             rank will ever send has been sent.
///   kFail:    u16 sender rank, u32-length-prefixed failure message.
///
/// Live-migration control plane (coordinator-driven; see
/// docs/INTERNALS.md §12):
///
///   kPrepare: u32 migration_id, i32 task_id, u16 target rank. Coordinator →
///             source rank: freeze `task_id` at its next sequence boundary
///             and ship its state. Rides the same connection as the task's
///             data frames, so FIFO ordering makes everything before it the
///             exact in-flight gap.
///   kState:   u32 migration_id, i32 task_id, u16 target rank, then the
///             u32-length-prefixed encoded MigrationState blob
///             (stream/migration.h).
///   kHandoff: u32 migration_id, i32 task_id, u16 new owner rank. Target →
///             coordinator: state restored, executor running.
///   kAck:     u32 migration_id, i32 task_id, u16 new owner rank.
///             Coordinator → source: routing flipped; decommission the
///             frozen incarnation. Duplicate ACKs (reconnect replays) are
///             idempotent by migration_id.
///
/// Sequence numbers ride inside kData/kEos bodies, so replay, drop recovery
/// and shed-loss accounting observe exactly the numbers the producer's
/// collector assigned — process boundaries are invisible to them.
enum class FrameType : uint8_t {
  kHello = 1,
  kData = 2,
  kEos = 3,
  kMetrics = 4,
  kDone = 5,
  kFail = 6,
  kPrepare = 7,
  kState = 8,
  kHandoff = 9,
  kAck = 10,
};

inline constexpr uint32_t kWireMagic = 0x314a5344;  // "DSJ1"
inline constexpr uint16_t kWireVersion = 7;

/// Hard ceiling on a single frame's `length` field. A peer announcing more
/// is malformed (or malicious) and the connection is failed rather than
/// letting it drive allocation.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

/// Application codec for opaque tuple payloads (shared_ptr<const void>
/// fields). The stream layer treats payloads as pointers; to cross a process
/// boundary the application supplies the byte encoding (the join topology
/// registers a Record codec).
///
/// encode appends to *out; decode returns false on malformed bytes.
///
/// decode additionally receives the frame arena (may be null). When
/// non-null, `data` points into arena-owned storage and the codec may
/// return a *borrowed* payload — views into arena allocations — wrapped in
/// an aliasing shared_ptr that owns the arena, so the backing memory
/// outlives every handed-out pointer. When null, the payload must own all
/// its storage.
struct PayloadCodec {
  std::function<void(const std::shared_ptr<const void>& payload, std::string* out)> encode;
  std::function<bool(const char* data, size_t size, const std::shared_ptr<FrameArena>& arena,
                     std::shared_ptr<const void>* out)>
      decode;
};

/// Appends one tuple's field encoding (used inside kData bodies): vu
/// payload_bytes, vu num_fields, then per field a u8 tag — 0 int64 (vz),
/// 3 payload via codec (vu len + bytes), 4 null payload. Requires a codec
/// when the tuple carries a non-null payload field (CHECK otherwise).
void EncodeTuple(const stream::Tuple& tuple, const PayloadCodec* codec, std::string* out);

/// Decodes one EncodeTuple blob from `r`'s current position. Returns false
/// on more than Tuple::kMaxFields fields (before decoding any), truncation,
/// unknown tags, non-canonical varints, or codec failure.
/// `arena` is forwarded to the payload codec (see PayloadCodec).
bool DecodeTuple(SafeBinaryReader& r, const PayloadCodec* codec,
                 const std::shared_ptr<FrameArena>& arena, stream::Tuple* out);

/// Frame builders. Each appends one complete frame (length prefix included)
/// to *out, so a send buffer concatenates frames directly.
void AppendHelloFrame(uint16_t rank, uint32_t connection, std::string* out);
void AppendDataFrame(int32_t source_task, int32_t dst_task,
                     const std::vector<stream::Envelope>& batch, const PayloadCodec* codec,
                     std::string* out);

/// Inert: there is one tuple coding. perfbench/probes.cc still encodes its
/// wire probe through this overload (and perfbench/workloads.cc sets
/// DistributedJoinOptions::wire_codec); the benchmark change that next
/// edits those lines removes both names.
enum class WireCodec : uint8_t { kDelta };
inline void AppendDataFrame(WireCodec, int32_t source_task, int32_t dst_task,
                            const std::vector<stream::Envelope>& batch,
                            const PayloadCodec* codec, std::string* out) {
  AppendDataFrame(source_task, dst_task, batch, codec, out);
}
void AppendEosFrame(int32_t source_task, int32_t dst_task, uint64_t final_count,
                    std::string* out);

/// Encodes a mixed envelope batch bound for `dst_task` as a frame sequence:
/// maximal runs of data envelopes sharing a source task become one kData
/// frame, each EOS marker becomes a kEos frame in position. This is what a
/// channel submits per PushBatch.
void AppendEnvelopeFrames(int32_t dst_task, const std::vector<stream::Envelope>& envs,
                          const PayloadCodec* codec, std::string* out);
void AppendMetricsFrame(int32_t task_id, const std::string& blob, std::string* out);
void AppendDoneFrame(uint16_t rank, std::string* out);
void AppendFailFrame(uint16_t rank, const std::string& message, std::string* out);

/// Migration control frames. kState carries `blob` (an encoded
/// MigrationState) verbatim; the other three carry only the
/// (migration_id, task_id, worker) triple.
void AppendPrepareFrame(uint32_t migration_id, int32_t task_id, uint16_t target_rank,
                        std::string* out);
void AppendStateFrame(uint32_t migration_id, int32_t task_id, uint16_t target_rank,
                      const std::string& blob, std::string* out);
void AppendHandoffFrame(uint32_t migration_id, int32_t task_id, uint16_t new_rank,
                        std::string* out);
void AppendAckFrame(uint32_t migration_id, int32_t task_id, uint16_t new_rank,
                    std::string* out);

/// One parsed frame. kData populates `envelopes` (source_task/link_seq set
/// per envelope, eos=false); kEos populates a single EOS envelope.
struct Frame {
  FrameType type = FrameType::kHello;
  uint16_t rank = 0;             ///< kHello / kDone / kFail / migration worker
  uint32_t connection = 0;       ///< kHello: the sender's connection index
  int32_t dst_task = -1;         ///< kData / kEos
  int32_t task_id = -1;          ///< kMetrics / kPrepare / kState / kHandoff / kAck
  uint32_t migration_id = 0;     ///< kPrepare / kState / kHandoff / kAck
  std::string blob;              ///< kMetrics blob / kFail message / kState state
  std::vector<stream::Envelope> envelopes;  ///< kData / kEos

  /// Resets to the default-constructed state but keeps the envelope vector's
  /// and blob's capacity, so a Frame reused across a parse loop stops
  /// allocating after the first full-sized kData frame.
  void Clear() {
    type = FrameType::kHello;
    rank = 0;
    connection = 0;
    dst_task = -1;
    task_id = -1;
    migration_id = 0;
    blob.clear();
    envelopes.clear();
  }
};

enum class ParseStatus {
  kFrame,     ///< one frame decoded; *consumed bytes were used
  kNeedMore,  ///< buffer holds only a frame prefix; read more bytes
  kError,     ///< malformed input; the connection must be failed
};

/// Incremental frame parser over a receive buffer. Examines `size` bytes at
/// `data`; on kFrame sets *consumed to the full frame size (prefix
/// included) and fills *frame. Rejects frames whose announced length
/// exceeds max_frame_bytes, unknown types, truncated bodies,
/// non-canonical varints, non-monotone token deltas, trailing garbage
/// inside a body, and kHello magic/version mismatches (*error gets a
/// description on kError).
///
/// Zero-copy contract: when `arena` is non-null, `data` MUST point into
/// storage owned by that arena (the transport copies or encodes each
/// complete frame into arena->bytes() before parsing). Decoded payloads may
/// then borrow arena allocations, pinned by aliasing shared_ptrs that own
/// the arena. With a null arena every decoded payload owns its storage and
/// `data` may be any transient buffer.
ParseStatus ParseFrame(const char* data, size_t size, const PayloadCodec* codec,
                       uint32_t max_frame_bytes, Frame* frame, size_t* consumed,
                       std::string* error,
                       const std::shared_ptr<FrameArena>& arena = nullptr);

}  // namespace dssj::net

#endif  // DSSJ_NET_WIRE_H_
