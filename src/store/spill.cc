#include "store/spill.h"

#include <algorithm>

#include "common/logging.h"
#include "store/format.h"

namespace dssj::store {

Status SpillStore::Open(const std::string& dir, size_t segment_bytes, GcPolicy gc,
                        std::unique_ptr<SpillStore>* out) {
  DSSJ_RETURN_IF_ERROR(EnsureDir(dir));
  std::unique_ptr<SpillStore> store(new SpillStore(dir, segment_bytes, gc));
  std::vector<uint64_t> ids;
  DSSJ_RETURN_IF_ERROR(ListStoreFiles(dir, StoreFileKind::kSegment, &ids));
  for (const uint64_t id : ids) {
    const uint32_t seg_id = static_cast<uint32_t>(id);
    const std::string path = store->SegmentPath(seg_id);
    std::string bytes;
    DSSJ_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
    // Everything after a torn frame is unreachable (appends are strictly
    // sequential), so the file is truncated to the last intact frame.
    std::vector<Frame> frames;
    const size_t intact = ReadFrames(kSegmentMagic, bytes, &frames);
    if (frames.empty()) {
      DSSJ_RETURN_IF_ERROR(RemoveFile(path));
      continue;
    }
    Segment seg;
    for (const Frame& f : frames) {
      const uint32_t length = static_cast<uint32_t>(f.payload.size());
      seg.unclaimed_frames.push_back({seg_id, f.offset, length});
    }
    seg.unclaimed = frames.size();
    seg.file_bytes = intact;
    if (intact < bytes.size()) {
      bytes.resize(intact);
      DSSJ_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
    }
    seg.sealed = true;  // a new incarnation never appends to inherited segments
    store->segments_.emplace(seg_id, std::move(seg));
  }
  store->active_ = ids.empty() ? 0 : static_cast<uint32_t>(ids.back()) + 1;
  *out = std::move(store);
  return Status::OK();
}

std::string SpillStore::SegmentPath(uint32_t id) const {
  return dir_ + "/" + SegmentFileName(id);
}

Status SpillStore::Append(const std::string& payload, SpillHandle* handle) {
  Segment& seg = segments_[active_];
  if (seg.file_bytes >= segment_bytes_ && seg.file_bytes > 0) {
    seg.sealed = true;
    MaybeRetire(active_, &seg);
    ++active_;
    return Append(payload, handle);
  }
  std::string frame;
  AppendFrame(kSegmentMagic, payload, &frame);
  Segment& active_seg = segments_[active_];
  const uint64_t offset = active_seg.file_bytes;
  DSSJ_RETURN_IF_ERROR(AppendToFile(SegmentPath(active_), frame));
  active_seg.file_bytes += frame.size();
  ++active_seg.live;
  live_bytes_ += payload.size();
  handle->segment = active_;
  handle->offset = offset;
  handle->length = static_cast<uint32_t>(payload.size());
  return Status::OK();
}

Status SpillStore::Read(const SpillHandle& handle, std::string* payload) const {
  auto it = segments_.find(handle.segment);
  if (it == segments_.end()) {
    return Status::NotFound("spill segment missing");
  }
  std::string bytes;
  DSSJ_RETURN_IF_ERROR(ReadFileToString(SegmentPath(handle.segment), &bytes));
  std::string_view view;
  DSSJ_RETURN_IF_ERROR(ReadFrame(kSegmentMagic, bytes.data(), bytes.size(), handle.offset,
                                 &view, /*frame_end=*/nullptr));
  if (view.size() != handle.length) {
    return Status::InvalidArgument("spill frame length disagrees with handle");
  }
  payload->assign(view);
  return Status::OK();
}

void SpillStore::Release(const SpillHandle& handle) {
  auto it = segments_.find(handle.segment);
  if (it == segments_.end()) return;
  Segment& seg = it->second;
  if (seg.live == 0) return;
  --seg.live;
  live_bytes_ -= std::min<uint64_t>(live_bytes_, handle.length);
  MaybeRetire(handle.segment, &seg);
}

void SpillStore::MaybeRetire(uint32_t id, Segment* seg) {
  if (!seg->sealed || seg->live != 0 || seg->unclaimed != 0 || seg->retired_at != 0) return;
  seg->retired_at = retire_seq_++;
  if (gc_ == GcPolicy::kImmediate) {
    const Status st = RemoveFile(SegmentPath(id));
    if (!st.ok()) LOG(WARNING) << "spill gc: " << st.ToString();
    segments_.erase(id);
  }
}

bool SpillStore::Reref(const SpillHandle& handle) {
  auto it = segments_.find(handle.segment);
  if (it == segments_.end()) return false;
  Segment& seg = it->second;
  auto frame = std::find_if(seg.unclaimed_frames.begin(), seg.unclaimed_frames.end(),
                            [&](const SpillHandle& h) {
                              return h.offset == handle.offset && h.length == handle.length;
                            });
  if (frame == seg.unclaimed_frames.end()) return false;
  seg.unclaimed_frames.erase(frame);
  --seg.unclaimed;
  ++seg.live;
  live_bytes_ += handle.length;
  return true;
}

Status SpillStore::PurgeUnclaimed() {
  std::vector<uint32_t> dead;
  for (auto& [id, seg] : segments_) {
    seg.unclaimed = 0;
    seg.unclaimed_frames.clear();
    seg.unclaimed_frames.shrink_to_fit();
    if (seg.sealed && seg.live == 0 && seg.retired_at == 0) {
      seg.retired_at = retire_seq_++;
      dead.push_back(id);
    }
  }
  for (uint32_t id : dead) {
    DSSJ_RETURN_IF_ERROR(RemoveFile(SegmentPath(id)));
    segments_.erase(id);
  }
  return Status::OK();
}

Status SpillStore::DeleteRetiredBefore(uint64_t mark) {
  std::vector<uint32_t> dead;
  for (const auto& [id, seg] : segments_) {
    if (seg.retired_at != 0 && seg.retired_at < mark) dead.push_back(id);
  }
  for (uint32_t id : dead) {
    DSSJ_RETURN_IF_ERROR(RemoveFile(SegmentPath(id)));
    segments_.erase(id);
  }
  return Status::OK();
}

}  // namespace dssj::store
