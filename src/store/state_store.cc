#include "store/state_store.h"

#include <cstring>
#include <string_view>

#include "store/format.h"

namespace dssj::store {
namespace {

// Composes the chain image of a base written at `epoch`: the base, then the
// deltas up to the first frame that fails its check. Returns false, leaving
// `out` as it was, when the epoch or base frame is not intact or the image
// names another epoch.
bool ParseChain(std::string_view image, uint64_t epoch, RecoveredChain* out) {
  std::vector<Frame> frames;
  ReadFrames(kChainMagic, image, &frames);
  uint64_t named = 0;
  if (frames.size() < 2 || frames[0].payload.size() != sizeof(named)) return false;
  std::memcpy(&named, frames[0].payload.data(), sizeof(named));
  if (named != epoch) return false;
  out->valid = true;
  out->epoch = epoch + frames.size() - 2;
  out->base.assign(frames[1].payload);
  out->deltas.clear();
  for (size_t i = 2; i < frames.size(); ++i) out->deltas.emplace_back(frames[i].payload);
  return true;
}

}  // namespace

std::string StateStore::ChainPath(uint64_t epoch) const {
  return dir_ + "/" + ChainFileName(epoch);
}

Status StateStore::WriteBase(uint64_t epoch, const std::string& payload) {
  char epoch_bytes[sizeof(epoch)];
  std::memcpy(epoch_bytes, &epoch, sizeof(epoch));
  std::string image;
  AppendFrame(kChainMagic, std::string_view(epoch_bytes, sizeof(epoch_bytes)), &image);
  AppendFrame(kChainMagic, payload, &image);
  if (dir_.empty()) {
    memory_ = std::move(image);
  } else {
    DSSJ_RETURN_IF_ERROR(EnsureDir(dir_));
    DSSJ_RETURN_IF_ERROR(WriteFileAtomic(ChainPath(epoch), image));
    // The previous chain can no longer take part in any recovery.
    if (has_chain_ && base_epoch_ != epoch) {
      DSSJ_RETURN_IF_ERROR(RemoveFile(ChainPath(base_epoch_)));
    }
  }
  has_chain_ = true;
  base_epoch_ = epoch;
  next_epoch_ = epoch + 1;
  return Status::OK();
}

Status StateStore::WriteDelta(uint64_t epoch, const std::string& payload) {
  if (!has_chain_ || epoch != next_epoch_) {
    return Status::FailedPrecondition("delta epoch " + std::to_string(epoch) +
                                      " does not extend the chain");
  }
  if (dir_.empty()) {
    AppendFrame(kChainMagic, payload, &memory_);
  } else {
    std::string frame;
    AppendFrame(kChainMagic, payload, &frame);
    DSSJ_RETURN_IF_ERROR(AppendToFile(ChainPath(base_epoch_), frame));
  }
  ++next_epoch_;
  return Status::OK();
}

Status StateStore::Recover(RecoveredChain* out) const {
  *out = RecoveredChain{};
  if (dir_.empty()) {
    ParseChain(memory_, base_epoch_, out);
    return Status::OK();
  }
  std::vector<uint64_t> epochs;
  DSSJ_RETURN_IF_ERROR(ListStoreFiles(dir_, StoreFileKind::kChain, &epochs));
  for (size_t i = epochs.size(); i-- > 0;) {
    std::string image;
    if (ReadFileToString(ChainPath(epochs[i]), &image).ok() &&
        ParseChain(image, epochs[i], out)) {
      break;
    }
  }
  return Status::OK();
}

Status StateStore::Truncate() {
  has_chain_ = false;
  memory_ = std::string();
  if (dir_.empty()) return Status::OK();
  std::vector<uint64_t> epochs;
  DSSJ_RETURN_IF_ERROR(ListStoreFiles(dir_, StoreFileKind::kChain, &epochs));
  for (const uint64_t epoch : epochs) DSSJ_RETURN_IF_ERROR(RemoveFile(ChainPath(epoch)));
  return Status::OK();
}

}  // namespace dssj::store
