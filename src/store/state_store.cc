#include "store/state_store.h"

#include <algorithm>

#include "store/format.h"

namespace dssj::store {
namespace {

using Entry = StateStore::Entry;

// Epoch-ascending, bases before deltas at equal epoch (though the writer
// never produces both for one epoch).
bool EntryBefore(const Entry& a, const Entry& b) {
  if (a.epoch != b.epoch) return a.epoch < b.epoch;
  return a.kind < b.kind;
}

std::string EntryPath(const std::string& dir, const Entry& entry) {
  return dir + "/" + (entry.kind == 0 ? BaseFileName(entry.epoch) : DeltaFileName(entry.epoch));
}

// Checkpoint files in the directory, in chain order.
Status ListCheckpoints(const std::string& dir, std::vector<Entry>* out) {
  std::vector<std::string> names;
  DSSJ_RETURN_IF_ERROR(ListStoreFiles(dir, &names));
  out->clear();
  for (const std::string& name : names) {
    int kind = 0;
    uint64_t id = 0;
    if (!ParseStoreFileName(name, &kind, &id) || kind > 1) continue;
    out->push_back({kind, id, {}});
  }
  std::sort(out->begin(), out->end(), EntryBefore);
  return Status::OK();
}

// Reads + validates one checkpoint file. Any corruption (torn write, bit
// flip, foreign bytes) comes back as a non-OK Status, never a crash.
Status LoadCheckpoint(const std::string& dir, const Entry& entry, std::string* payload) {
  std::string bytes;
  DSSJ_RETURN_IF_ERROR(ReadFileToString(EntryPath(dir, entry), &bytes));
  CheckpointKind kind = CheckpointKind::kBase;
  uint64_t epoch = 0;
  DSSJ_RETURN_IF_ERROR(DecodeCheckpointFile(bytes.data(), bytes.size(), &kind, &epoch, payload));
  const CheckpointKind want = entry.kind == 0 ? CheckpointKind::kBase : CheckpointKind::kDelta;
  if (kind != want || epoch != entry.epoch) {
    return Status::InvalidArgument("checkpoint file header disagrees with file name");
  }
  return Status::OK();
}

// The composition rule of both chain kinds. Try bases newest-first; extend
// the first intact one with the contiguous run of intact deltas at epochs
// base+1, base+2, ... — the first gap or corrupt delta ends the chain
// (later deltas would skip state and are unusable). `load(entry, &payload)`
// returns false for an entry that cannot be read intact.
template <typename Load>
void Compose(const std::vector<Entry>& entries, const Load& load, RecoveredChain* out) {
  *out = RecoveredChain{};
  for (size_t b = entries.size(); b-- > 0;) {
    std::string base;
    if (entries[b].kind != 0 || !load(entries[b], &base)) continue;
    out->valid = true;
    out->epoch = entries[b].epoch;
    out->base = std::move(base);
    for (size_t d = b + 1; d < entries.size(); ++d) {
      std::string delta;
      if (entries[d].kind != 1 || entries[d].epoch != out->epoch + 1 ||
          !load(entries[d], &delta)) {
        break;
      }
      out->deltas.push_back(std::move(delta));
      ++out->epoch;
    }
    return;
  }
}

// Adds `entry` to an in-memory chain, replacing a checkpoint of the same
// kind and epoch the way a file rename would.
void Put(std::vector<Entry>* chain, Entry entry) {
  const auto it = std::lower_bound(chain->begin(), chain->end(), entry, EntryBefore);
  if (it != chain->end() && it->epoch == entry.epoch && it->kind == entry.kind) {
    *it = std::move(entry);
  } else {
    chain->insert(it, std::move(entry));
  }
}

}  // namespace

Status StateStore::WriteBase(uint64_t epoch, const std::string& payload) {
  // Everything older than this base is unreachable by any recovery
  // composition; reclaim it now so the chain stays O(interval) entries.
  const auto older = [epoch](const Entry& e) { return e.epoch < epoch; };
  if (dir_.empty()) {
    Put(&memory_, {0, epoch, payload});
    std::erase_if(memory_, older);
    return Status::OK();
  }
  DSSJ_RETURN_IF_ERROR(EnsureDir(dir_));
  std::string image;
  EncodeCheckpointFile(CheckpointKind::kBase, epoch, payload, &image);
  DSSJ_RETURN_IF_ERROR(WriteFileAtomic(dir_ + "/" + BaseFileName(epoch), image));
  std::vector<Entry> files;
  DSSJ_RETURN_IF_ERROR(ListCheckpoints(dir_, &files));
  for (const Entry& f : files) {
    if (older(f)) DSSJ_RETURN_IF_ERROR(RemoveFile(EntryPath(dir_, f)));
  }
  return Status::OK();
}

Status StateStore::WriteDelta(uint64_t epoch, const std::string& payload) {
  if (dir_.empty()) {
    Put(&memory_, {1, epoch, payload});
    return Status::OK();
  }
  DSSJ_RETURN_IF_ERROR(EnsureDir(dir_));
  std::string image;
  EncodeCheckpointFile(CheckpointKind::kDelta, epoch, payload, &image);
  return WriteFileAtomic(dir_ + "/" + DeltaFileName(epoch), image);
}

Status StateStore::Recover(RecoveredChain* out) const {
  if (dir_.empty()) {
    Compose(
        memory_,
        [](const Entry& e, std::string* payload) {
          *payload = e.payload;
          return true;
        },
        out);
    return Status::OK();
  }
  std::vector<Entry> files;
  *out = RecoveredChain{};
  DSSJ_RETURN_IF_ERROR(ListCheckpoints(dir_, &files));
  Compose(
      files,
      [this](const Entry& e, std::string* payload) {
        return LoadCheckpoint(dir_, e, payload).ok();
      },
      out);
  return Status::OK();
}

Status StateStore::Truncate() {
  memory_.clear();
  if (dir_.empty()) return Status::OK();
  std::vector<Entry> files;
  DSSJ_RETURN_IF_ERROR(ListCheckpoints(dir_, &files));
  for (const Entry& f : files) {
    DSSJ_RETURN_IF_ERROR(RemoveFile(EntryPath(dir_, f)));
  }
  return Status::OK();
}

}  // namespace dssj::store
