#ifndef DSSJ_CORE_RECORD_JOINER_H_
#define DSSJ_CORE_RECORD_JOINER_H_

#include <deque>
#include <functional>
#include <vector>

#include "core/local_joiner.h"
#include "core/posting_index.h"
#include "core/similarity.h"
#include "core/window.h"
#include "store/spill.h"

namespace dssj {

/// Configuration of the record-at-a-time joiner.
struct RecordJoinerOptions {
  /// Apply the PPJoin positional filter during candidate generation.
  bool positional_filter = true;

  /// Apply the PPJoin+ suffix filter before full verification: prune a
  /// candidate when the divide-and-conquer symmetric-difference bound
  /// (depth `suffix_filter_depth`) proves the required overlap is
  /// unreachable. Off by default (the paper's joiner uses prefix +
  /// length + positional filtering); an extension measured in E10.
  bool suffix_filter = false;
  int suffix_filter_depth = 3;

  /// When set, only tokens passing the filter are indexed and probed (the
  /// prefix-token distribution strategy assigns each worker a token
  /// subset). Null means all prefix tokens.
  std::function<bool(TokenId)> token_filter;

  /// When set, a verified pair is emitted only if the smallest common token
  /// of the two records' prefixes passes `token_filter` — the
  /// prefix-distribution dedup rule ensuring each pair is reported by
  /// exactly one worker. Requires token_filter.
  bool dedup_by_min_prefix_token = false;

  /// Memory budget for window + index state, in approximate bytes (see
  /// RecordJoiner's incremental accounting; 0 = unlimited). When storing a
  /// record would exceed the budget, the oldest stored records are evicted
  /// *ahead of* the window policy until it fits — counted as
  /// budget_evictions with the horizon in eviction_horizon_seq.
  size_t max_index_bytes = 0;
};

/// Streaming PPJoin-style joiner: an inverted index over the prefix tokens
/// of stored records; probes scan the probe prefix's posting lists with
/// length and positional filtering, then merge-verify surviving candidates.
/// In the streaming setting probe prefix == index prefix (partners may be
/// shorter or longer), see SimilaritySpec::PrefixLength.
///
/// A record's postings leave the index with it: postings are appended in
/// arrival order, so a record leaving the hot window (eviction or spill)
/// heads each of its lists and is erased from the front. The index holds
/// exactly the hot window's postings; a list that falls empty is freed.
class RecordJoiner : public LocalJoiner {
 public:
  RecordJoiner(const SimilaritySpec& sim, const WindowSpec& window,
               RecordJoinerOptions options = {});

  void Process(const RecordPtr& r, bool store, bool probe, const ResultCallback& cb) override;

  size_t StoredCount() const override { return store_.size() + cold_.size(); }
  size_t MemoryBytes() const override;
  size_t EvictOldest(size_t n) override;
  const JoinerStats& stats() const override { return stats_; }

  /// Checkpointing: the snapshot stores the window's records (in store
  /// order) plus stats; Restore rebuilds the inverted index by re-storing
  /// them, which reproduces posting order — and therefore match order —
  /// exactly. The index holds no dead postings, so the scan and purge
  /// counters of a restored joiner track the live one's too.
  ///
  /// Blobs are tagged: Snapshot writes a self-contained image (cold
  /// records read back and inlined — the migration format), FreezeBase a
  /// tiered base (cold records as spill-segment stubs), FreezeDelta the
  /// dirty suffix since the previous freeze. The window is FIFO — appends
  /// at the back, pops and spills at the front — so "dirty tracking" is
  /// four monotonic counters and a delta is exactly {front pops, appended
  /// records, new cold stubs, stats}.
  bool SupportsSnapshot() const override { return true; }
  void Snapshot(std::string* out) const override;
  void Restore(const std::string& blob) override;
  store::FrozenBlob FreezeBase() override;
  store::FrozenBlob FreezeDelta() override;
  void RestoreDelta(const std::string& blob) override;

  bool SupportsSpill() const override { return true; }
  void AttachSpillStore(store::SpillStore* spill, size_t watermark_bytes) override {
    spill_ = spill;
    spill_watermark_bytes_ = watermark_bytes;
  }

  /// Cold records currently stubbed out to the spill tier.
  size_t ColdCount() const { return cold_.size(); }

 private:
  struct Posting {
    uint64_t local_id;  ///< store slot (base_ + index into store_)
    uint32_t position;  ///< token position within the stored record
    uint32_t size;      ///< stored record's token count, denormalized so the
                        ///< candidate scan length-filters without touching
                        ///< the record store (fits the former padding)
  };

  struct Candidate {
    uint64_t local_id;
    int32_t overlap_in_prefix;  ///< matches seen during prefix scan; -1 = pruned
  };

  /// In-memory remnant of a spilled record: just enough to run the length
  /// and prefix filters (so most probes never touch disk) plus the handle
  /// to read the full record back when a probe survives them. Cold
  /// records are all strictly older than every hot record.
  struct ColdStub {
    uint64_t id = 0;
    uint64_t seq = 0;
    int64_t timestamp = 0;
    uint32_t size = 0;
    std::vector<TokenId> prefix;  ///< indexable prefix tokens (token_filter applied)
    store::SpillHandle handle;
  };

  const RecordPtr& StoredAt(uint64_t local_id) const {
    return store_[static_cast<size_t>(local_id - base_)];
  }

  void Evict(int64_t now);
  void Probe(const Record& r, const ResultCallback& cb);
  void Store(const RecordPtr& r);
  /// Cold-tier probe scan: runs before the hot index probe, oldest stub
  /// first, so emission order is deterministic and restore-stable.
  void ProbeCold(const Record& r, const ResultCallback& cb);
  /// Appends + indexes a record without any eviction/spill side effects
  /// (Store's tail; also the restore and delta-replay primitive).
  void AppendStored(const RecordPtr& r);
  /// Moves the oldest hot record to the spill tier (it stays in the
  /// window as a ColdStub). Returns false when spilling is off, the hot
  /// store is down to one record, or the segment append failed (the
  /// caller falls back to budget eviction).
  bool SpillOldestHot();
  /// Drops the oldest cold stub, releasing its segment frame.
  void PopOldestCold();
  /// Drops the oldest window entry — cold front if any, else hot front.
  void PopOldestOverall();
  /// The record's prefix tokens that pass the token filter (what Store
  /// would index; what ColdStub keeps for candidate filtering).
  std::vector<TokenId> IndexablePrefix(const Record& r) const;
  /// Resets the dirty marks: the next FreezeDelta is relative to now.
  void MarkFrozen();

  static void WriteStubTo(const ColdStub& stub, BinaryWriter* w);
  static ColdStub ReadStubFrom(BinaryReader* r);
  /// Per-record contribution to the incremental byte accounting backing
  /// max_index_bytes: record + tokens + its indexed prefix postings. An
  /// O(1) proxy for MemoryBytes() (which walks everything and includes
  /// container slack); deliberately deterministic so budget evictions
  /// reproduce exactly across Snapshot/Restore.
  size_t ApproxStoredBytes(const Record& r) const;
  /// Removes the oldest stored record, maintaining the byte accounting.
  void PopOldestStored();
  /// Erases the oldest hot record's postings (the head of each of its
  /// lists), freeing lists that fall empty. Runs before it leaves store_.
  void RemoveOldestPostings();

  SimilaritySpec sim_;
  WindowSpec window_;
  RecordJoinerOptions options_;

  // Window of stored records, FIFO. Slot of store_[i] is base_ + i.
  std::deque<RecordPtr> store_;
  uint64_t base_ = 0;
  size_t approx_bytes_ = 0;  ///< Σ ApproxStoredBytes over the *hot* window

  // Cold tier: stubs of spilled records, FIFO and strictly older than
  // every hot record. Monotonic append/pop totals back the delta
  // checkpoints (a delta ships the suffix appended since the last freeze
  // plus the two pop counts).
  store::SpillStore* spill_ = nullptr;
  size_t spill_watermark_bytes_ = 0;
  std::deque<ColdStub> cold_;
  uint64_t cold_appended_total_ = 0;
  uint64_t cold_popped_total_ = 0;

  // Dirty marks: state of the counters at the last freeze (or restore).
  uint64_t frozen_base_ = 0;
  uint64_t frozen_next_id_ = 0;  ///< base_ + store_.size() at the last freeze
  uint64_t frozen_cold_len_ = 0;
  uint64_t frozen_cold_popped_ = 0;

  // Inverted index over prefix tokens, holding exactly the hot window's
  // postings; a list that falls empty is freed.
  PostingIndex<Posting> index_;

  // Scratch for candidate accumulation, reused across probes. Candidates
  // are addressed by store slot (local_id - base_, stable for the duration
  // of one probe): cand_overlap_[slot] is the accumulated prefix overlap,
  // valid only when cand_stamp_[slot] == probe_stamp_. Stamping makes
  // per-probe reset O(1) instead of hashing every posting.
  std::vector<int32_t> cand_overlap_;
  std::vector<uint64_t> cand_stamp_;
  uint64_t probe_stamp_ = 0;
  std::vector<uint64_t> cand_order_;

  // Per-probe cache of MinOverlap(|r|, s) for eligible partner lengths
  // s in [LengthLowerBound, LengthUpperBound]; keeps the permille division
  // out of the posting scan and verification loops.
  std::vector<uint32_t> alpha_cache_;

  JoinerStats stats_;
};

}  // namespace dssj

#endif  // DSSJ_CORE_RECORD_JOINER_H_
