#include "core/record_joiner.h"

#include <algorithm>

#include "common/logging.h"

namespace dssj {

RecordJoiner::RecordJoiner(const SimilaritySpec& sim, const WindowSpec& window,
                           RecordJoinerOptions options)
    : sim_(sim), window_(window), options_(std::move(options)) {
  if (options_.dedup_by_min_prefix_token) {
    CHECK(options_.token_filter != nullptr)
        << "dedup_by_min_prefix_token requires a token_filter";
  }
  // The positional filter's upper bound assumes the accumulated count covers
  // *every* common token in the scanned prefix region. Under a token filter
  // unowned common tokens are invisible, the count undercounts, and the
  // bound would prune true pairs — so the filter must be off.
  if (options_.token_filter != nullptr) options_.positional_filter = false;
}

size_t RecordJoiner::ApproxStoredBytes(const Record& r) const {
  return sizeof(Record) + sizeof(RecordPtr) + r.tokens.size() * sizeof(TokenId) +
         sim_.PrefixLength(r.size()) * sizeof(Posting);
}

void RecordJoiner::RemoveOldestPostings() {
  // Postings are appended in slot order and the oldest record leaves
  // first, so its posting heads each of its lists.
  const Record& r = *store_.front();
  const size_t prefix_len = sim_.PrefixLength(r.size());
  for (size_t i = 0; i < prefix_len; ++i) {
    const TokenId w = r.tokens[i];
    if (options_.token_filter != nullptr && !options_.token_filter(w)) continue;
    const Posting head = index_.EraseFront(w);
    CHECK(head.local_id == base_) << "slot " << base_ << " does not head its posting list";
    ++stats_.dead_postings_purged;
  }
}

void RecordJoiner::PopOldestStored() {
  approx_bytes_ -= ApproxStoredBytes(*store_.front());
  RemoveOldestPostings();
  store_.pop_front();
  ++base_;
  ++stats_.evictions;
}

void RecordJoiner::PopOldestCold() {
  if (spill_ != nullptr) spill_->Release(cold_.front().handle);
  cold_.pop_front();
  ++cold_popped_total_;
  ++stats_.evictions;
}

void RecordJoiner::PopOldestOverall() {
  if (!cold_.empty()) {
    PopOldestCold();
  } else {
    PopOldestStored();
  }
}

void RecordJoiner::Evict(int64_t now) {
  if (window_.kind != WindowSpec::Kind::kTime) return;
  // Cold stubs are strictly older than every hot record, so if the cold
  // front survives, the hot loop is a no-op.
  while (!cold_.empty() && window_.ExpiredByTime(cold_.front().timestamp, now)) {
    PopOldestCold();
  }
  while (!store_.empty() && window_.ExpiredByTime(store_.front()->timestamp, now)) {
    PopOldestStored();
  }
}

size_t RecordJoiner::EvictOldest(size_t n) {
  size_t evicted = 0;
  while (evicted < n && StoredCount() > 1) {
    if (!cold_.empty()) {
      stats_.eviction_horizon_seq = std::max(stats_.eviction_horizon_seq, cold_.front().seq);
      PopOldestCold();
    } else {
      stats_.eviction_horizon_seq = std::max(stats_.eviction_horizon_seq, store_.front()->seq);
      PopOldestStored();
    }
    ++stats_.budget_evictions;
    ++evicted;
  }
  return evicted;
}

std::vector<TokenId> RecordJoiner::IndexablePrefix(const Record& r) const {
  const size_t prefix_len = sim_.PrefixLength(r.size());
  std::vector<TokenId> prefix;
  prefix.reserve(prefix_len);
  for (size_t i = 0; i < prefix_len; ++i) {
    const TokenId w = r.tokens[i];
    if (options_.token_filter != nullptr && !options_.token_filter(w)) continue;
    prefix.push_back(w);
  }
  return prefix;
}

bool RecordJoiner::SpillOldestHot() {
  if (spill_ == nullptr || store_.size() <= 1) return false;
  const RecordPtr r = store_.front();
  std::string payload;
  BinaryWriter w(&payload);
  WriteRecordTo(*r, &w);
  store::SpillHandle handle;
  if (!spill_->Append(payload, &handle).ok()) return false;
  ColdStub stub;
  stub.id = r->id;
  stub.seq = r->seq;
  stub.timestamp = r->timestamp;
  stub.size = static_cast<uint32_t>(r->size());
  stub.prefix = IndexablePrefix(*r);
  stub.handle = handle;
  cold_.push_back(std::move(stub));
  ++cold_appended_total_;
  ++stats_.spilled_records;
  stats_.spilled_bytes += payload.size();
  // Leaves the window (it is still *in* the window, just cold), so no
  // eviction is counted and the horizon does not move.
  approx_bytes_ -= ApproxStoredBytes(*r);
  RemoveOldestPostings();
  store_.pop_front();
  ++base_;
  return true;
}

namespace {

/// Smallest token common to both records' streaming prefixes, or
/// TokenDictionary-style "no token" when the prefixes are disjoint. For a
/// pair that satisfies the similarity predicate the prefixes always
/// intersect (prefix filtering principle), so callers may treat the
/// no-token case as "do not emit".
constexpr TokenId kNoCommonToken = ~static_cast<TokenId>(0);

TokenId MinCommonPrefixToken(const SimilaritySpec& sim, const Record& a, const Record& b) {
  const size_t pa = sim.PrefixLength(a.size());
  const size_t pb = sim.PrefixLength(b.size());
  size_t i = 0, j = 0;
  while (i < pa && j < pb) {
    if (a.tokens[i] == b.tokens[j]) return a.tokens[i];
    if (a.tokens[i] < b.tokens[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return kNoCommonToken;
}

}  // namespace

void RecordJoiner::ProbeCold(const Record& r, const ResultCallback& cb) {
  if (cold_.empty()) return;
  const size_t lo = sim_.LengthLowerBound(r.size());
  const size_t hi = sim_.LengthUpperBound(r.size());
  const std::vector<TokenId> probe_prefix = IndexablePrefix(r);
  if (probe_prefix.empty()) return;
  // Oldest stub first: deterministic emission order that a restore
  // reproduces (the cold deque round-trips in order).
  for (const ColdStub& stub : cold_) {
    if (stub.size < lo || stub.size > hi) {
      ++stats_.length_filtered;
      continue;
    }
    // Prefix filter, mirroring index candidacy: a qualifying pair shares
    // an indexable token between the two prefixes. Both sides are sorted.
    size_t i = 0, j = 0;
    bool common = false;
    while (i < probe_prefix.size() && j < stub.prefix.size()) {
      if (probe_prefix[i] == stub.prefix[j]) {
        common = true;
        break;
      }
      if (probe_prefix[i] < stub.prefix[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    if (!common) continue;
    ++stats_.candidates;
    ++stats_.spill_reads;
    std::string payload;
    if (!spill_->Read(stub.handle, &payload).ok()) {
      // A corrupt frame costs recall for this stub only; never a crash.
      ++stats_.spill_read_errors;
      continue;
    }
    BinaryReader br(payload);
    const RecordPtr s = ReadRecordFrom(&br);
    const size_t alpha = sim_.MinOverlap(r.size(), s->size());
    const size_t o = VerifyOverlap(r.tokens, s->tokens, alpha, &stats_.verify);
    if (o < alpha) continue;
    if (options_.dedup_by_min_prefix_token) {
      const TokenId w = MinCommonPrefixToken(sim_, r, *s);
      if (w == kNoCommonToken || !options_.token_filter(w)) continue;
    }
    ++stats_.results;
    cb(ResultPair{r.id, r.seq, s->id, s->seq});
  }
}

void RecordJoiner::Probe(const Record& r, const ResultCallback& cb) {
  ++stats_.probes;
  const size_t prefix_len = sim_.PrefixLength(r.size());
  if (prefix_len == 0) return;
  ProbeCold(r, cb);
  const size_t lo = sim_.LengthLowerBound(r.size());
  const size_t hi = sim_.LengthUpperBound(r.size());

  ++probe_stamp_;
  if (cand_overlap_.size() < store_.size()) {
    cand_overlap_.resize(store_.size());
    cand_stamp_.resize(store_.size(), 0);
  }
  cand_order_.clear();
  // Memoize MinOverlap per eligible partner length: it is asked for a few
  // distinct lengths per probe but several times each (posting scan +
  // verification), and each computation is an integer division. Lazy fill
  // so lengths never seen cost nothing; skipped when the eligible window
  // is huge (kOverlap allows any length).
  constexpr uint32_t kAlphaUnset = ~0u;
  const bool cache_alpha = hi - lo < 4096;
  if (cache_alpha) alpha_cache_.assign(hi - lo + 1, kAlphaUnset);
  const auto alpha_for = [&](size_t s_size) -> size_t {
    if (!cache_alpha) return sim_.MinOverlap(r.size(), s_size);
    uint32_t& slot = alpha_cache_[s_size - lo];
    if (slot == kAlphaUnset) slot = static_cast<uint32_t>(sim_.MinOverlap(r.size(), s_size));
    return slot;
  };

  // Candidate generation over the probe prefix's posting lists, which
  // hold only stored records.
  for (size_t i = 0; i < prefix_len; ++i) {
    const TokenId w = r.tokens[i];
    if (options_.token_filter != nullptr && !options_.token_filter(w)) continue;
    const std::vector<Posting>* list = index_.Find(w);
    if (list == nullptr) continue;
    for (const Posting& p : *list) {
      ++stats_.postings_scanned;
      const size_t s_size = p.size;
      if (s_size < lo || s_size > hi) {
        ++stats_.length_filtered;
        continue;
      }
      const size_t slot = static_cast<size_t>(p.local_id - base_);
      int32_t& ov = cand_overlap_[slot];
      if (cand_stamp_[slot] != probe_stamp_) {
        cand_stamp_[slot] = probe_stamp_;
        ov = 0;
        cand_order_.push_back(p.local_id);
      }
      if (ov < 0) continue;  // already pruned by the positional filter
      if (options_.positional_filter) {
        const size_t alpha = alpha_for(s_size);
        const size_t upper = static_cast<size_t>(ov) + 1 +
                             std::min(r.size() - i - 1, s_size - p.position - 1);
        if (upper < alpha) {
          ov = -1;
          ++stats_.position_filtered;
          continue;
        }
      }
      ++ov;
    }
  }

  // Verification.
  for (const uint64_t lid : cand_order_) {
    const int32_t ov = cand_overlap_[static_cast<size_t>(lid - base_)];
    if (ov < 0) continue;
    const RecordPtr& s = StoredAt(lid);
    ++stats_.candidates;
    const size_t alpha = alpha_for(s->size());
    if (options_.suffix_filter) {
      // overlap = (|r| + |s| − |r △ s|) / 2, so overlap >= alpha requires
      // |r △ s| <= |r| + |s| − 2·alpha.
      const size_t budget = r.size() + s->size() - 2 * alpha;
      if (SymmetricDifferenceLowerBound(r.tokens, s->tokens,
                                        options_.suffix_filter_depth) > budget) {
        ++stats_.suffix_filtered;
        continue;
      }
    }
    const size_t o = VerifyOverlap(r.tokens, s->tokens, alpha, &stats_.verify);
    if (o < alpha) continue;
    if (options_.dedup_by_min_prefix_token) {
      const TokenId w = MinCommonPrefixToken(sim_, r, *s);
      if (w == kNoCommonToken || !options_.token_filter(w)) continue;
    }
    ++stats_.results;
    cb(ResultPair{r.id, r.seq, s->id, s->seq});
  }
}

void RecordJoiner::Store(const RecordPtr& r) {
  while (window_.OverCount(StoredCount())) PopOldestOverall();
  const size_t incoming = ApproxStoredBytes(*r);
  if (spill_ != nullptr && spill_watermark_bytes_ > 0) {
    // Tiered path: past the watermark, cold records move to disk and stay
    // in the window. Eviction below remains the backstop (spill failure,
    // or a budget even the stubs overflow).
    while (approx_bytes_ + incoming > spill_watermark_bytes_ && SpillOldestHot()) {
    }
  }
  if (options_.max_index_bytes > 0) {
    while (approx_bytes_ + incoming > options_.max_index_bytes && EvictOldest(1) > 0) {
    }
  }
  AppendStored(r);
  ++stats_.stores;
}

void RecordJoiner::AppendStored(const RecordPtr& r) {
  const uint64_t local_id = base_ + store_.size();
  store_.push_back(r);
  approx_bytes_ += ApproxStoredBytes(*r);
  const size_t prefix_len = sim_.PrefixLength(r->size());
  for (size_t i = 0; i < prefix_len; ++i) {
    const TokenId w = r->tokens[i];
    if (options_.token_filter != nullptr && !options_.token_filter(w)) continue;
    index_.Append(w, Posting{local_id, static_cast<uint32_t>(i),
                             static_cast<uint32_t>(r->size())});
  }
}

void RecordJoiner::Process(const RecordPtr& r, bool store, bool probe,
                           const ResultCallback& cb) {
  if (r->size() == 0) return;
  Evict(r->timestamp);
  if (probe) Probe(*r, cb);
  if (store) Store(r);
}

namespace {

// Blob tags (docs/INTERNALS.md §13). Self-contained images inline cold
// records (the migration / sync-checkpoint format); tiered bases carry
// cold records as spill-segment stubs; deltas carry only the window
// suffix touched since the previous freeze.
constexpr uint8_t kTagSelfContained = 0;
constexpr uint8_t kTagTieredBase = 1;
constexpr uint8_t kTagDelta = 2;

}  // namespace

void RecordJoiner::WriteStubTo(const ColdStub& stub, BinaryWriter* w) {
  w->WriteU64(stub.id);
  w->WriteU64(stub.seq);
  w->WriteI64(stub.timestamp);
  w->WriteU32(stub.size);
  w->WriteU32Vec(stub.prefix);
  w->WriteU32(stub.handle.segment);
  w->WriteU64(stub.handle.offset);
  w->WriteU32(stub.handle.length);
}

RecordJoiner::ColdStub RecordJoiner::ReadStubFrom(BinaryReader* r) {
  ColdStub stub;
  stub.id = r->ReadU64();
  stub.seq = r->ReadU64();
  stub.timestamp = r->ReadI64();
  stub.size = r->ReadU32();
  r->ReadU32Vec(&stub.prefix);
  stub.handle.segment = r->ReadU32();
  stub.handle.offset = r->ReadU64();
  stub.handle.length = r->ReadU32();
  return stub;
}

void RecordJoiner::MarkFrozen() {
  frozen_base_ = base_;
  frozen_next_id_ = base_ + store_.size();
  frozen_cold_len_ = cold_.size();
  frozen_cold_popped_ = cold_popped_total_;
}

void RecordJoiner::Snapshot(std::string* out) const {
  BinaryWriter w(out);
  w.WriteU8(kTagSelfContained);
  w.WriteU64(cold_.size());
  for (const ColdStub& stub : cold_) {
    // The spill payload *is* the WriteRecordTo serialization, so cold
    // records inline as raw read-back bytes. Unreadable cold state makes
    // a self-contained image impossible — this is the migration path, so
    // it is a hard failure rather than silent record loss.
    std::string payload;
    const Status st = spill_->Read(stub.handle, &payload);
    CHECK(st.ok()) << "cold record unreadable during snapshot: " << st.ToString();
    out->append(payload);
  }
  w.WriteU64(store_.size());
  for (const RecordPtr& r : store_) WriteRecordTo(*r, &w);
  WriteJoinerStats(stats_, &w);
}

store::FrozenBlob RecordJoiner::FreezeBase() {
  auto hot = std::make_shared<const std::vector<RecordPtr>>(store_.begin(), store_.end());
  auto cold = std::make_shared<const std::vector<ColdStub>>(cold_.begin(), cold_.end());
  auto stats = std::make_shared<const JoinerStats>(stats_);
  MarkFrozen();
  store::FrozenBlob f;
  f.is_delta = false;
  f.encode = [hot, cold, stats](std::string* out) {
    BinaryWriter w(out);
    w.WriteU8(kTagTieredBase);
    w.WriteU64(cold->size());
    for (const ColdStub& stub : *cold) WriteStubTo(stub, &w);
    w.WriteU64(hot->size());
    for (const RecordPtr& rec : *hot) WriteRecordTo(*rec, &w);
    WriteJoinerStats(*stats, &w);
  };
  return f;
}

store::FrozenBlob RecordJoiner::FreezeDelta() {
  // The window is FIFO, so everything that changed since the last freeze
  // is two front-pop counts plus the back suffixes that survived. An
  // entry appended *and* popped within the interval shows up only in the
  // pop count (pops consume older entries first, so popped appends are
  // exactly the non-surviving prefix of the appended sequence).
  const uint64_t hot_pops = base_ - frozen_base_;
  const uint64_t cold_pops = cold_popped_total_ - frozen_cold_popped_;
  const size_t hot_start =
      frozen_next_id_ > base_ ? static_cast<size_t>(frozen_next_id_ - base_) : 0;
  const size_t cold_start =
      frozen_cold_len_ > cold_pops ? static_cast<size_t>(frozen_cold_len_ - cold_pops) : 0;
  auto hot = std::make_shared<const std::vector<RecordPtr>>(
      store_.begin() + static_cast<ptrdiff_t>(hot_start), store_.end());
  auto cold = std::make_shared<const std::vector<ColdStub>>(
      cold_.begin() + static_cast<ptrdiff_t>(cold_start), cold_.end());
  auto stats = std::make_shared<const JoinerStats>(stats_);
  MarkFrozen();
  store::FrozenBlob f;
  f.is_delta = true;
  f.encode = [hot_pops, cold_pops, hot, cold, stats](std::string* out) {
    BinaryWriter w(out);
    w.WriteU8(kTagDelta);
    w.WriteU64(hot_pops);
    w.WriteU64(cold_pops);
    w.WriteU64(hot->size());
    for (const RecordPtr& rec : *hot) WriteRecordTo(*rec, &w);
    w.WriteU64(cold->size());
    for (const ColdStub& stub : *cold) WriteStubTo(stub, &w);
    WriteJoinerStats(*stats, &w);
  };
  return f;
}

void RecordJoiner::Restore(const std::string& blob) {
  store_.clear();
  base_ = 0;
  approx_bytes_ = 0;
  index_.Clear();
  cand_overlap_.clear();
  cand_stamp_.clear();
  probe_stamp_ = 0;
  cand_order_.clear();
  cold_.clear();
  cold_appended_total_ = 0;
  cold_popped_total_ = 0;
  BinaryReader r(blob);
  const uint8_t tag = r.ReadU8();
  CHECK(tag != kTagDelta) << "delta blob passed to Restore (use RestoreDelta)";
  uint64_t dropped_stubs = 0;
  const uint64_t cold_n = r.ReadU64();
  for (uint64_t i = 0; i < cold_n; ++i) {
    if (tag == kTagSelfContained) {
      const RecordPtr rec = ReadRecordFrom(&r);
      if (spill_ != nullptr) {
        // Rebuild the cold tier exactly: re-append to fresh segments so
        // the hot/cold split — and thus probe order — round-trips.
        std::string payload;
        BinaryWriter pw(&payload);
        WriteRecordTo(*rec, &pw);
        store::SpillHandle handle;
        if (spill_->Append(payload, &handle).ok()) {
          ColdStub stub;
          stub.id = rec->id;
          stub.seq = rec->seq;
          stub.timestamp = rec->timestamp;
          stub.size = static_cast<uint32_t>(rec->size());
          stub.prefix = IndexablePrefix(*rec);
          stub.handle = handle;
          cold_.push_back(std::move(stub));
          ++cold_appended_total_;
          continue;
        }
      }
      // No spill attached (or it failed): the cold records become the
      // oldest hot entries, preserving window order.
      AppendStored(rec);
    } else {
      ColdStub stub = ReadStubFrom(&r);
      // A stub whose frame did not survive (torn segment truncated away)
      // costs that one record; recovery continues.
      if (spill_ == nullptr || !spill_->Reref(stub.handle)) {
        ++dropped_stubs;
        continue;
      }
      cold_.push_back(std::move(stub));
      ++cold_appended_total_;
    }
  }
  const uint64_t hot_n = r.ReadU64();
  for (uint64_t i = 0; i < hot_n; ++i) AppendStored(ReadRecordFrom(&r));
  ReadJoinerStats(&r, &stats_);
  stats_.spill_read_errors += dropped_stubs;
  MarkFrozen();
}

void RecordJoiner::RestoreDelta(const std::string& blob) {
  BinaryReader r(blob);
  const uint8_t tag = r.ReadU8();
  CHECK(tag == kTagDelta) << "non-delta blob passed to RestoreDelta";
  const uint64_t hot_pops = r.ReadU64();
  const uint64_t cold_pops = r.ReadU64();
  // Pops beyond what this replica materialized refer to entries appended
  // and popped within the interval — they never existed here, so only
  // base_ needs to advance for the hot ones (slot ids must line up with
  // the live run's append numbering).
  for (uint64_t i = 0; i < cold_pops && !cold_.empty(); ++i) PopOldestCold();
  const uint64_t hot_k = std::min<uint64_t>(hot_pops, store_.size());
  for (uint64_t i = 0; i < hot_k; ++i) PopOldestStored();
  base_ += hot_pops - hot_k;
  const uint64_t hot_n = r.ReadU64();
  for (uint64_t i = 0; i < hot_n; ++i) AppendStored(ReadRecordFrom(&r));
  uint64_t dropped_stubs = 0;
  const uint64_t cold_n = r.ReadU64();
  for (uint64_t i = 0; i < cold_n; ++i) {
    ColdStub stub = ReadStubFrom(&r);
    if (spill_ == nullptr || !spill_->Reref(stub.handle)) {
      ++dropped_stubs;
      continue;
    }
    cold_.push_back(std::move(stub));
    ++cold_appended_total_;
  }
  ReadJoinerStats(&r, &stats_);
  stats_.spill_read_errors += dropped_stubs;
  MarkFrozen();
}

size_t RecordJoiner::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const RecordPtr& s : store_) bytes += sizeof(Record) + s->tokens.size() * sizeof(TokenId);
  // Cold records live on disk; only their stubs are resident.
  bytes += cold_.size() * sizeof(ColdStub);
  for (const ColdStub& stub : cold_) bytes += stub.prefix.capacity() * sizeof(TokenId);
  return bytes + index_.MemoryBytes();
}

}  // namespace dssj
