#include "core/bundle_joiner.h"

#include <algorithm>

#include "common/logging.h"

namespace dssj {
namespace {

SimilaritySpec MakeAdmissionSpec(const SimilaritySpec& join_sim, int64_t admission_permille) {
  if (join_sim.function() == SimilarityFunction::kOverlap) {
    return SimilaritySpec(SimilarityFunction::kJaccard,
                          admission_permille > 0 ? admission_permille : 800);
  }
  return SimilaritySpec(join_sim.function(), admission_permille > 0
                                                 ? admission_permille
                                                 : join_sim.threshold_permille());
}

/// Approximate per-node overhead of the bundles_ hash map (key + bucket and
/// chain pointers), charged once per live bundle.
constexpr size_t kBundleNodeBytes = 48;

}  // namespace

BundleJoiner::BundleJoiner(const SimilaritySpec& sim, const WindowSpec& window,
                           BundleJoinerOptions options)
    : sim_(sim),
      admission_sim_(MakeAdmissionSpec(sim, options.admission_permille)),
      window_(window),
      options_(options) {}

size_t BundleJoiner::ApproxMemberBytes(const Member& m) const {
  return sizeof(std::pair<uint32_t, Member>) + sizeof(OrderEntry) +
         (m.added.size() + m.removed.size()) * sizeof(TokenId);
}

size_t BundleJoiner::ApproxBundleBytes(const Bundle& b) const {
  return sizeof(Bundle) + kBundleNodeBytes + b.pivot.size() * sizeof(TokenId) +
         b.indexed.size() * (sizeof(TokenId) + sizeof(uint64_t));
}

void BundleJoiner::RecomputeApproxBytes() {
  approx_bytes_ = 0;
  for (const auto& [id, b] : bundles_) {
    approx_bytes_ += ApproxBundleBytes(b);
    for (const auto& [uid, m] : b.members) approx_bytes_ += ApproxMemberBytes(m);
  }
}

uint64_t BundleJoiner::EvictOldestEntry() {
  CHECK(!store_order_.empty());
  const OrderEntry entry = store_order_.front();
  store_order_.pop_front();
  ++order_pops_since_freeze_;
  auto it = bundles_.find(entry.bundle_id);
  CHECK(it != bundles_.end());
  auto& members = it->second.members;
  const auto pos = std::find_if(members.begin(), members.end(),
                                [&](const auto& m) { return m.first == entry.uid; });
  CHECK(pos != members.end());
  const uint64_t seq = pos->second.seq;
  approx_bytes_ -= ApproxMemberBytes(pos->second);
  members.erase(pos);
  if (members.empty()) {
    approx_bytes_ -= ApproxBundleBytes(it->second);
    RemovePostings(entry.bundle_id, it->second);
    bundles_.erase(it);
    if (log_changes_) {
      // A retired id supersedes any dirty record of it (ids are never
      // reused, so a later delta cannot resurrect it by accident).
      dirty_bundles_.erase(entry.bundle_id);
      retired_bundles_.push_back(entry.bundle_id);
    }
  } else if (log_changes_) {
    dirty_bundles_.insert(entry.bundle_id);
  }
  --alive_members_;
  ++stats_.evictions;
  return seq;
}

void BundleJoiner::RemovePostings(uint64_t bundle_id, const Bundle& bundle) {
  // Bundles retire roughly in birth order, so the id sits near the front.
  for (const TokenId w : bundle.indexed) {
    const bool erased = index_.Erase(w, bundle_id);
    CHECK(erased) << "bundle " << bundle_id << " missing from its posting list";
  }
  stats_.dead_postings_purged += bundle.indexed.size();
}

size_t BundleJoiner::EvictOldest(size_t n) {
  size_t evicted = 0;
  while (evicted < n && alive_members_ > 1) {
    stats_.eviction_horizon_seq =
        std::max(stats_.eviction_horizon_seq, EvictOldestEntry());
    ++stats_.budget_evictions;
    ++evicted;
  }
  return evicted;
}

void BundleJoiner::Evict(int64_t now) {
  if (window_.kind != WindowSpec::Kind::kTime) return;
  while (!store_order_.empty() &&
         window_.ExpiredByTime(store_order_.front().timestamp, now)) {
    EvictOldestEntry();
  }
}

void BundleJoiner::ProbeBundle(const Record& r, uint64_t bundle_id, Bundle& bundle,
                               const ResultCallback& cb, AdmissionCandidate* admission) {
  ++stats_.bundle_candidates;
  const size_t lo = sim_.LengthLowerBound(r.size());
  const size_t hi = sim_.LengthUpperBound(r.size());

  // Bundle-level length reject (conservative: size range never shrinks).
  if (bundle.max_size < lo || bundle.min_size > hi) return;

  // Verify the pivot once. If even the loosest member requirement is
  // unreachable, the whole bundle is rejected by the early exit.
  const size_t smallest_eligible = std::max<size_t>(bundle.min_size, lo);
  const size_t alpha_min = sim_.MinOverlap(r.size(), smallest_eligible);
  const size_t required =
      alpha_min > bundle.max_added ? alpha_min - bundle.max_added : 0;
  const size_t pivot_overlap = VerifyOverlap(r.tokens, bundle.pivot, required, &stats_.verify);
  if (pivot_overlap < required) return;  // early-exited: no member can qualify

  // Batch-resolve members from the exact pivot overlap and their diffs.
  for (const auto& [uid, m] : bundle.members) {
    if (m.size < lo || m.size > hi) {
      ++stats_.length_filtered;
      continue;
    }
    ++stats_.candidates;
    const size_t alpha = sim_.MinOverlap(r.size(), m.size);
    if (options_.batch_verify) {
      const size_t upper = pivot_overlap + m.added.size();
      if (upper < alpha) {
        ++stats_.batch_rejects;
        continue;
      }
      const size_t lower =
          pivot_overlap > m.removed.size() ? pivot_overlap - m.removed.size() : 0;
      if (lower >= alpha) {
        ++stats_.batch_accepts;
        ++stats_.results;
        cb(ResultPair{r.id, r.seq, m.id, m.seq});
        continue;
      }
      // Ambiguous: resolve exactly via the (small) diffs.
      const size_t removed_hit = IntersectCount(r.tokens, m.removed, &stats_.verify);
      const size_t added_hit = IntersectCount(r.tokens, m.added, &stats_.verify);
      const size_t o = pivot_overlap - removed_hit + added_hit;
      ++stats_.member_diff_resolutions;
      if (o >= alpha) {
        ++stats_.results;
        cb(ResultPair{r.id, r.seq, m.id, m.seq});
      }
    } else {
      // Individual-verification baseline: reconstruct and merge fully.
      ReconstructMemberInto(bundle, m, &scratch_member_);
      const size_t o = VerifyOverlap(r.tokens.data(), r.tokens.size(), scratch_member_.data(),
                                     scratch_member_.size(), alpha, &stats_.verify);
      if (o >= alpha) {
        ++stats_.results;
        cb(ResultPair{r.id, r.seq, m.id, m.seq});
      }
    }
  }

  // Consider this bundle as an admission target for r.
  if (admission != nullptr &&
      admission_sim_.Satisfies(pivot_overlap, r.size(), bundle.pivot.size())) {
    const size_t diff = (r.size() - pivot_overlap) + (bundle.pivot.size() - pivot_overlap);
    if (diff <= options_.max_diff) {
      const double score =
          admission_sim_.EvaluateSimilarity(pivot_overlap, r.size(), bundle.pivot.size());
      if (score > admission->score ||
          (score == admission->score && bundle_id < admission->bundle_id)) {
        admission->bundle_id = bundle_id;
        admission->pivot_overlap = pivot_overlap;
        admission->score = score;
      }
    }
  }
}

void BundleJoiner::Probe(const Record& r, const ResultCallback& cb,
                         AdmissionCandidate* admission) {
  ++stats_.probes;
  const size_t prefix_len = sim_.PrefixLength(r.size());
  if (prefix_len == 0) return;
  ++probe_stamp_;
  for (size_t i = 0; i < prefix_len; ++i) {
    const TokenId w = r.tokens[i];
    const std::vector<uint64_t>* list = index_.Find(w);
    if (list == nullptr) continue;
    for (const uint64_t bundle_id : *list) {
      // Lists hold live ids only: a retiring bundle removes its postings.
      const auto bit = bundles_.find(bundle_id);
      CHECK(bit != bundles_.end()) << "dead bundle " << bundle_id << " in posting list " << w;
      ++stats_.postings_scanned;
      Bundle& bundle = bit->second;
      if (bundle.probe_stamp == probe_stamp_) continue;  // already probed
      bundle.probe_stamp = probe_stamp_;
      ProbeBundle(r, bundle_id, bundle, cb, admission);
    }
  }
}

void BundleJoiner::AddMemberTokensToIndex(uint64_t bundle_id, Bundle& bundle,
                                          const Record& member) {
  const size_t prefix_len = sim_.PrefixLength(member.size());
  if (bundle.indexed.capacity() < prefix_len) bundle.indexed.reserve(2 * prefix_len);
  for (size_t i = 0; i < prefix_len; ++i) {
    const TokenId w = member.tokens[i];
    auto pos = std::lower_bound(bundle.indexed.begin(), bundle.indexed.end(), w);
    if (pos != bundle.indexed.end() && *pos == w) continue;
    bundle.indexed.insert(pos, w);
    approx_bytes_ += sizeof(TokenId) + sizeof(uint64_t);  // indexed token + posting
    if (log_changes_) posting_appends_.emplace_back(w, bundle_id);
    index_.Append(w, bundle_id);
  }
}

void BundleJoiner::ReconstructMemberInto(const Bundle& bundle, const Member& m,
                                         std::vector<TokenId>* out) {
  // tokens = (pivot ∖ removed) ∪ added, all arrays ascending.
  std::vector<TokenId>& kept = scratch_kept_;
  kept.clear();
  std::set_difference(bundle.pivot.begin(), bundle.pivot.end(), m.removed.begin(),
                      m.removed.end(), std::back_inserter(kept));
  out->clear();
  std::set_union(kept.begin(), kept.end(), m.added.begin(), m.added.end(),
                 std::back_inserter(*out));
}

void BundleJoiner::Store(const RecordPtr& r, const AdmissionCandidate& admission) {
  while (window_.OverCount(alive_members_)) EvictOldestEntry();

  uint64_t bundle_id;
  Bundle* bundle;
  Member member;
  member.id = r->id;
  member.seq = r->seq;
  member.timestamp = r->timestamp;
  member.size = static_cast<uint32_t>(r->size());

  auto admit_it = admission.score >= 0.0 ? bundles_.find(admission.bundle_id) : bundles_.end();
  if (admit_it != bundles_.end()) {
    bundle_id = admission.bundle_id;
    bundle = &admit_it->second;
    // Diff against the pivot (both ascending). Diff into reusable scratch
    // first, then copy at exact size: one allocation per diff instead of
    // the back_inserter growth chain.
    scratch_member_.clear();
    std::set_difference(r->tokens.begin(), r->tokens.end(), bundle->pivot.begin(),
                        bundle->pivot.end(), std::back_inserter(scratch_member_));
    member.added = scratch_member_;
    scratch_kept_.clear();
    std::set_difference(bundle->pivot.begin(), bundle->pivot.end(), r->tokens.begin(),
                        r->tokens.end(), std::back_inserter(scratch_kept_));
    member.removed = scratch_kept_;
    bundle->min_size = std::min(bundle->min_size, member.size);
    bundle->max_size = std::max(bundle->max_size, member.size);
    bundle->max_added =
        std::max(bundle->max_added, static_cast<uint32_t>(member.added.size()));
    ++stats_.members_added;
  } else {
    bundle_id = next_bundle_id_++;
    bundle = &bundles_[bundle_id];
    bundle->pivot.assign(r->tokens.begin(), r->tokens.end());
    bundle->min_size = bundle->max_size = member.size;
    approx_bytes_ += ApproxBundleBytes(*bundle);  // indexed still empty here
    ++stats_.bundles_created;
  }

  const uint32_t uid = bundle->next_uid++;
  approx_bytes_ += ApproxMemberBytes(member);
  if (bundle->members.capacity() == 0) bundle->members.reserve(4);
  bundle->members.emplace_back(uid, std::move(member));
  if (log_changes_) dirty_bundles_.insert(bundle_id);
  AddMemberTokensToIndex(bundle_id, *bundle, *r);
  store_order_.push_back(OrderEntry{bundle_id, uid, r->timestamp});
  ++alive_members_;
  ++stats_.stores;
  if (options_.max_index_bytes > 0) {
    // Enforced after insertion (a member diffs against a bundle chosen
    // before eviction ran, so evicting first could invalidate the target);
    // EvictOldest keeps at least one member, bounding the loop.
    while (approx_bytes_ > options_.max_index_bytes && EvictOldest(1) > 0) {
    }
  }
}

void BundleJoiner::Process(const RecordPtr& r, bool store, bool probe,
                           const ResultCallback& cb) {
  if (r->size() == 0) return;
  Evict(r->timestamp);
  AdmissionCandidate admission;
  // Even a store-only record must probe bundle pivots to find its admission
  // target; suppress result emission in that case by probing without cb.
  if (probe) {
    Probe(*r, cb, store ? &admission : nullptr);
  } else if (store) {
    Probe(*r, [](const ResultPair&) {}, &admission);
    // The silent probe inflates probe-side stats; compensate the counter
    // that benches report as "records probed".
    --stats_.probes;
  }
  if (store) Store(r, admission);
}

namespace {

// Blob tags, aligned with RecordJoiner's (docs/INTERNALS.md §13): 0 is a
// self-contained full image, 2 a dirty-set delta. (Tag 1, a tiered base
// with spill stubs, does not arise here — bundles keep budget eviction.)
constexpr uint8_t kTagSelfContained = 0;
constexpr uint8_t kTagDelta = 2;

}  // namespace

void BundleJoiner::WriteBundleTo(uint64_t id, const Bundle& b, BinaryWriter* w) {
  w->WriteU64(id);
  w->WriteU32Vec(b.pivot);
  w->WriteU32(b.next_uid);
  w->WriteU32Vec(b.indexed);
  w->WriteU32(b.min_size);
  w->WriteU32(b.max_size);
  w->WriteU32(b.max_added);
  w->WriteU64(b.members.size());
  for (const auto& [uid, m] : b.members) {
    w->WriteU32(uid);
    w->WriteU64(m.id);
    w->WriteU64(m.seq);
    w->WriteI64(m.timestamp);
    w->WriteU32(m.size);
    w->WriteU32Vec(m.added);
    w->WriteU32Vec(m.removed);
  }
}

void BundleJoiner::ReadBundleInto(BinaryReader* r, Bundle* b) {
  r->ReadU32Vec(&b->pivot);
  b->next_uid = r->ReadU32();
  r->ReadU32Vec(&b->indexed);
  b->min_size = r->ReadU32();
  b->max_size = r->ReadU32();
  b->max_added = r->ReadU32();
  const uint64_t num_members = r->ReadU64();
  b->members.clear();
  b->members.reserve(num_members);
  for (uint64_t k = 0; k < num_members; ++k) {
    const uint32_t uid = r->ReadU32();
    Member m;
    m.id = r->ReadU64();
    m.seq = r->ReadU64();
    m.timestamp = r->ReadI64();
    m.size = r->ReadU32();
    r->ReadU32Vec(&m.added);
    r->ReadU32Vec(&m.removed);
    b->members.emplace_back(uid, std::move(m));
  }
  b->probe_stamp = 0;  // per-probe scratch, never restored
}

void BundleJoiner::MarkFrozen() {
  dirty_bundles_.clear();
  retired_bundles_.clear();
  posting_appends_.clear();
  order_pops_since_freeze_ = 0;
  frozen_order_len_ = store_order_.size();
  log_changes_ = true;
}

void BundleJoiner::Snapshot(std::string* out) const {
  BinaryWriter w(out);
  w.WriteU8(kTagSelfContained);
  w.WriteU64(next_bundle_id_);
  w.WriteU64(alive_members_);
  w.WriteU64(bundles_.size());
  for (const auto& [id, b] : bundles_) WriteBundleTo(id, b, &w);
  // Posting lists verbatim, in slot order; Restore rebuilds each by token.
  w.WriteU64(index_.size());
  index_.ForEach([&w](TokenId token, const std::vector<uint64_t>& list) {
    w.WriteU32(token);
    w.WriteU64(list.size());
    for (const uint64_t id : list) w.WriteU64(id);
  });
  w.WriteU64(store_order_.size());
  for (const OrderEntry& e : store_order_) {
    w.WriteU64(e.bundle_id);
    w.WriteU32(e.uid);
    w.WriteI64(e.timestamp);
  }
  WriteJoinerStats(stats_, &w);
}

void BundleJoiner::Restore(const std::string& blob) {
  bundles_.clear();
  index_.Clear();
  store_order_.clear();
  probe_stamp_ = 0;
  BinaryReader r(blob);
  const uint8_t tag = r.ReadU8();
  CHECK(tag == kTagSelfContained) << "delta blob passed to Restore (use RestoreDelta)";
  next_bundle_id_ = r.ReadU64();
  alive_members_ = r.ReadU64();
  const uint64_t num_bundles = r.ReadU64();
  bundles_.reserve(num_bundles);
  for (uint64_t i = 0; i < num_bundles; ++i) {
    const uint64_t id = r.ReadU64();
    ReadBundleInto(&r, &bundles_[id]);
  }
  const uint64_t lists = r.ReadU64();
  for (uint64_t i = 0; i < lists; ++i) {
    const TokenId token = r.ReadU32();
    const uint64_t n = r.ReadU64();
    for (uint64_t k = 0; k < n; ++k) index_.Append(token, r.ReadU64());
  }
  const uint64_t order = r.ReadU64();
  for (uint64_t i = 0; i < order; ++i) {
    OrderEntry e;
    e.bundle_id = r.ReadU64();
    e.uid = r.ReadU32();
    e.timestamp = r.ReadI64();
    store_order_.push_back(e);
  }
  ReadJoinerStats(&r, &stats_);
  // The walk matches the incremental formula exactly, so budget decisions
  // after a restore replay the original run's.
  RecomputeApproxBytes();
  MarkFrozen();
}

store::FrozenBlob BundleJoiner::FreezeBase() {
  // Bundle state is mutated in place (diffs, counters, sorted inserts),
  // so there is no refcount-cheap frozen view; the base serializes
  // eagerly. Its cost is O(live window): retired bundles leave no
  // postings behind.
  auto blob = std::make_shared<std::string>();
  Snapshot(blob.get());
  MarkFrozen();
  store::FrozenBlob f;
  f.is_delta = false;
  f.encode = [blob](std::string* out) { *out = std::move(*blob); };
  return f;
}

store::FrozenBlob BundleJoiner::FreezeDelta() {
  // Nothing was logged before the first freeze or restore, so there is no
  // earlier image a delta could apply to: ship a base instead.
  if (!log_changes_) return FreezeBase();
  auto dirty = std::make_shared<std::vector<std::pair<uint64_t, Bundle>>>();
  dirty->reserve(dirty_bundles_.size());
  for (const uint64_t id : dirty_bundles_) {
    const auto it = bundles_.find(id);
    CHECK(it != bundles_.end());  // retired ids are erased from the dirty set
    dirty->emplace_back(id, it->second);  // deep copy of the *final* state
  }
  auto retired = std::make_shared<const std::vector<uint64_t>>(retired_bundles_);
  auto postings =
      std::make_shared<const std::vector<std::pair<TokenId, uint64_t>>>(posting_appends_);
  const uint64_t order_pops = order_pops_since_freeze_;
  const size_t order_start = frozen_order_len_ > order_pops
                                 ? static_cast<size_t>(frozen_order_len_ - order_pops)
                                 : 0;
  auto order = std::make_shared<const std::vector<OrderEntry>>(
      store_order_.begin() + static_cast<ptrdiff_t>(order_start), store_order_.end());
  const uint64_t next_bundle_id = next_bundle_id_;
  const uint64_t alive_members = alive_members_;
  auto stats = std::make_shared<const JoinerStats>(stats_);
  MarkFrozen();
  store::FrozenBlob f;
  f.is_delta = true;
  f.encode = [dirty, retired, postings, order, order_pops, next_bundle_id, alive_members,
              stats](std::string* out) {
    BinaryWriter w(out);
    w.WriteU8(kTagDelta);
    w.WriteU64(retired->size());
    for (const uint64_t id : *retired) w.WriteU64(id);
    w.WriteU64(dirty->size());
    for (const auto& [id, b] : *dirty) WriteBundleTo(id, b, &w);
    w.WriteU64(postings->size());
    for (const auto& [token, id] : *postings) {
      w.WriteU32(token);
      w.WriteU64(id);
    }
    w.WriteU64(order_pops);
    w.WriteU64(order->size());
    for (const OrderEntry& e : *order) {
      w.WriteU64(e.bundle_id);
      w.WriteU32(e.uid);
      w.WriteI64(e.timestamp);
    }
    w.WriteU64(next_bundle_id);
    w.WriteU64(alive_members);
    WriteJoinerStats(*stats, &w);
  };
  return f;
}

void BundleJoiner::RestoreDelta(const std::string& blob) {
  BinaryReader r(blob);
  const uint8_t tag = r.ReadU8();
  CHECK(tag == kTagDelta) << "non-delta blob passed to RestoreDelta";
  // Retire first, as the live joiner did: each retired bundle that existed
  // at the previous freeze removes its postings (its `indexed` set here is
  // exactly the lists it is on). Bundles born and retired inside the
  // interval never existed here.
  const uint64_t retired = r.ReadU64();
  for (uint64_t i = 0; i < retired; ++i) {
    const auto it = bundles_.find(r.ReadU64());
    if (it == bundles_.end()) continue;
    RemovePostings(it->first, it->second);
    bundles_.erase(it);
  }
  const uint64_t dirty = r.ReadU64();
  for (uint64_t i = 0; i < dirty; ++i) {
    const uint64_t id = r.ReadU64();
    ReadBundleInto(&r, &bundles_[id]);  // insert or overwrite with final state
  }
  // Appends land in live order. Those of bundles that retired later in
  // the interval were removed again live, so they are skipped; every
  // bundle still alive is in bundles_ by now (gaining a posting dirties it).
  const uint64_t postings = r.ReadU64();
  for (uint64_t i = 0; i < postings; ++i) {
    const TokenId token = r.ReadU32();
    const uint64_t id = r.ReadU64();
    if (bundles_.count(id) == 0) continue;
    index_.Append(token, id);
  }
  // Trim the eviction order, then append the interval's surviving suffix.
  // Pops beyond the materialized length refer to entries appended and
  // popped within the interval — they never existed here. The pops are
  // raw (no member erases): the dirty copies above already carry each
  // touched bundle's final member state.
  const uint64_t order_pops = r.ReadU64();
  for (uint64_t i = 0; i < order_pops && !store_order_.empty(); ++i) store_order_.pop_front();
  const uint64_t order_n = r.ReadU64();
  for (uint64_t i = 0; i < order_n; ++i) {
    OrderEntry e;
    e.bundle_id = r.ReadU64();
    e.uid = r.ReadU32();
    e.timestamp = r.ReadI64();
    store_order_.push_back(e);
  }
  next_bundle_id_ = r.ReadU64();
  alive_members_ = r.ReadU64();
  ReadJoinerStats(&r, &stats_);
  RecomputeApproxBytes();
  MarkFrozen();
}

size_t BundleJoiner::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [_, b] : bundles_) {
    bytes += sizeof(Bundle) + b.pivot.capacity() * sizeof(TokenId) +
             b.indexed.capacity() * sizeof(TokenId);
    bytes += b.members.capacity() * sizeof(std::pair<uint32_t, Member>);
    for (const auto& [__, m] : b.members) {
      bytes += (m.added.capacity() + m.removed.capacity()) * sizeof(TokenId);
    }
  }
  bytes += store_order_.size() * sizeof(OrderEntry);
  return bytes + index_.MemoryBytes();
}

}  // namespace dssj
