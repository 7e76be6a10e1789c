#include "core/join_topology.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <variant>

#include "common/logging.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "core/brute_force_joiner.h"
#include "core/repartition.h"
#include "net/transport.h"
#include "store/spill.h"
#include "stream/topology.h"

namespace dssj {
namespace {

constexpr int64_t kFlagStore = 1;
constexpr int64_t kFlagProbe = 2;
/// Lane id rides in the flag word's upper bits (data tuples under sharded
/// ingestion). Bits 0-1 stay the store/probe flags.
constexpr int kFlagLaneShift = 2;

/// Records between lane-frontier watermarks (sharded ingestion). Each
/// dispatcher lane broadcasts its frontier to every joiner at this cadence
/// so merge buffers drain even when the lane routes nothing to a joiner
/// for a while. Checkpointed (cadence counter), so recovery replays the
/// identical emission pattern.
constexpr uint64_t kWatermarkEvery = 32;

const char* kSourceName = "source";
const char* kDispatcherName = "dispatcher";
const char* kJoinerName = "joiner";
const char* kSinkName = "sink";

/// State shared between the driver and the bolts of one run.
struct SharedState {
  explicit SharedState(int num_joiners) : joiner_stats(num_joiners) {}

  Histogram latency;

  std::mutex pairs_mu;
  std::vector<ResultPair> pairs;

  // Written once per joiner task at Finish (disjoint slots).
  std::vector<JoinerStats> joiner_stats;

  // Written by the (single) adaptive dispatcher at Finish.
  std::atomic<uint64_t> router_replans{0};
  std::atomic<uint64_t> router_live_epochs{0};

  std::mutex shed_mu;
  std::vector<std::pair<uint64_t, int>> shed_probe_seqs;  ///< (probe seq, partition)
};

/// Replays a pre-built record vector as a stream, optionally paced to an
/// arrival rate. Tuple layout: [record payload, stamp micros]. A paced run
/// stamps each record's due time, so the latency histogram also counts how
/// late the source emitted it; an unpaced run stamps the emit time.
///
/// Pacing sleeps once to the due time of a record not yet due and emits a
/// due record at once: a sleep that overshoots (timer slack, tens of
/// microseconds) is caught up in a burst, so the offered rate holds.
///
/// Under sharded ingestion (spout parallelism N > 1) lane i replays the
/// records at global indices ≡ i (mod N): a round-robin stripe, so the N
/// lane streams interleave finely and the joiners' merge buffers stay
/// shallow. Pacing targets use the *global* index, keeping the aggregate
/// arrival rate at `rate_per_sec` regardless of the lane count.
class RecordStreamSpout : public stream::Spout {
 public:
  /// `input` is borrowed: it must outlive the topology.
  RecordStreamSpout(const std::vector<RecordPtr>* input, double rate_per_sec)
      : input_(input), rate_(rate_per_sec) {}

  void Open(const stream::TaskContext& ctx) override {
    lane_ = ctx.task_index;
    lanes_ = std::max(1, ctx.parallelism);
    start_us_ = NowMicros();
  }

  bool NextTuple(stream::OutputCollector& out) override {
    const size_t idx = static_cast<size_t>(lane_) + pos_ * static_cast<size_t>(lanes_);
    if (idx >= input_->size()) return false;
    int64_t stamp_us = NowMicros();
    if (rate_ > 0.0) {
      const int64_t due_us =
          start_us_ + static_cast<int64_t>(static_cast<double>(idx) * 1e6 / rate_);
      if (due_us > stamp_us) {
        std::this_thread::sleep_for(std::chrono::microseconds(due_us - stamp_us));
      }
      stamp_us = due_us;
    }
    const RecordPtr& r = (*input_)[idx];
    ++pos_;
    stream::Tuple t = stream::MakeTuple(std::shared_ptr<const void>(r), stamp_us);
    t.set_payload_bytes(r->SerializedBytes());
    out.Emit(std::move(t));
    return true;
  }

  /// Checkpoint = lane-local replay offset (the lane/stripe layout is a
  /// pure function of the task context, so it is not serialized). A
  /// restored spout continues from the next unread record; pacing restarts
  /// from the new Open time (stamps shift, but they only feed the latency
  /// histogram, which is documented as distorted under faults).
  bool SupportsSnapshot() const override { return true; }
  void Snapshot(std::string* out) const override { BinaryWriter(out).WriteU64(pos_); }
  void Restore(const std::string& blob) override {
    BinaryReader r(blob);
    pos_ = static_cast<size_t>(r.ReadU64());
  }

 private:
  const std::vector<RecordPtr>* input_;
  double rate_;
  size_t pos_ = 0;  ///< lane-local stripe position
  int lane_ = 0;
  int lanes_ = 1;
  int64_t start_us_ = 0;
};

/// Routes each record to joiner partitions per the configured strategy.
///
/// Under sharded ingestion (dispatcher parallelism N > 1, one-to-one with
/// the source lanes) each lane tags its data tuples with its lane id (in
/// the flag word) and broadcasts a frontier *watermark* to every joiner
/// every kWatermarkEvery records: "this lane will emit no record with seq
/// below W". Watermarks advance even for records that route nowhere, so
/// the joiners' lane merge never stalls on a quiet lane. Watermark tuples
/// are [lane, frontier] int pairs — joiners tell them apart from data
/// tuples by the type of field 0.
class DispatcherBolt : public stream::Bolt {
 public:
  DispatcherBolt(const DistributedJoinOptions* options, std::shared_ptr<SharedState> shared,
                 std::shared_ptr<AdaptiveRouterState> adaptive_state = nullptr)
      : options_(options),
        shared_(std::move(shared)),
        adaptive_state_(std::move(adaptive_state)) {}

  void Prepare(const stream::TaskContext& ctx) override {
    lane_ = ctx.task_index;
    lanes_ = std::max(1, options_->ingest_lanes);
    router_ = MakeRouter(*options_, adaptive_state_);
  }

  void Finish(stream::OutputCollector& out) override {
    if (lanes_ > 1) {
      // Terminal watermark: this lane is done; joiners may drain whatever
      // they buffered for it. Precedes EOS (the executor broadcasts EOS
      // after Finish + flush).
      EmitWatermarks(out, std::numeric_limits<int64_t>::max());
    }
    if (const auto* adaptive = dynamic_cast<const AdaptiveLengthRouter*>(router_.get())) {
      shared_->router_replans.store(adaptive->replans(), std::memory_order_relaxed);
      shared_->router_live_epochs.store(adaptive->live_epochs(), std::memory_order_relaxed);
    }
  }

  void Execute(stream::Tuple tuple, stream::OutputCollector& out) override {
    Dispatch(tuple, out);
  }

  void ExecuteBatch(stream::TupleBatch& batch, stream::OutputCollector& out) override {
    // Whole inbound batch routed without per-tuple virtual dispatch; the
    // collector coalesces the resulting EmitDirects per joiner task.
    for (stream::Tuple& tuple : batch) Dispatch(tuple, out);
  }

  /// The static routers are pure functions of the options, so a fresh
  /// Prepare almost fully recovers the dispatcher; the snapshot carries
  /// only the lane-watermark cadence state so a replayed lane re-emits
  /// watermarks at the identical points (the per-link sequence guard
  /// suppresses the duplicates). The adaptive router is excluded — its
  /// epoch state evolves with wall time, so a replayed run may route
  /// differently; it recovers by full replay only and is not covered by
  /// the exact-recovery guarantee.
  bool SupportsSnapshot() const override { return !options_->adaptive; }
  void Snapshot(std::string* out) const override {
    BinaryWriter w(out);
    w.WriteU64(since_watermark_);
    w.WriteU64(static_cast<uint64_t>(last_seq_));
  }
  void Restore(const std::string& blob) override {
    BinaryReader r(blob);
    since_watermark_ = r.ReadU64();
    last_seq_ = static_cast<int64_t>(r.ReadU64());
  }

 private:
  void Dispatch(stream::Tuple& tuple, stream::OutputCollector& out) {
    const auto record = tuple.Ptr<Record>(0);
    const int64_t emit_us = tuple.Int(1);
    router_->Route(*record, targets_);
    const int64_t lane_bits = static_cast<int64_t>(lane_) << kFlagLaneShift;
    for (const RouteTarget& target : targets_) {
      int64_t flags = lane_bits;
      if (target.store) flags |= kFlagStore;
      if (target.probe) flags |= kFlagProbe;
      stream::Tuple t = stream::MakeTuple(std::shared_ptr<const void>(record), flags, emit_us);
      t.set_payload_bytes(record->SerializedBytes());
      out.EmitDirect(kJoinerName, target.partition, std::move(t));
    }
    if (lanes_ > 1) {
      // Frontier advances on every routed record — including ones with no
      // targets — so degenerate records never stall the merge.
      last_seq_ = static_cast<int64_t>(record->seq);
      if (++since_watermark_ >= kWatermarkEvery) {
        since_watermark_ = 0;
        EmitWatermarks(out, last_seq_ + 1);
      }
    }
  }

  void EmitWatermarks(stream::OutputCollector& out, int64_t frontier) {
    for (int p = 0; p < options_->num_joiners; ++p) {
      out.EmitDirect(kJoinerName, p,
                     stream::MakeTuple(static_cast<int64_t>(lane_), frontier));
    }
  }

  const DistributedJoinOptions* options_;
  std::shared_ptr<SharedState> shared_;
  std::shared_ptr<AdaptiveRouterState> adaptive_state_;
  std::unique_ptr<Router> router_;
  std::vector<RouteTarget> targets_;
  int lane_ = 0;
  int lanes_ = 1;
  uint64_t since_watermark_ = 0;
  int64_t last_seq_ = -1;
};

/// Runs one local joiner partition; applies the seq-order emission rule and
/// reports latency + stats through SharedState.
class JoinerBolt : public stream::Bolt {
 public:
  JoinerBolt(const DistributedJoinOptions* options, std::shared_ptr<SharedState> shared)
      : options_(options), shared_(std::move(shared)) {}

  void Prepare(const stream::TaskContext& ctx) override {
    partition_ = ctx.task_index;
    metrics_ = ctx.metrics;
    queue_health_ = ctx.queue_health;
    shed_threshold_ = std::max<size_t>(
        1, static_cast<size_t>(options_->shed_watermark *
                               static_cast<double>(options_->queue_capacity)));
    lanes_ = std::max(1, options_->ingest_lanes);
    if (lanes_ > 1) {
      lane_buf_.assign(static_cast<size_t>(lanes_), {});
      lane_frontier_.assign(static_cast<size_t>(lanes_), 0);
      lane_pops_.assign(static_cast<size_t>(lanes_), 0);
      lane_frozen_len_.assign(static_cast<size_t>(lanes_), 0);
    }
    joiner_ = MakeLocalJoiner(*options_, partition_);
    if (!options_->store_dir.empty() && options_->spill_watermark > 0.0 &&
        options_->max_index_bytes > 0 && joiner_->SupportsSpill()) {
      // The spill directory is NOT cleared here: after a crash the
      // recovered base/delta chain holds handles into the previous
      // incarnation's segments. Open() treats leftover frames as
      // unclaimed; Restore re-claims the referenced ones and the rest are
      // purged once recovery completes. Retired segments wait for a
      // durable base that post-dates them (bases hold handles into
      // segments; see Freeze). Without periodic checkpoints no such base
      // ever comes, and every restore point inlines its cold records, so
      // they go at once.
      const std::string dir =
          options_->store_dir + "/spill_" + ctx.component + "_p" + std::to_string(partition_);
      const auto gc = options_->supervision.checkpoint_interval > 0
                          ? store::SpillStore::GcPolicy::kDeferred
                          : store::SpillStore::GcPolicy::kImmediate;
      const Status st = store::SpillStore::Open(dir, options_->store_segment_bytes, gc, &spill_);
      if (st.ok()) {
        const auto watermark = static_cast<size_t>(
            options_->spill_watermark * static_cast<double>(options_->max_index_bytes));
        joiner_->AttachSpillStore(spill_.get(), watermark);
      } else {
        // Spill is a memory/recall optimization; a joiner without it
        // falls back to budget eviction, so the run degrades, not dies.
        LOG(ERROR) << "spill store unavailable (" << st.ToString() << "); using eviction";
        spill_.reset();
      }
    }
  }

  void Execute(stream::Tuple tuple, stream::OutputCollector& out) override {
    SampleHealth(1);
    Process(tuple, out);
  }

  void ExecuteBatch(stream::TupleBatch& batch, stream::OutputCollector& out) override {
    // One health read per batch: the queue cannot refill mid-batch beyond
    // what the sample saw by more than the in-flight producers, and the
    // sample itself takes the health tracker's lock.
    SampleHealth(batch.size());
    for (stream::Tuple& tuple : batch) Process(tuple, out);
  }

  void Finish(stream::OutputCollector& out) override {
    if (lanes_ > 1) {
      // EOS from every dispatcher lane implies every lane is complete.
      // Normally the lanes' terminal watermarks have already drained the
      // merge buffers; release the frontiers and drain defensively so a
      // fault-path reordering can never swallow buffered tuples.
      for (uint64_t& f : lane_frontier_) f = std::numeric_limits<uint64_t>::max();
      DrainMerge(out);
    }
    // Side effects stay bolt-local until here so a crashed incarnation's
    // half-done work dies with it (the supervisor replays into a fresh
    // instance); the surviving incarnation publishes once.
    const JoinerStats& js = joiner_->stats();
    shared_->latency.Merge(latency_);
    shared_->joiner_stats[partition_] = js;
    if (!shed_seqs_.empty()) {
      std::lock_guard<std::mutex> lock(shared_->shed_mu);
      for (const uint64_t seq : shed_seqs_) {
        shared_->shed_probe_seqs.emplace_back(seq, partition_);
      }
    }
    // Task counters ride the transport's metrics barrier, so the
    // coordinator's result counters are cluster-wide under kTcp.
    metrics_->result_count.Add(result_count_);
    metrics_->stores.Add(js.stores);
    metrics_->shed_probes.Add(shed_probes_);
    metrics_->shed_pairs_upper_bound.Add(shed_ub_);
    metrics_->budget_evictions.Add(js.budget_evictions);
    metrics_->eviction_horizon_seq.Update(js.eviction_horizon_seq);
    metrics_->spilled_bytes.Add(js.spilled_bytes);
    metrics_->spill_reads.Add(js.spill_reads);
  }

  /// Checkpoint = emission-rule result count + shed accounting + (under
  /// sharded ingestion) the lane-merge state + the joiner's own snapshot.
  /// Merge-buffered tuples were consumed from the inbound queue *before*
  /// the checkpoint boundary and are never replayed, so they must ride in
  /// the checkpoint; lane frontiers ride along so the drain rule resumes
  /// exactly. Shed state rides in the checkpoint so a recovered task's
  /// counters stay exactly consistent with its emitted results (sheds
  /// during replay may differ from the crashed run's — queue pressure is
  /// not replayed — but count and seq list always move together). The
  /// latency histogram is deliberately not checkpointed: replayed probes
  /// re-measure, so under injected faults the latency distribution is
  /// approximate (result sets stay exact).
  bool SupportsSnapshot() const override { return joiner_->SupportsSnapshot(); }
  void Snapshot(std::string* out) const override {
    BinaryWriter w(out);
    WriteCounters(w);
    WriteMerge(*CaptureMerge(/*delta=*/false), w);
    std::string joiner_blob;
    joiner_->Snapshot(&joiner_blob);
    w.WriteBytes(joiner_blob);
  }
  void Restore(const std::string& blob) override {
    BinaryReader r(blob);
    ReadCounters(r);
    ReadMerge(r, /*delta=*/false);
    std::string joiner_blob;
    r.ReadBytes(&joiner_blob);
    joiner_->Restore(joiner_blob);
  }

  /// Checkpoint pipeline (TopologyBuilder::SetStore). The bolt header
  /// (a few counters + the shed seq list) is copied eagerly — it mutates
  /// with the very next tuple. The merge buffers are captured as
  /// RecordPtrs (immutable, so a refcount copy) and the joiner contributes
  /// its frozen view; both serialize later on the checkpoint thread. A
  /// base uses the Snapshot layout, so it restores through Restore(); a
  /// delta carries only the merge buffers' change since the previous
  /// freeze (see CaptureMerge).
  store::FrozenBlob Freeze(bool want_delta) override {
    auto header = std::make_shared<std::string>();
    {
      BinaryWriter w(header.get());
      WriteCounters(w);
    }
    store::FrozenBlob inner = want_delta ? joiner_->FreezeDelta() : joiner_->FreezeBase();
    std::shared_ptr<const MergeCapture> merge = CaptureMerge(inner.is_delta);
    MarkMergeFrozen();
    if (!inner.is_delta && spill_ != nullptr) {
      // Segments fully retired before this base was frozen are invisible
      // to it and to every later delta; reclaim them once it is durable.
      retire_marks_.push_back(spill_->TakeRetireMark());
    }
    auto inner_encode =
        std::make_shared<std::function<void(std::string*)>>(std::move(inner.encode));
    store::FrozenBlob f;
    f.is_delta = inner.is_delta;
    f.encode = [header, merge, inner_encode](std::string* out) {
      *out = std::move(*header);
      BinaryWriter w(out);
      WriteMerge(*merge, w);
      std::string joiner_blob;
      (*inner_encode)(&joiner_blob);
      w.WriteBytes(joiner_blob);
    };
    return f;
  }
  void RestoreDelta(const std::string& blob) override {
    BinaryReader r(blob);
    ReadCounters(r);
    ReadMerge(r, /*delta=*/true);
    std::string joiner_blob;
    r.ReadBytes(&joiner_blob);
    joiner_->RestoreDelta(joiner_blob);
  }
  void OnCheckpointDurable(uint64_t /*epoch*/, bool is_base) override {
    // Marks queue in freeze order and bases confirm in epoch order, so
    // front() is the mark taken when this base froze. The driver-submitted
    // initial base (epoch 0) predates Prepare's first Freeze and has no
    // mark — the empty-queue guard skips it.
    if (!is_base || spill_ == nullptr || retire_marks_.empty()) return;
    spill_->DeleteRetiredBefore(retire_marks_.front());
    retire_marks_.pop_front();
  }
  void OnRestoreComplete() override {
    // Restore and RestoreDelta re-claimed every frame the recovered state
    // references (a self-contained image re-appended its cold records to
    // fresh frames); whatever else a previous incarnation left is garbage.
    if (spill_ != nullptr) spill_->PurgeUnclaimed();
    retire_marks_.clear();
  }

 private:
  /// Reads the inbound queue's health and updates the shed state machine.
  /// The backlog is the queued depth plus the `in_hand` tuples the executor
  /// has already popped for this call: the sample runs after the pop, so
  /// without them a batch of at least (1 - watermark) x capacity could
  /// never see the watermark unless a producer refilled the queue first.
  /// kProbe/kBundle are level-triggered (shed while over the watermark);
  /// kOldest latches the backlog size on the upward crossing and sheds
  /// exactly that many probes, and stays latched until it has: the dip
  /// that shedding itself causes is not the joiner catching up, and a
  /// re-latch on the producer's next refill would shed every probe of a
  /// flood. kBundle additionally shrinks the stored window by 1/8 on each
  /// crossing, trading recall for service rate.
  void SampleHealth(size_t in_hand) {
    if (options_->shed_policy == stream::ShedPolicy::kNone || !queue_health_) return;
    const stream::QueueHealth h = queue_health_();
    const size_t backlog = h.depth + in_hand;
    const bool over = backlog >= shed_threshold_;
    const bool was_over = shed_active_;
    shed_active_ = over || shed_pending_ > 0;
    if (over && !was_over) {
      if (options_->shed_policy == stream::ShedPolicy::kOldest) {
        shed_pending_ += backlog;
      } else if (options_->shed_policy == stream::ShedPolicy::kBundle) {
        joiner_->EvictOldest(std::max<size_t>(1, joiner_->StoredCount() / 8));
      }
    }
  }

  bool ShouldShedProbe() {
    switch (options_->shed_policy) {
      case stream::ShedPolicy::kNone:
        return false;
      case stream::ShedPolicy::kProbe:
      case stream::ShedPolicy::kBundle:
        return shed_active_;
      case stream::ShedPolicy::kOldest:
        if (shed_pending_ > 0) {
          --shed_pending_;
          return true;
        }
        return false;
    }
    return false;
  }

  /// A data tuple queued behind the lane merge (sharded ingestion).
  struct PendingTuple {
    RecordPtr record;
    int64_t flags = 0;
    int64_t emit_us = 0;
  };

  void Process(stream::Tuple& tuple, stream::OutputCollector& out) {
    if (lanes_ > 1) {
      if (std::holds_alternative<int64_t>(tuple.field(0))) {
        // Watermark [lane, frontier]: the lane promises no record below
        // `frontier` from now on.
        const auto lane = static_cast<size_t>(tuple.Int(0));
        const auto frontier = static_cast<uint64_t>(tuple.Int(1));
        lane_frontier_[lane] = std::max(lane_frontier_[lane], frontier);
      } else {
        PendingTuple p{tuple.Ptr<Record>(0), tuple.Int(1), tuple.Int(2)};
        lane_buf_[static_cast<size_t>(p.flags >> kFlagLaneShift)].push_back(std::move(p));
      }
      DrainMerge(out);
      return;
    }
    ProcessInOrder(tuple.Ptr<Record>(0), tuple.Int(1), tuple.Int(2), out);
  }

  /// Releases merge-buffered tuples in global seq order: the next tuple to
  /// process is the minimum head seq across lane buffers, and it is safe
  /// to process once every *empty* lane's frontier has passed it (a lane's
  /// tuples arrive in ascending seq order, so a non-empty buffer's head
  /// already bounds that lane). This reproduces the per-joiner arrival
  /// order of a single-lane run, which the exactly-once emission rule and
  /// count-window eviction both depend on.
  void DrainMerge(stream::OutputCollector& out) {
    for (;;) {
      int best = -1;
      uint64_t best_seq = 0;
      uint64_t bound = std::numeric_limits<uint64_t>::max();
      for (int l = 0; l < lanes_; ++l) {
        const auto& buf = lane_buf_[static_cast<size_t>(l)];
        if (!buf.empty()) {
          const uint64_t head = buf.front().record->seq;
          if (best < 0 || head < best_seq) {
            best = l;
            best_seq = head;
          }
        } else {
          bound = std::min(bound, lane_frontier_[static_cast<size_t>(l)]);
        }
      }
      if (best < 0 || best_seq >= bound) return;
      PendingTuple p = std::move(lane_buf_[static_cast<size_t>(best)].front());
      lane_buf_[static_cast<size_t>(best)].pop_front();
      ++lane_pops_[static_cast<size_t>(best)];
      lane_frontier_[static_cast<size_t>(best)] =
          std::max(lane_frontier_[static_cast<size_t>(best)], best_seq + 1);
      ProcessInOrder(p.record, p.flags, p.emit_us, out);
    }
  }

  void WriteCounters(BinaryWriter& w) const {
    w.WriteU64(result_count_);
    w.WriteU64(shed_probes_);
    w.WriteU64(shed_ub_);
    w.WriteU64(shed_pending_);
    w.WriteU32(shed_active_ ? 1 : 0);
    w.WriteU64(shed_seqs_.size());
    for (const uint64_t seq : shed_seqs_) w.WriteU64(seq);
  }
  void ReadCounters(BinaryReader& r) {
    result_count_ = r.ReadU64();
    shed_probes_ = r.ReadU64();
    shed_ub_ = r.ReadU64();
    shed_pending_ = r.ReadU64();
    shed_active_ = r.ReadU32() != 0;
    shed_seqs_.clear();
    const uint64_t n = r.ReadU64();
    shed_seqs_.reserve(n);
    for (uint64_t i = 0; i < n; ++i) shed_seqs_.push_back(r.ReadU64());
  }

  /// Lane-merge state captured at a freeze (empty when sharding is off,
  /// keeping single-lane checkpoint blobs byte-identical to earlier
  /// builds). A full image holds each lane's whole buffer. A delta holds,
  /// per lane, the pops since the previous freeze and the appended suffix
  /// — the FIFO rule BundleJoiner uses for its eviction order. Pops can
  /// exceed the previous image's length when tuples were appended and
  /// drained within one interval; those never existed in the image.
  struct MergeCapture {
    bool delta = false;
    std::vector<uint64_t> frontier;
    std::vector<uint64_t> pops;  ///< delta only
    std::vector<std::vector<PendingTuple>> tuples;
  };

  std::shared_ptr<const MergeCapture> CaptureMerge(bool delta) const {
    auto c = std::make_shared<MergeCapture>();
    if (lanes_ <= 1) return c;
    c->delta = delta;
    c->frontier = lane_frontier_;
    if (delta) c->pops = lane_pops_;
    c->tuples.resize(static_cast<size_t>(lanes_));
    for (size_t l = 0; l < lane_buf_.size(); ++l) {
      const auto& buf = lane_buf_[l];
      size_t start = 0;
      if (delta && lane_frozen_len_[l] > lane_pops_[l]) {
        start = static_cast<size_t>(lane_frozen_len_[l] - lane_pops_[l]);
      }
      c->tuples[l].assign(buf.begin() + static_cast<ptrdiff_t>(start), buf.end());
    }
    return c;
  }

  /// The next delta is relative to the buffers as they stand now.
  void MarkMergeFrozen() {
    for (size_t l = 0; l < lane_buf_.size(); ++l) {
      lane_pops_[l] = 0;
      lane_frozen_len_[l] = lane_buf_[l].size();
    }
  }

  /// The one merge-state encoder, for bases, deltas, Snapshot and
  /// migration blobs alike. Records are re-encoded in full: buffered
  /// payloads may borrow frame arenas that do not survive an incarnation.
  /// Runs on the checkpoint thread for async freezes; the captured
  /// RecordPtrs keep any borrowed arena pinned until it is done.
  static void WriteMerge(const MergeCapture& c, BinaryWriter& w) {
    if (c.frontier.empty()) return;
    w.WriteU32(static_cast<uint32_t>(c.frontier.size()));
    std::string encoded;
    for (size_t l = 0; l < c.frontier.size(); ++l) {
      w.WriteU64(c.frontier[l]);
      if (c.delta) w.WriteU64(c.pops[l]);
      w.WriteU64(c.tuples[l].size());
      for (const PendingTuple& p : c.tuples[l]) {
        w.WriteU64(static_cast<uint64_t>(p.flags));
        w.WriteU64(static_cast<uint64_t>(p.emit_us));
        encoded.clear();
        EncodeRecord(*p.record, &encoded);
        w.WriteBytes(encoded);
      }
    }
  }
  void ReadMerge(BinaryReader& r, bool delta) {
    if (lanes_ <= 1) return;
    const uint32_t lanes = r.ReadU32();
    CHECK_EQ(static_cast<int>(lanes), lanes_) << "checkpoint from a different lane count";
    for (size_t l = 0; l < lane_buf_.size(); ++l) {
      lane_frontier_[l] = r.ReadU64();
      auto& buf = lane_buf_[l];
      if (delta) {
        const uint64_t pops = r.ReadU64();
        for (uint64_t i = 0; i < pops && !buf.empty(); ++i) buf.pop_front();
      } else {
        buf.clear();
      }
      const uint64_t n = r.ReadU64();
      for (uint64_t i = 0; i < n; ++i) {
        PendingTuple p;
        p.flags = static_cast<int64_t>(r.ReadU64());
        p.emit_us = static_cast<int64_t>(r.ReadU64());
        std::string encoded;
        r.ReadBytes(&encoded);
        auto record = std::make_shared<Record>();
        CHECK(DecodeRecord(encoded.data(), encoded.size(), record.get()))
            << "corrupt merge-buffer record in checkpoint";
        p.record = std::move(record);
        buf.push_back(std::move(p));
      }
    }
    MarkMergeFrozen();
  }

  void ProcessInOrder(const RecordPtr& record, int64_t flags, int64_t emit_us,
                      stream::OutputCollector& out) {
    const bool store = (flags & kFlagStore) != 0;
    bool probe = (flags & kFlagProbe) != 0;
    if (probe && ShouldShedProbe()) {
      // Shed the probe side only: the store below still lands, so window
      // and index state match an unshed run and the loss is exactly this
      // record's pairs. No latency sample — the record was not served.
      probe = false;
      ++shed_probes_;
      shed_ub_ += joiner_->StoredCount();
      if (options_->collect_results) shed_seqs_.push_back(record->seq);
    }
    if (!store && !probe) return;
    // Detach-on-store: a record entering the index outlives this frame's
    // processing window, so a frame-borrowed token array is copied to
    // owning storage here — otherwise every stored record would pin its
    // whole frame arena (and checkpoints would serialize borrowed spans
    // racing frame-buffer recycling). Probe-only traffic — the bulk under
    // replicating strategies — keeps the zero-copy borrow.
    const RecordPtr durable = store ? DetachRecord(record) : record;
    joiner_->Process(durable, store, probe, [&](const ResultPair& pair) {
      // Exactly-once rule: only the probe that arrives after its partner
      // reports the pair (see DESIGN.md §4).
      if (pair.partner_seq >= pair.probe_seq) return;
      ++result_count_;
      if (options_->collect_results) {
        out.Emit(stream::MakeTuple(
            static_cast<int64_t>(pair.probe_id), static_cast<int64_t>(pair.probe_seq),
            static_cast<int64_t>(pair.partner_id), static_cast<int64_t>(pair.partner_seq)));
      }
    });
    if (probe) {
      latency_.Add(static_cast<uint64_t>(std::max<int64_t>(0, NowMicros() - emit_us)));
    }
  }

  const DistributedJoinOptions* options_;
  std::shared_ptr<SharedState> shared_;
  int partition_ = 0;
  /// Lane merge (sharded ingestion; inert at lanes_ == 1). frontier[l] is
  /// the smallest seq lane l may still deliver; buffers hold tuples whose
  /// global turn has not come. Memory is bounded by how far lanes drift
  /// apart (kWatermarkEvery bounds the quiet-lane case; a genuinely slow
  /// lane can back up the others' buffers — see docs/INTERNALS.md §14).
  int lanes_ = 1;
  std::vector<std::deque<PendingTuple>> lane_buf_;
  std::vector<uint64_t> lane_frontier_;
  /// Per lane: pops since the last freeze and the buffer length at it
  /// (the delta bookkeeping behind CaptureMerge).
  std::vector<uint64_t> lane_pops_;
  std::vector<uint64_t> lane_frozen_len_;
  stream::TaskMetrics* metrics_ = nullptr;
  std::function<stream::QueueHealth()> queue_health_;
  std::unique_ptr<LocalJoiner> joiner_;
  std::unique_ptr<store::SpillStore> spill_;
  /// Spill retire marks taken at each async base freeze, consumed when
  /// that base becomes durable (see OnCheckpointDurable).
  std::deque<uint64_t> retire_marks_;
  uint64_t result_count_ = 0;
  Histogram latency_;

  // Shed state machine (see SampleHealth / ShouldShedProbe).
  size_t shed_threshold_ = 0;
  bool shed_active_ = false;
  uint64_t shed_pending_ = 0;
  uint64_t shed_probes_ = 0;
  uint64_t shed_ub_ = 0;
  std::vector<uint64_t> shed_seqs_;
};

/// Accumulates collected result pairs (parallelism 1).
class SinkBolt : public stream::Bolt {
 public:
  explicit SinkBolt(std::shared_ptr<SharedState> shared) : shared_(std::move(shared)) {}

  void Execute(stream::Tuple tuple, stream::OutputCollector& /*out*/) override {
    ResultPair pair{static_cast<uint64_t>(tuple.Int(0)), static_cast<uint64_t>(tuple.Int(1)),
                    static_cast<uint64_t>(tuple.Int(2)), static_cast<uint64_t>(tuple.Int(3))};
    std::lock_guard<std::mutex> lock(shared_->pairs_mu);
    shared_->pairs.push_back(pair);
  }

  /// The sink's state lives in SharedState (it must outlive the run), so
  /// the snapshot is just the count of pairs appended; a restore truncates
  /// back to it, undoing the crashed incarnation's appends. Safe because
  /// the sink is the vector's only writer while the topology runs.
  bool SupportsSnapshot() const override { return true; }
  void Snapshot(std::string* out) const override {
    std::lock_guard<std::mutex> lock(shared_->pairs_mu);
    BinaryWriter(out).WriteU64(shared_->pairs.size());
  }
  void Restore(const std::string& blob) override {
    BinaryReader r(blob);
    const uint64_t n = r.ReadU64();
    std::lock_guard<std::mutex> lock(shared_->pairs_mu);
    CHECK_LE(n, shared_->pairs.size());
    shared_->pairs.resize(n);
  }

 private:
  std::shared_ptr<SharedState> shared_;
};

LatencySummary SummarizeLatency(const Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.mean_us = h.mean();
  s.p50_us = h.p50();
  s.p95_us = h.p95();
  s.p99_us = h.p99();
  s.max_us = h.max();
  return s;
}

/// What a length-based run routes by: `options.length_partition`, or an
/// even split of lengths 1..256 when it is empty, and the adaptive options
/// with a time window's span as the epoch-retirement horizon.
struct LengthRouting {
  LengthPartition partition;
  AdaptiveRouterOptions adaptive;
};

LengthRouting EffectiveLengthRouting(const DistributedJoinOptions& options) {
  LengthRouting routing{options.length_partition, options.adaptive_options};
  if (routing.partition.bounds().empty()) {
    routing.partition = PartitionUniform(1, 256, options.num_joiners);
  }
  CHECK_EQ(routing.partition.num_partitions(), options.num_joiners)
      << "length partition size must match num_joiners";
  if (options.window.kind == WindowSpec::Kind::kTime) {
    routing.adaptive.window_span_micros = options.window.span_micros;
  }
  return routing;
}

/// Declares the join's components on `builder`: `lanes` source/dispatcher
/// pairs, the joiners, and the sink when results are collected. Under a
/// transport, source, dispatchers and sink sit on worker 0 and joiner i on
/// worker i % (initial workers). Returns the initial worker count (elastic
/// runs may start packed onto fewer). The factories borrow `input` and
/// `options`, so both must outlive the built topology.
int DeclareJoinComponents(const std::vector<RecordPtr>& input,
                          const DistributedJoinOptions& options, int workers,
                          const std::shared_ptr<SharedState>& shared,
                          const std::shared_ptr<AdaptiveRouterState>& adaptive_state,
                          stream::TopologyBuilder* builder) {
  const int lanes = std::max(1, options.ingest_lanes);
  const bool pin = options.transport != JoinTransport::kInproc;
  // Sharded front end: `lanes` spout/dispatcher pairs, wired one-to-one so
  // lane i's stripe of the input flows through lane i's router instance.
  stream::SpoutDeclarer source = builder->SetSpout(
      kSourceName,
      [&input, &options] {
        return std::make_unique<RecordStreamSpout>(&input, options.arrival_rate_per_sec);
      },
      lanes);
  if (pin) source.SetPlacement(std::vector<int>(lanes, 0));
  stream::BoltDeclarer dispatcher = builder->SetBolt(
      kDispatcherName,
      [&options, shared, adaptive_state] {
        return std::make_unique<DispatcherBolt>(&options, shared, adaptive_state);
      },
      lanes);
  if (lanes > 1) {
    dispatcher.PartnerGrouping(kSourceName);
  } else {
    dispatcher.ShuffleGrouping(kSourceName);
  }
  if (pin) dispatcher.SetPlacement(std::vector<int>(lanes, 0));
  stream::BoltDeclarer joiner =
      builder
          ->SetBolt(
              kJoinerName,
              [&options, shared] { return std::make_unique<JoinerBolt>(&options, shared); },
              options.num_joiners)
          .DirectGrouping(kDispatcherName);
  // Elastic runs may start packed onto fewer workers; the controller
  // spreads/packs the joiner tasks at runtime.
  const int init_workers = options.elastic && options.elastic_initial_workers > 0
                               ? std::min(options.elastic_initial_workers, workers)
                               : workers;
  if (pin || options.elastic) {
    std::vector<int> placement(options.num_joiners);
    for (int i = 0; i < options.num_joiners; ++i) placement[i] = i % init_workers;
    joiner.SetPlacement(std::move(placement));
  }
  if (options.collect_results) {
    stream::BoltDeclarer sink =
        builder->SetBolt(kSinkName, [shared] { return std::make_unique<SinkBolt>(shared); }, 1)
            .GlobalGrouping(kJoinerName);
    if (pin) sink.SetPlacement({0});
  }
  return init_workers;
}

}  // namespace

Status CheckFaultScript(const DistributedJoinOptions& options) {
  StatusOr<stream::FaultScript> script = stream::FaultScript::Parse(options.fault_script);
  if (!script.ok()) return script.status();
  int workers = options.num_workers > 0 ? options.num_workers : options.num_joiners;
  if (options.transport == JoinTransport::kTcp) {
    StatusOr<std::vector<net::Endpoint>> cluster = net::ParseClusterSpec(options.cluster);
    if (!cluster.ok()) return cluster.status();
    workers = static_cast<int>(cluster.value().size());
  }
  const std::vector<RecordPtr> no_input;
  stream::TopologyBuilder builder;
  builder.SetNumWorkers(workers);
  DeclareJoinComponents(no_input, options, workers, nullptr, nullptr, &builder);
  return stream::ResolveFaultScript(
             script.value(), builder.Shape(options.transport != JoinTransport::kTcp))
      .status();
}

const char* DistributionStrategyName(DistributionStrategy s) {
  switch (s) {
    case DistributionStrategy::kLengthBased:
      return "length";
    case DistributionStrategy::kPrefixBased:
      return "prefix";
    case DistributionStrategy::kBroadcast:
      return "broadcast";
    case DistributionStrategy::kReplicated:
      return "replicated";
  }
  return "unknown";
}

const char* LocalAlgorithmName(LocalAlgorithm a) {
  switch (a) {
    case LocalAlgorithm::kRecord:
      return "record";
    case LocalAlgorithm::kBundle:
      return "bundle";
    case LocalAlgorithm::kBruteForce:
      return "bruteforce";
  }
  return "unknown";
}

const char* JoinTransportName(JoinTransport t) {
  switch (t) {
    case JoinTransport::kInproc:
      return "inproc";
    case JoinTransport::kLoopback:
      return "loopback";
    case JoinTransport::kTcp:
      return "tcp";
  }
  return "unknown";
}

net::PayloadCodec RecordWireCodec() {
  net::PayloadCodec codec;
  codec.encode = [](const std::shared_ptr<const void>& payload, std::string* out) {
    EncodeRecordDelta(*static_cast<const Record*>(payload.get()), out);
  };
  codec.decode = [](const char* data, size_t size, const std::shared_ptr<net::FrameArena>& arena,
                    std::shared_ptr<const void>* out) {
    if (arena == nullptr) {
      // Materializing path (no stable frame storage): the record owns its
      // tokens.
      auto record = std::make_shared<Record>();
      if (!DecodeRecordDelta(data, size, record.get())) return false;
      *out = std::shared_ptr<const void>(std::move(record));
      return true;
    }
    // Zero-copy path: the record lives in arena storage and its tokens
    // decode into arena token chunks. The aliasing shared_ptr pins the
    // arena, so the views stay valid for as long as anyone holds the
    // payload.
    const auto alloc = [](void* ctx, size_t n) -> TokenId* {
      return static_cast<net::FrameArena*>(ctx)->AllocTokens(n);
    };
    Record* record = arena->AllocRecord();
    if (!DecodeRecordDeltaBorrowed(data, size, alloc, arena.get(), record)) return false;
    *out = std::shared_ptr<const void>(arena, record);
    return true;
  };
  return codec;
}

const char* PartitionMethodName(PartitionMethod m) {
  switch (m) {
    case PartitionMethod::kLoadAwareGreedy:
      return "load-aware-greedy";
    case PartitionMethod::kLoadAwareDP:
      return "load-aware-dp";
    case PartitionMethod::kLoadAwareFull:
      return "load-aware-full";
    case PartitionMethod::kUniform:
      return "uniform";
    case PartitionMethod::kEqualFrequency:
      return "equal-frequency";
  }
  return "unknown";
}

LengthPartition PlanLengthPartition(const std::vector<RecordPtr>& sample,
                                    const SimilaritySpec& sim, int k, PartitionMethod method) {
  LengthHistogram histogram;
  histogram.AddRecords(sample);
  if (histogram.TotalRecords() == 0) return PartitionUniform(1, 256, k);
  switch (method) {
    case PartitionMethod::kLoadAwareGreedy:
      return PartitionLoadAwareGreedy(ComputePerLengthLoad(histogram, sim), k);
    case PartitionMethod::kLoadAwareDP:
      return PartitionLoadAwareDP(ComputePerLengthLoad(histogram, sim), k);
    case PartitionMethod::kLoadAwareFull:
      return PartitionByCostModelGreedy(JoinCostModel(histogram, sim), k);
    case PartitionMethod::kUniform: {
      size_t min_l = histogram.MaxLength();
      for (size_t l = 0; l <= histogram.MaxLength(); ++l) {
        if (histogram.CountAt(l) > 0) {
          min_l = l;
          break;
        }
      }
      return PartitionUniform(min_l, histogram.MaxLength(), k);
    }
    case PartitionMethod::kEqualFrequency:
      return PartitionEqualFrequency(histogram, k);
  }
  return PartitionUniform(1, 256, k);
}

std::unique_ptr<Router> MakeRouter(const DistributedJoinOptions& options,
                                   std::shared_ptr<AdaptiveRouterState> adaptive_state) {
  if (adaptive_state != nullptr) {
    // Lane-sharded adaptive routing: every dispatcher lane routes against
    // the same epoch list, published by pointer swap under the state's
    // snapshot mutex.
    CHECK(options.adaptive);
    return std::make_unique<AdaptiveLengthRouter>(std::move(adaptive_state));
  }
  switch (options.strategy) {
    case DistributionStrategy::kLengthBased: {
      LengthRouting routing = EffectiveLengthRouting(options);
      if (options.adaptive) {
        return std::make_unique<AdaptiveLengthRouter>(
            options.sim, std::move(routing.partition), routing.adaptive);
      }
      return std::make_unique<LengthRouter>(options.sim, std::move(routing.partition));
    }
    case DistributionStrategy::kPrefixBased:
      return std::make_unique<PrefixRouter>(options.sim, options.num_joiners);
    case DistributionStrategy::kBroadcast:
      return std::make_unique<BroadcastRouter>(options.num_joiners);
    case DistributionStrategy::kReplicated:
      return std::make_unique<ReplicatedRouter>(options.num_joiners);
  }
  LOG(FATAL) << "unknown strategy";
  return nullptr;
}

std::unique_ptr<LocalJoiner> MakeLocalJoiner(const DistributedJoinOptions& options,
                                             int partition) {
  const bool prefix_strategy = options.strategy == DistributionStrategy::kPrefixBased;
  switch (options.local) {
    case LocalAlgorithm::kRecord: {
      RecordJoinerOptions ro;
      ro.max_index_bytes = options.max_index_bytes;
      if (prefix_strategy) {
        ro.token_filter =
            PrefixRouter(options.sim, options.num_joiners).TokenFilterFor(partition);
        ro.dedup_by_min_prefix_token = true;
      }
      return std::make_unique<RecordJoiner>(options.sim, options.window, std::move(ro));
    }
    case LocalAlgorithm::kBundle: {
      CHECK(!prefix_strategy)
          << "bundle joiner is not defined for the prefix distribution strategy";
      BundleJoinerOptions bo = options.bundle;
      bo.max_index_bytes = options.max_index_bytes;
      return std::make_unique<BundleJoiner>(options.sim, options.window, bo);
    }
    case LocalAlgorithm::kBruteForce:
      CHECK(!prefix_strategy)
          << "brute-force joiner cannot apply the prefix dedup rule";
      return std::make_unique<BruteForceJoiner>(options.sim, options.window);
  }
  LOG(FATAL) << "unknown local algorithm";
  return nullptr;
}

DistributedJoinResult RunDistributedJoin(const std::vector<RecordPtr>& input,
                                         const DistributedJoinOptions& options) {
  CHECK_GE(options.num_joiners, 1);
  const int lanes = std::max(1, options.ingest_lanes);
  std::shared_ptr<AdaptiveRouterState> adaptive_state;
  if (lanes > 1) {
    CHECK(options.strategy == DistributionStrategy::kLengthBased ||
          options.strategy == DistributionStrategy::kPrefixBased)
        << "--ingest_lanes requires a stateless routing strategy "
           "(length or prefix); " << DistributionStrategyName(options.strategy)
        << " keeps per-dispatcher round-robin state";
    // The joiners' lane merge orders by record seq, so the interleaved
    // stream is only well defined when seqs strictly increase in input
    // order (the corpus loader guarantees this).
    for (size_t i = 1; i < input.size(); ++i) {
      CHECK_LT(input[i - 1]->seq, input[i]->seq)
          << "--ingest_lanes requires strictly increasing record seqs";
    }
    if (options.adaptive && options.strategy == DistributionStrategy::kLengthBased) {
      // All lanes must share one epoch list; build the state here and hand
      // it to every lane's router.
      LengthRouting routing = EffectiveLengthRouting(options);
      adaptive_state = std::make_shared<AdaptiveRouterState>(
          options.sim, std::move(routing.partition), routing.adaptive);
    }
  }
  int workers = options.num_workers > 0 ? options.num_workers : options.num_joiners;

  std::shared_ptr<stream::Transport> transport;
  if (options.transport == JoinTransport::kLoopback) {
    transport = std::make_shared<net::LoopbackTransport>(workers, RecordWireCodec(),
                                                         options.net_arena_pool);
  } else if (options.transport == JoinTransport::kTcp) {
    StatusOr<std::vector<net::Endpoint>> cluster = net::ParseClusterSpec(options.cluster);
    CHECK(cluster.ok()) << "bad cluster spec: " << cluster.status().message();
    workers = static_cast<int>(cluster.value().size());
    CHECK_GE(options.rank, 0);
    CHECK_LT(options.rank, workers) << "rank outside the cluster";
    net::TcpTransportOptions net_options;
    net_options.cluster = std::move(cluster).value();
    net_options.rank = options.rank;
    net_options.listen_override = options.listen;
    net_options.connect_timeout_micros = options.net_connect_timeout_micros;
    net_options.codec = RecordWireCodec();
    net_options.arena_pool_capacity = options.net_arena_pool;
    transport = std::make_shared<net::TcpTransport>(std::move(net_options));
  }

  auto shared = std::make_shared<SharedState>(options.num_joiners);

  stream::TopologyBuilder builder;
  builder.SetNumWorkers(workers)
      .SetQueueCapacity(options.queue_capacity)
      .SetPinThreads(options.pin_threads)
      .SetBatchSize(options.batch_size)
      .SetRemoteByteCostNanos(options.remote_byte_cost_ns);
  if (options.supervise || options.elastic || !options.fault_script.empty()) {
    builder.SetSupervision(options.supervision);
  }
  CHECK(options.store_dir.empty() || options.supervise || options.elastic ||
        !options.fault_script.empty())
      << "store_dir requires supervision (checkpoints drive the store)";
  store::StoreOptions so;
  so.dir = options.store_dir;
  so.mode = options.checkpoint_mode;
  so.delta_base_interval = options.delta_base_interval;
  builder.SetStore(std::move(so));
  if (options.elastic) builder.SetElastic(true);
  if (!options.fault_script.empty()) {
    StatusOr<stream::FaultScript> script = stream::FaultScript::Parse(options.fault_script);
    CHECK(script.ok()) << "bad --fault_script: " << script.status().message();
    builder.SetFaultScript(std::move(script).value());
  }
  stream::OverloadOptions overload;
  overload.shed_policy = options.shed_policy;
  overload.shed_watermark = options.shed_watermark;
  overload.stall_timeout_micros = options.stall_timeout_micros;
  if (overload.enabled()) builder.SetOverload(overload);
  if (transport != nullptr) builder.SetTransport(transport);
  const int init_workers =
      DeclareJoinComponents(input, options, workers, shared, adaptive_state, &builder);

  std::unique_ptr<stream::Topology> topology = builder.Build();
  // The elastic controller runs beside Wait(): it samples per-joiner
  // execution rates and live-migrates joiner tasks (spread near peak load,
  // pack when load collapses, rebalance past migrate_threshold). Under
  // kTcp only the coordinator drives migrations.
  const bool run_controller =
      options.elastic && workers > 1 &&
      (options.transport != JoinTransport::kTcp || options.rank == 0);
  if (!run_controller) {
    topology->Run();
  } else {
    topology->Submit();
    std::atomic<bool> controller_stop{false};
    stream::Topology* topo = topology.get();
    std::thread controller([&options, topo, &controller_stop, workers, init_workers] {
      const int n = options.num_joiners;
      std::vector<uint64_t> last_exec(static_cast<size_t>(n), 0);
      double peak_rate = 0.0;
      int active = init_workers;
      while (!controller_stop.load(std::memory_order_acquire)) {
        // Sleep in slices so Wait() never blocks a full interval on join.
        int64_t left = options.elastic_interval_micros;
        while (left > 0 && !controller_stop.load(std::memory_order_acquire)) {
          const int64_t slice = left < 2000 ? left : 2000;
          std::this_thread::sleep_for(std::chrono::microseconds(slice));
          left -= slice;
        }
        if (controller_stop.load(std::memory_order_acquire)) break;
        const std::vector<stream::TaskStats> stats = topo->TasksOf(kJoinerName);
        std::vector<double> load(static_cast<size_t>(n), 0.0);
        double total = 0.0;
        for (int i = 0; i < n; ++i) {
          const uint64_t exec = stats[static_cast<size_t>(i)].metrics->executed.Get();
          load[static_cast<size_t>(i)] =
              static_cast<double>(exec - last_exec[static_cast<size_t>(i)]);
          last_exec[static_cast<size_t>(i)] = exec;
          total += load[static_cast<size_t>(i)];
        }
        peak_rate = std::max(total, peak_rate * 0.95);  // decaying peak tracker
        int desired = active;
        if (total > 0.7 * peak_rate && active < workers) {
          desired = std::min(workers, active * 2);  // near peak: spread out
        } else if (total < 0.3 * peak_rate && active > 1) {
          desired = (active + 1) / 2;  // load collapsed: pack together
        }
        std::vector<int> cur(static_cast<size_t>(n), 0);
        for (int i = 0; i < n; ++i) {
          cur[static_cast<size_t>(i)] = topo->TaskWorker(kJoinerName, i);
        }
        const std::vector<WorkerMove> moves =
            PlanWorkerMigrations(load, cur, desired, options.migrate_threshold);
        bool all_ok = true;
        for (const WorkerMove& mv : moves) {
          const Status st = topo->MigrateTask(kJoinerName, mv.task_index, mv.target_worker);
          if (!st.ok()) {
            // Usually the stream ending under us (FailedPrecondition);
            // keep the old active count and re-evaluate next tick.
            all_ok = false;
            break;
          }
        }
        if (all_ok) active = desired;
      }
    });
    topology->Wait();
    controller_stop.store(true, std::memory_order_release);
    controller.join();
  }

  DistributedJoinResult result;
  result.input_records = input.size();
  result.elapsed_seconds = topology->ElapsedSeconds();
  result.throughput_rps = result.elapsed_seconds > 0.0
                              ? static_cast<double>(input.size()) / result.elapsed_seconds
                              : 0.0;
  static_cast<stream::CounterTotals&>(result) = stream::Aggregate(topology->AllTasks());
  if (options.collect_results) result.pairs = std::move(shared->pairs);

  const stream::CounterTotals dispatch = stream::Aggregate(topology->TasksOf(kDispatcherName));
  result.dispatch_messages = dispatch.emitted;
  result.dispatch_bytes = dispatch.total_bytes;

  result.joiner_stats = shared->joiner_stats;
  result.joiner_busy_micros.reserve(options.num_joiners);
  for (const stream::TaskStats& t : topology->TasksOf(kJoinerName)) {
    result.joiner_busy_micros.push_back(t.metrics->busy_nanos.Get() / 1000);
  }
  // Pipeline breakdown: per-stage busy/idle/blocked sums for the bench's
  // stage table (source idle is pacing sleep, not queue waiting).
  const auto add_stage = [&result, &topology](const char* name) {
    const std::vector<stream::TaskStats> tasks = topology->TasksOf(name);
    if (tasks.empty()) return;
    const stream::CounterTotals agg = stream::Aggregate(tasks);
    DistributedJoinResult::StageTime st;
    st.component = name;
    st.tasks = static_cast<int>(tasks.size());
    st.busy_micros = agg.busy_nanos / 1000;
    st.idle_micros = agg.idle_nanos / 1000;
    st.blocked_micros = agg.blocked_nanos / 1000;
    result.stage_times.push_back(std::move(st));
  };
  add_stage(kSourceName);
  add_stage(kDispatcherName);
  add_stage(kJoinerName);
  if (options.collect_results) add_stage(kSinkName);
  // Critical path over the system's tasks. The source is the experiment
  // harness (its CPU includes pacing), so it is excluded.
  uint64_t bottleneck_ns = 0;
  for (const stream::TaskStats& t : topology->AllTasks()) {
    if (t.component == kSourceName) continue;
    bottleneck_ns = std::max(bottleneck_ns, t.metrics->busy_nanos.Get());
  }
  result.bottleneck_busy_micros = bottleneck_ns / 1000;
  result.scaled_throughput_rps =
      bottleneck_ns > 0
          ? static_cast<double>(input.size()) / (static_cast<double>(bottleneck_ns) / 1e9)
          : 0.0;
  result.replication_factor = input.empty() ? 0.0
                                             : static_cast<double>(result.stores) /
                                                   static_cast<double>(input.size());
  result.latency = SummarizeLatency(shared->latency);
  result.router_replans = shared->router_replans.load(std::memory_order_relaxed);
  result.router_live_epochs = shared->router_live_epochs.load(std::memory_order_relaxed);
  result.ok = topology->ok();
  result.failure_message = topology->failure_message();
  result.shed_probe_seqs = std::move(shared->shed_probe_seqs);
  return result;
}

std::vector<ResultPair> SingleNodeJoin(const std::vector<RecordPtr>& input,
                                       LocalJoiner& joiner) {
  std::vector<ResultPair> pairs;
  for (const RecordPtr& r : input) {
    joiner.Process(r, /*store=*/true, /*probe=*/true,
                   [&pairs](const ResultPair& p) { pairs.push_back(p); });
  }
  return pairs;
}

}  // namespace dssj
