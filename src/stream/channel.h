#ifndef DSSJ_STREAM_CHANNEL_H_
#define DSSJ_STREAM_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/migration.h"
#include "stream/ring_queue.h"
#include "stream/value.h"

namespace dssj::stream {

/// A unit travelling over one producer-task → consumer-task link: either a
/// data tuple or an end-of-stream marker from one upstream task. Within a
/// process envelopes move through the consumer's RingQueue<Envelope> (see
/// stream/ring_queue.h); across processes they are framed by the wire
/// format (src/net/wire.h) with every field except extra_busy_ns preserved
/// end-to-end.
///
/// Envelopes parsed from the network may carry *borrowed* payloads: record
/// token arrays that alias the receive arena holding the raw frame bytes
/// (see src/net/frame_arena.h). The alias is safe to pass along the
/// topology — the tuple's shared_ptr pins the arena — but any consumer that
/// stores tokens past the tuple's lifetime (index inserts, checkpoints,
/// shed-log captures) must detach first via DetachRecord().
struct Envelope {
  Tuple tuple;
  int32_t source_task = -1;
  bool eos = false;
  /// Simulated deserialization cost charged to the consumer's busy time.
  /// Process-local accounting only; never crosses the wire (a real
  /// transport pays real CPU instead).
  int64_t extra_busy_ns = 0;
  /// Canonical per-link sequence number (1-based over the data envelopes of
  /// one producer-task → consumer-task link), assigned by the producer's
  /// collector. 0 when the topology runs unsupervised (nothing tracks it).
  /// On an EOS marker this instead carries the link's final data count, so
  /// the consumer can detect (and recover) trailing dropped envelopes.
  uint64_t link_seq = 0;
};

/// Producer-side endpoint of one consumer task. The topology routes every
/// delivery through a Channel so the same collector code drives an
/// in-process queue, a serializing loopback, or a TCP connection. Semantics
/// mirror RingQueue: Push/PushBatch block for backpressure and return
/// the depth after the push (the consumer queue for in-process channels,
/// the bounded send buffer for remote ones), or 0 when the endpoint is
/// closed and the items were rejected. Channels are not thread-safe — each
/// producer task uses its own view (remote channels serialize on their
/// shared send queue internally).
class Channel {
 public:
  virtual ~Channel() = default;

  virtual size_t Push(Envelope env) = 0;

  /// Pushes every element in order, draining the vector; a closed endpoint
  /// leaves the unaccepted remainder (callers clear it — the consumer is
  /// gone).
  virtual size_t PushBatch(std::vector<Envelope>* envs) = 0;

  /// True when Push lands directly on the consumer's inbound queue in this
  /// process (the returned depth is then that queue's depth).
  virtual bool inproc() const = 0;
};

/// Channel over the consumer's in-process inbound queue — the single-process
/// fast path, byte-for-byte the pre-transport delivery.
class InprocChannel final : public Channel {
 public:
  explicit InprocChannel(RingQueue<Envelope>* queue) : queue_(queue) {}

  size_t Push(Envelope env) override { return queue_->Push(std::move(env)); }
  size_t PushBatch(std::vector<Envelope>* envs) override { return queue_->PushBatch(envs); }
  bool inproc() const override { return true; }

 private:
  RingQueue<Envelope>* queue_;
};

/// Task → worker(rank) placement handed to a transport at start.
struct TransportPlan {
  int num_tasks = 0;
  /// Worker (= rank for a real transport) hosting each task, by task id.
  std::vector<int> task_worker;
};

/// Abstract inter-worker transport. Implementations live in src/net/
/// (TcpTransport, LoopbackTransport); the stream layer only needs this
/// interface to rewire cross-worker links through remote channels.
///
/// Lifecycle: Start() once (from Topology Build), OpenChannel() per
/// non-local consumer task, Finish() once after the local tasks exited
/// (from Topology Wait). All methods are called from the topology; the
/// transport may deliver inbound batches and failures from its own threads.
class Transport {
 public:
  /// Delivers inbound envelopes to a locally hosted task, returning the
  /// consumer queue depth after the push (0 = rejected/closed). Thread-safe;
  /// blocks for backpressure.
  using InboundSink = std::function<size_t(int dst_task, std::vector<Envelope>&& batch)>;

  /// Reports a fatal transport error (malformed frame, connect timeout,
  /// peer failure). The topology marks the run failed and unblocks.
  using FailureSink = std::function<void(const std::string& message)>;

  /// This process's view handed to Finish: local failure state plus the
  /// serialized per-task metric blobs to ship to the coordinator
  /// (SerializeTaskCounters; empty on the coordinator itself).
  struct LocalSummary {
    bool failed = false;
    std::string failure_message;
    std::vector<std::pair<int, std::string>> task_metrics;  ///< (task id, blob)
  };

  /// Invoked on the coordinator for every metrics blob received from a
  /// worker (MergeTaskCounters into the matching task).
  using MetricsMerge = std::function<void(int task_id, const std::string& blob)>;

  struct FinishReport {
    bool remote_failed = false;
    std::string remote_failure;
  };

  virtual ~Transport() = default;

  virtual int local_rank() const = 0;
  virtual int num_ranks() const = 0;

  /// True when every task runs in this process regardless of its worker id
  /// (LoopbackTransport): cross-worker links still serialize through the
  /// wire codec, but deliver locally.
  virtual bool hosts_all_tasks() const { return false; }

  virtual void Start(const TransportPlan& plan, InboundSink sink, FailureSink on_failure) = 0;

  /// Producer endpoint for a task hosted on another rank (or, under
  /// hosts_all_tasks, for a cross-worker edge).
  virtual std::unique_ptr<Channel> OpenChannel(int dst_task) = 0;

  /// Scripted network fault: sever the connection carrying dst_task's
  /// frames after everything already submitted to it, then reconnect after
  /// `reconnect_delay_micros`. Frames submitted after this call ride the
  /// new connection; nothing is lost (clean close drains the socket).
  virtual void InjectDisconnect(int dst_task, int64_t reconnect_delay_micros) = 0;

  // --- Elastic scaling (live migration) ---------------------------------
  //
  // Default no-ops: a transport without migration support simply never
  // routes control frames, and the topology falls back to its in-process
  // protocol when hosts_all_tasks() is true.

  /// Re-points `dst_task` at `new_worker` for every OpenChannel issued after
  /// this call. The topology only calls it while all producers into
  /// dst_task are quiesced, so no frame is in flight across the flip.
  virtual void UpdateTaskWorker(int /*dst_task*/, int /*new_worker*/) {}

  /// Sink for inbound migration control frames (stream/migration.h),
  /// invoked from transport threads. Install before Start.
  using ControlSink = std::function<void(ControlFrame&&)>;
  virtual void SetControlSink(ControlSink /*sink*/) {}

  /// Sends a migration control frame to `rank` (delivered to that rank's
  /// ControlSink; rank == local_rank() loops back in-process). Frames to
  /// one rank are FIFO with the data frames already submitted toward it.
  /// Returns false when the transport cannot route control frames.
  virtual bool SendControl(int /*rank*/, const ControlFrame& /*frame*/) { return false; }

  /// Connection-health counters (satellite view for transport metrics).
  struct NetStats {
    uint64_t connect_attempts = 0;  ///< dial attempts, first tries included
    uint64_t connect_retries = 0;   ///< attempts beyond the first per dial
    uint64_t reconnects = 0;        ///< links re-established after a drop
  };
  virtual NetStats Stats() const { return {}; }

  /// End-of-run barrier: workers ship `local` (metrics + failure) to the
  /// coordinator; the coordinator collects every worker's report, invoking
  /// `merge` per remote metrics blob, and returns whether any rank failed.
  /// Tears down connections; the transport is unusable afterwards.
  virtual FinishReport Finish(const LocalSummary& local, const MetricsMerge& merge) = 0;
};

}  // namespace dssj::stream

#endif  // DSSJ_STREAM_CHANNEL_H_
