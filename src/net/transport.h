#ifndef DSSJ_NET_TRANSPORT_H_
#define DSSJ_NET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <utility>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/frame_arena.h"
#include "net/wire.h"
#include "stream/channel.h"
#include "stream/ring_queue.h"

namespace dssj::net {

/// One worker's address on the cluster.
struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

/// Parses a rank-ordered cluster spec "host:port,host:port,...". Rank i
/// listens on the i-th endpoint. Hosts may be names or literal IPs.
StatusOr<std::vector<Endpoint>> ParseClusterSpec(const std::string& spec);

/// Binds `n` ephemeral localhost ports and returns them (then releases the
/// sockets, so a race with other port consumers is possible — test helper,
/// not production logic). Returns an empty vector when sockets are
/// unavailable (sandboxed runner); callers skip in that case.
std::vector<uint16_t> PickFreePorts(int n);

/// Single-process transport that still exercises the wire format: the
/// topology places tasks on `num_workers` simulated workers, and every
/// cross-worker delivery is encoded to frame bytes, re-parsed, and handed
/// back through the inbound sink. hosts_all_tasks() is true, so one process
/// hosts everything — this is the reference for "what does serialization
/// cost" (bench_communication) and the bridge between the simulated
/// remote_byte_cost model and real sockets.
class LoopbackTransport final : public stream::Transport {
 public:
  /// `wire` picks the tuple-section coding for every frame this transport
  /// encodes; `arena_pool_capacity` bounds the recycled frame-arena free
  /// list (0 = never recycle, the ASan-friendly borrow-test mode).
  LoopbackTransport(int num_workers, PayloadCodec codec,
                    WireCodec wire = WireCodec::kDelta, size_t arena_pool_capacity = 8)
      : num_workers_(num_workers),
        codec_(std::move(codec)),
        wire_(wire),
        arena_pool_(arena_pool_capacity) {}

  int local_rank() const override { return 0; }
  int num_ranks() const override { return num_workers_; }
  bool hosts_all_tasks() const override { return true; }

  void Start(const stream::TransportPlan& plan, InboundSink sink,
             FailureSink on_failure) override;
  std::unique_ptr<stream::Channel> OpenChannel(int dst_task) override;
  void InjectDisconnect(int dst_task, int64_t reconnect_delay_micros) override;
  FinishReport Finish(const LocalSummary& local, const MetricsMerge& merge) override;

 private:
  friend class LoopbackChannel;

  const int num_workers_;
  const PayloadCodec codec_;
  const WireCodec wire_;
  FrameArenaPool arena_pool_;
  InboundSink sink_;
  FailureSink on_failure_;
};

struct TcpTransportOptions {
  /// Rank-ordered worker endpoints; cluster.size() is the world size.
  std::vector<Endpoint> cluster;
  /// This process's rank in [0, cluster.size()). Rank 0 is the coordinator:
  /// it aggregates worker metrics and failure reports at Finish.
  int rank = 0;
  /// Optional bind override ("host:port"); defaults to cluster[rank]. Lets
  /// a worker bind 0.0.0.0 while peers dial a routable name.
  std::string listen_override;
  /// Bounded send buffer per peer connection, in frames. A full buffer
  /// blocks the producer — backpressure extends across the wire.
  size_t send_queue_capacity = 1024;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// How long a sender retries dialing a peer (covers workers starting in
  /// any order) before the run is failed.
  int64_t connect_timeout_micros = 30'000'000;
  /// Connect retry schedule: exponential backoff from the initial delay up
  /// to the cap, with deterministic ±jitter (seeded per rank pair and
  /// attempt) so many links dropped at once do not redial in lockstep.
  int64_t connect_backoff_initial_micros = 1'000;
  int64_t connect_backoff_cap_micros = 200'000;
  /// Jitter fraction in [0, 1): each sleep is scaled by a factor drawn from
  /// [1 - jitter, 1 + jitter). 0 restores the fixed schedule.
  double connect_backoff_jitter = 0.25;
  /// Coordinator's budget for the end-of-run barrier (workers' DONE frames).
  int64_t finish_timeout_micros = 120'000'000;
  PayloadCodec codec;
  /// Tuple-section coding for frames this rank sends. Receivers decode
  /// whatever the frame's codec byte announces, so ranks may differ.
  WireCodec wire_codec = WireCodec::kDelta;
  /// Recycled frame-arena free list bound for the zero-copy receive path
  /// (0 = never recycle; see FrameArenaPool).
  size_t arena_pool_capacity = 8;
};

/// Real multi-process transport over TCP. Each rank listens on its cluster
/// endpoint; for every directed rank pair that communicates, the producer
/// side dials one unidirectional connection (write-only for the dialer), so
/// a scripted disconnect can close the socket and rely on the kernel
/// delivering everything already written (FIN after data) — no frame is
/// lost across a reconnect. Frames from one rank to one rank share that
/// single connection, which (with per-rank receive ordering across
/// reconnects) preserves per-link FIFO, the invariant the exactly-once
/// layer needs.
class TcpTransport final : public stream::Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  int local_rank() const override { return options_.rank; }
  int num_ranks() const override { return static_cast<int>(options_.cluster.size()); }

  void Start(const stream::TransportPlan& plan, InboundSink sink,
             FailureSink on_failure) override;
  std::unique_ptr<stream::Channel> OpenChannel(int dst_task) override;
  void InjectDisconnect(int dst_task, int64_t reconnect_delay_micros) override;
  FinishReport Finish(const LocalSummary& local, const MetricsMerge& merge) override;

  void UpdateTaskWorker(int dst_task, int new_worker) override;
  void SetControlSink(ControlSink sink) override;
  bool SendControl(int rank, const stream::ControlFrame& frame) override;
  NetStats Stats() const override;

 private:
  friend class TcpChannel;

  /// One frame's bytes queued toward a peer, or (bytes empty,
  /// disconnect_delay_micros >= 0) an in-band marker telling the sender
  /// thread to close the connection and redial after the delay — in-band so
  /// the cut lands exactly between the frames submitted before and after
  /// InjectDisconnect.
  struct OutFrame {
    std::string bytes;
    int64_t disconnect_delay_micros = -1;
  };

  /// Sender half of one directed rank pair: a bounded frame ring (every
  /// local task sending to the peer is a producer) drained by its one
  /// consumer, a thread that owns the socket (dial, retry, write, scripted
  /// disconnect).
  struct SenderConn {
    int peer_rank = -1;
    std::unique_ptr<stream::RingQueue<OutFrame>> queue;
    std::thread thread;
  };

  SenderConn* GetSender(int peer_rank);
  void SenderLoop(SenderConn* conn);
  void AcceptLoop();
  void ReaderLoop(int fd);
  void HandleFrame(Frame&& frame);
  void FailRun(const std::string& message);
  /// Dials `peer` with retry/backoff until the connect timeout. Returns -1
  /// on timeout/shutdown.
  int DialPeer(int peer_rank);
  bool SendAll(int fd, const char* data, size_t size);
  void CloseSenders();
  void JoinReaders();

  const TcpTransportOptions options_;
  FrameArenaPool arena_pool_;
  /// Task → rank routing. Read on every OpenChannel and mutated by
  /// UpdateTaskWorker mid-run (migration routing flip), hence the mutex;
  /// both paths are cold.
  mutable std::mutex plan_mu_;
  stream::TransportPlan plan_;
  InboundSink sink_;
  FailureSink on_failure_;
  ControlSink control_sink_;

  /// Connection-health counters (Stats()).
  std::atomic<uint64_t> connect_attempts_{0};
  std::atomic<uint64_t> connect_retries_{0};
  std::atomic<uint64_t> reconnects_{0};

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> started_{false};

  std::mutex sender_mu_;  ///< guards senders_ creation
  std::map<int, std::unique_ptr<SenderConn>> senders_;

  /// Delivery order of one peer rank's connections. Every connection opens
  /// with a HELLO carrying the dialer's connection index; the reader of
  /// connection k delivers only once connection k - 1 reached EOF, so
  /// frames from one rank stay in order across reconnects.
  struct InboundOrder {
    uint32_t next = 0;           ///< index of the connection allowed to deliver
    std::set<uint32_t> claimed;  ///< indices whose HELLO a live reader parsed
  };

  /// Reader bookkeeping. A reconnect spawns a fresh reader for the same
  /// peer rank.
  std::mutex reader_mu_;
  std::condition_variable reader_cv_;
  std::vector<std::thread> reader_threads_;
  std::vector<InboundOrder> inbound_order_;  ///< by rank
  int live_readers_ = 0;

  /// End-of-run state collected from peers (coordinator side).
  std::mutex finish_mu_;
  std::condition_variable finish_cv_;
  std::vector<bool> done_;  ///< by rank
  std::vector<std::pair<int, std::string>> remote_metrics_;
  bool remote_failed_ = false;
  std::string remote_failure_;
};

}  // namespace dssj::net

#endif  // DSSJ_NET_TRANSPORT_H_
