#include "net/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace dssj::net {
namespace {

/// Bounded send buffer per peer connection, in frames. A full buffer blocks
/// the producer — backpressure extends across the wire.
constexpr size_t kSendQueueFrames = 1024;
/// Connect retry schedule: exponential backoff from 1 ms, doubling up to
/// 200 ms, each sleep scaled by a factor in [1 - jitter, 1 + jitter) drawn
/// deterministically per rank pair and attempt, so many links dropped at
/// once do not redial in lockstep.
constexpr int64_t kConnectBackoffInitialMicros = 1'000;
constexpr int64_t kConnectBackoffCapMicros = 200'000;
constexpr double kConnectBackoffJitter = 0.25;

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepMicros(int64_t micros) {
  if (micros > 0) std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Resolves host:port for either bind (passive) or connect.
addrinfo* Resolve(const std::string& host, uint16_t port, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &result) != 0) {
    return nullptr;
  }
  return result;
}

int CreateListener(const std::string& host, uint16_t port, std::string* error) {
  addrinfo* addrs = Resolve(host, port, /*passive=*/true);
  if (addrs == nullptr) {
    *error = "cannot resolve listen address " + host + ":" + std::to_string(port);
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, 64) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) {
    *error = "cannot listen on " + host + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
  }
  return fd;
}

}  // namespace

StatusOr<std::vector<Endpoint>> ParseClusterSpec(const std::string& spec) {
  std::vector<Endpoint> cluster;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string part =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (part.empty()) {
      return Status::InvalidArgument("empty endpoint in cluster spec '" + spec + "'");
    }
    const size_t colon = part.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == part.size()) {
      return Status::InvalidArgument("endpoint '" + part + "' is not host:port");
    }
    uint32_t port = 0;
    for (size_t i = colon + 1; i < part.size(); ++i) {
      const char c = part[i];
      if (c < '0' || c > '9' || port > 65535) {
        return Status::InvalidArgument("bad port in endpoint '" + part + "'");
      }
      port = port * 10 + static_cast<uint32_t>(c - '0');
    }
    if (port == 0 || port > 65535) {
      return Status::InvalidArgument("bad port in endpoint '" + part + "'");
    }
    cluster.push_back(Endpoint{part.substr(0, colon), static_cast<uint16_t>(port)});
  }
  if (cluster.empty()) return Status::InvalidArgument("empty cluster spec");
  return cluster;
}

std::vector<uint16_t> PickFreePorts(int n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      break;
    }
    fds.push_back(fd);  // keep bound so later picks cannot collide
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  if (static_cast<int>(ports.size()) != n) ports.clear();
  return ports;
}

// ---------------------------------------------------------------------------
// LoopbackTransport

/// Serializes each batch to real frame bytes, re-parses them, and delivers
/// the decoded envelopes through the inbound sink — a process-local link
/// that pays the full wire cost.
class LoopbackChannel final : public stream::Channel {
 public:
  LoopbackChannel(LoopbackTransport* transport, int dst_task)
      : transport_(transport), dst_task_(dst_task) {}

  size_t Push(stream::Envelope env) override {
    std::vector<stream::Envelope> one;
    one.push_back(std::move(env));
    return PushBatch(&one);
  }

  size_t PushBatch(std::vector<stream::Envelope>* envs) override {
    if (envs->empty()) return 1;
    // Encode straight into arena-owned storage, then parse with that arena:
    // decoded payloads borrow arena storage and pin the arena via aliasing
    // shared_ptrs until the last consumer drops them.
    std::shared_ptr<FrameArena> arena = transport_->arena_pool_.Acquire();
    std::string& bytes = arena->bytes();
    AppendEnvelopeFrames(dst_task_, *envs, &transport_->codec_, &bytes);
    size_t depth = 0;
    size_t off = 0;
    Frame frame;  // reused: ParseFrame keeps envelope capacity across frames
    while (off < bytes.size()) {
      size_t consumed = 0;
      std::string error;
      const ParseStatus st =
          ParseFrame(bytes.data() + off, bytes.size() - off, &transport_->codec_,
                     kDefaultMaxFrameBytes, &frame, &consumed, &error, arena);
      if (st != ParseStatus::kFrame) {
        transport_->on_failure_("loopback frame round-trip failed: " + error);
        return 0;
      }
      off += consumed;
      depth = transport_->sink_(frame.dst_task, std::move(frame.envelopes));
      if (depth == 0) return 0;  // consumer gone
    }
    envs->clear();
    return depth;
  }

  bool inproc() const override { return false; }

 private:
  LoopbackTransport* transport_;
  const int dst_task_;
};

void LoopbackTransport::Start(const stream::TransportPlan& plan, InboundSink sink,
                              FailureSink on_failure) {
  (void)plan;
  sink_ = std::move(sink);
  on_failure_ = std::move(on_failure);
}

std::unique_ptr<stream::Channel> LoopbackTransport::OpenChannel(int dst_task) {
  CHECK(sink_) << "OpenChannel before Start";
  return std::make_unique<LoopbackChannel>(this, dst_task);
}

void LoopbackTransport::InjectDisconnect(int dst_task, int64_t reconnect_delay_micros) {
  // No socket to sever; model the outage as the stall it would cause.
  (void)dst_task;
  SleepMicros(reconnect_delay_micros);
}

stream::Transport::FinishReport LoopbackTransport::Finish(const LocalSummary& local,
                                                          const MetricsMerge& merge) {
  (void)local;
  (void)merge;  // everything is already in-process
  return FinishReport{};
}

// ---------------------------------------------------------------------------
// TcpTransport

/// Producer endpoint for a task on another rank: frames go onto the
/// per-peer bounded send queue; depth returned is that queue's depth.
class TcpChannel final : public stream::Channel {
 public:
  TcpChannel(TcpTransport* transport, int dst_task, TcpTransport::SenderConn* conn)
      : transport_(transport), dst_task_(dst_task), conn_(conn) {}

  size_t Push(stream::Envelope env) override {
    std::vector<stream::Envelope> one;
    one.push_back(std::move(env));
    return PushBatch(&one);
  }

  size_t PushBatch(std::vector<stream::Envelope>* envs) override {
    if (envs->empty()) return 1;
    TcpTransport::OutFrame out;
    AppendEnvelopeFrames(dst_task_, *envs, &transport_->options_.codec, &out.bytes);
    const size_t depth = conn_->queue->Push(std::move(out));
    if (depth == 0) return 0;  // transport shut down; remainder rejected
    envs->clear();
    return depth;
  }

  bool inproc() const override { return false; }

 private:
  TcpTransport* transport_;
  const int dst_task_;
  TcpTransport::SenderConn* conn_;
};

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)), arena_pool_(options_.arena_pool_capacity) {
  CHECK(!options_.cluster.empty()) << "TcpTransport needs a cluster spec";
  CHECK(options_.rank >= 0 && options_.rank < static_cast<int>(options_.cluster.size()))
      << "rank " << options_.rank << " outside cluster of " << options_.cluster.size();
}

TcpTransport::~TcpTransport() {
  {
    std::lock_guard<std::mutex> lock(reader_mu_);  // a reader may wait on reader_cv_
    shutdown_.store(true);
  }
  reader_cv_.notify_all();
  CloseSenders();
  if (accept_thread_.joinable()) accept_thread_.join();
  JoinReaders();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpTransport::Start(const stream::TransportPlan& plan, InboundSink sink,
                         FailureSink on_failure) {
  CHECK(!started_.load()) << "Start called twice";
  plan_ = plan;
  sink_ = std::move(sink);
  on_failure_ = std::move(on_failure);
  done_.assign(options_.cluster.size(), false);
  inbound_order_.resize(options_.cluster.size());

  Endpoint listen_at = options_.cluster[options_.rank];
  if (!options_.listen_override.empty()) {
    StatusOr<std::vector<Endpoint>> parsed = ParseClusterSpec(options_.listen_override);
    CHECK(parsed.ok() && parsed.value().size() == 1)
        << "bad listen override '" << options_.listen_override << "'";
    listen_at = parsed.value()[0];
  }
  std::string error;
  listen_fd_ = CreateListener(listen_at.host, listen_at.port, &error);
  started_.store(true);
  if (listen_fd_ < 0) {
    FailRun(error);
    return;
  }
  accept_thread_ = std::thread(&TcpTransport::AcceptLoop, this);
  // Workers dial the coordinator eagerly so a run whose coordinator never
  // appears fails after connect_timeout instead of waiting forever for
  // tuples that will never arrive (the dial itself retries with backoff,
  // covering ranks starting in any order).
  if (options_.rank != 0) GetSender(0);
}

std::unique_ptr<stream::Channel> TcpTransport::OpenChannel(int dst_task) {
  CHECK(started_.load()) << "OpenChannel before Start";
  int peer = -1;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    CHECK(dst_task >= 0 && dst_task < plan_.num_tasks);
    peer = plan_.task_worker[dst_task];
  }
  CHECK_NE(peer, options_.rank) << "OpenChannel to a locally hosted task";
  return std::make_unique<TcpChannel>(this, dst_task, GetSender(peer));
}

void TcpTransport::InjectDisconnect(int dst_task, int64_t reconnect_delay_micros) {
  int peer = -1;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    CHECK(dst_task >= 0 && dst_task < plan_.num_tasks);
    peer = plan_.task_worker[dst_task];
  }
  OutFrame marker;
  marker.disconnect_delay_micros = std::max<int64_t>(reconnect_delay_micros, 0);
  GetSender(peer)->queue->Push(std::move(marker));
}

void TcpTransport::UpdateTaskWorker(int dst_task, int new_worker) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  CHECK(dst_task >= 0 && dst_task < plan_.num_tasks);
  plan_.task_worker[dst_task] = new_worker;
}

void TcpTransport::SetControlSink(ControlSink sink) { control_sink_ = std::move(sink); }

bool TcpTransport::SendControl(int rank, const stream::ControlFrame& frame) {
  CHECK(started_.load()) << "SendControl before Start";
  if (rank < 0 || rank >= num_ranks()) return false;
  if (rank == options_.rank) {
    // Local loop: deliver straight to the sink, same contract as a frame
    // arriving off the wire.
    if (!control_sink_) return false;
    stream::ControlFrame copy = frame;
    control_sink_(std::move(copy));
    return true;
  }
  OutFrame out;
  const uint16_t worker = static_cast<uint16_t>(frame.worker < 0 ? 0 : frame.worker);
  switch (frame.kind) {
    case stream::ControlKind::kPrepare:
      AppendPrepareFrame(frame.migration_id, frame.task_id, worker, &out.bytes);
      break;
    case stream::ControlKind::kState:
      AppendStateFrame(frame.migration_id, frame.task_id, worker, frame.blob, &out.bytes);
      break;
    case stream::ControlKind::kHandoff:
      AppendHandoffFrame(frame.migration_id, frame.task_id, worker, &out.bytes);
      break;
    case stream::ControlKind::kAck:
      AppendAckFrame(frame.migration_id, frame.task_id, worker, &out.bytes);
      break;
    case stream::ControlKind::kFinish:
      // No frame carries it: a worker synthesizes kFinish from the
      // coordinator's DONE, so there is nothing to send.
      return false;
  }
  return GetSender(rank)->queue->Push(std::move(out)) != 0;
}

stream::Transport::NetStats TcpTransport::Stats() const {
  NetStats stats;
  stats.connect_attempts = connect_attempts_.load(std::memory_order_relaxed);
  stats.connect_retries = connect_retries_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  return stats;
}

TcpTransport::SenderConn* TcpTransport::GetSender(int peer_rank) {
  std::lock_guard<std::mutex> lock(sender_mu_);
  std::unique_ptr<SenderConn>& slot = senders_[peer_rank];
  if (slot == nullptr) {
    slot = std::make_unique<SenderConn>();
    slot->peer_rank = peer_rank;
    slot->queue = std::make_unique<stream::RingQueue<OutFrame>>(kSendQueueFrames);
    slot->thread = std::thread(&TcpTransport::SenderLoop, this, slot.get());
  }
  return slot.get();
}

int TcpTransport::DialPeer(int peer_rank) {
  const Endpoint& ep = options_.cluster[peer_rank];
  const int64_t deadline = NowMicros() + options_.connect_timeout_micros;
  int64_t backoff_micros = kConnectBackoffInitialMicros;
  uint64_t attempt = 0;
  while (!shutdown_.load()) {
    ++attempt;
    connect_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (attempt > 1) connect_retries_.fetch_add(1, std::memory_order_relaxed);
    addrinfo* addrs = Resolve(ep.host, ep.port, /*passive=*/false);
    for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        ::freeaddrinfo(addrs);
        SetNoDelay(fd);
        SetNonBlocking(fd);
        return fd;
      }
      ::close(fd);
    }
    if (addrs != nullptr) ::freeaddrinfo(addrs);
    if (NowMicros() >= deadline) break;
    // Peers may start in any order: retry with capped exponential backoff.
    // The jitter factor is deterministic per (local rank, peer, attempt), so
    // many links dropped at once spread their redials instead of pounding
    // the listener in lockstep.
    const uint64_t h = Mix64((static_cast<uint64_t>(options_.rank) << 40) ^
                             (static_cast<uint64_t>(peer_rank) << 20) ^ attempt);
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    SleepMicros(static_cast<int64_t>(
        static_cast<double>(backoff_micros) *
        (1.0 - kConnectBackoffJitter + 2.0 * kConnectBackoffJitter * unit)));
    backoff_micros = std::min(backoff_micros * 2, kConnectBackoffCapMicros);
  }
  return -1;
}

bool TcpTransport::SendAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (shutdown_.load()) return false;
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void TcpTransport::SenderLoop(SenderConn* conn) {
  int fd = DialPeer(conn->peer_rank);
  if (fd < 0) {
    if (!shutdown_.load()) {
      FailRun("cannot connect to rank " + std::to_string(conn->peer_rank) + " (" +
              options_.cluster[conn->peer_rank].host + ":" +
              std::to_string(options_.cluster[conn->peer_rank].port) + ")");
    }
    conn->queue->Close();
    std::vector<OutFrame> discard;
    conn->queue->Drain(&discard);
    return;
  }
  uint32_t connection = 0;  // HELLO's connection index: 0, then +1 per redial
  std::string staged;
  AppendHelloFrame(static_cast<uint16_t>(options_.rank), connection, &staged);

  std::vector<OutFrame> batch;
  bool broken = false;
  while (!broken) {
    // Coalesce queued frames into one send; an in-band disconnect marker
    // flushes what precedes it, cuts the connection, and redials.
    batch.clear();
    if (conn->queue->PopBatch(&batch, 64) == 0) break;  // closed + drained
    for (OutFrame& frame : batch) {
      if (frame.disconnect_delay_micros >= 0) {
        if (!staged.empty() && !SendAll(fd, staged.data(), staged.size())) {
          broken = true;
          break;
        }
        staged.clear();
        ::close(fd);  // clean close: FIN lands after everything written
        SleepMicros(frame.disconnect_delay_micros);
        fd = DialPeer(conn->peer_rank);
        if (fd < 0) {
          if (!shutdown_.load()) {
            FailRun("reconnect to rank " + std::to_string(conn->peer_rank) + " failed");
          }
          conn->queue->Close();
          broken = true;
          break;
        }
        reconnects_.fetch_add(1, std::memory_order_relaxed);
        AppendHelloFrame(static_cast<uint16_t>(options_.rank), ++connection, &staged);
        continue;
      }
      staged.append(frame.bytes);
    }
    if (!broken && !staged.empty()) {
      if (!SendAll(fd, staged.data(), staged.size())) broken = true;
      staged.clear();
    }
  }
  if (broken && !shutdown_.load()) {
    FailRun("connection to rank " + std::to_string(conn->peer_rank) + " broke: " +
            std::strerror(errno));
    conn->queue->Close();
  }
  if (fd >= 0) ::close(fd);
}

void TcpTransport::AcceptLoop() {
  while (!shutdown_.load()) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, 100);
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) continue;
      break;
    }
    SetNonBlocking(fd);
    std::lock_guard<std::mutex> lock(reader_mu_);
    ++live_readers_;
    reader_threads_.emplace_back(&TcpTransport::ReaderLoop, this, fd);
  }
}

void TcpTransport::ReaderLoop(int fd) {
  std::string buf;
  size_t off = 0;
  int peer = -1;
  uint32_t connection = 0;  // valid once peer >= 0
  bool failed = false;
  char chunk[64 * 1024];
  Frame frame;  // reused: ParseFrame keeps envelope capacity across frames
  while (!shutdown_.load() && !failed) {
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, 100);
    if (pr <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // peer closed cleanly; buffered frames already parsed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      break;
    }
    buf.append(chunk, static_cast<size_t>(n));
    while (!failed) {
      size_t consumed = 0;
      std::string error;
      // Zero-copy receive: a complete DATA frame is bulk-copied out of the
      // rolling receive buffer (which compacts underneath views) into a
      // pooled arena and parsed *there*, so decoded payloads can alias
      // stable frame bytes. Other frame types (and incomplete prefixes)
      // take the plain materializing path.
      std::shared_ptr<FrameArena> arena;
      const char* base = buf.data() + off;
      const size_t avail = buf.size() - off;
      if (avail > sizeof(uint32_t)) {
        uint32_t body_len = 0;
        std::memcpy(&body_len, base, sizeof(body_len));
        if (body_len >= 1 && body_len <= options_.max_frame_bytes &&
            avail >= sizeof(uint32_t) + body_len &&
            static_cast<uint8_t>(base[sizeof(uint32_t)]) ==
                static_cast<uint8_t>(FrameType::kData)) {
          arena = arena_pool_.Acquire();
          arena->bytes().assign(base, sizeof(uint32_t) + body_len);
          base = arena->bytes().data();
        }
      }
      const ParseStatus st =
          arena != nullptr
              ? ParseFrame(base, arena->bytes().size(), &options_.codec,
                           options_.max_frame_bytes, &frame, &consumed, &error, arena)
              : ParseFrame(base, avail, &options_.codec, options_.max_frame_bytes, &frame,
                           &consumed, &error);
      if (st == ParseStatus::kNeedMore) break;
      if (st == ParseStatus::kError) {
        FailRun("malformed frame from peer: " + error);
        failed = true;
        break;
      }
      off += consumed;
      if (peer < 0) {
        if (frame.type != FrameType::kHello) {
          FailRun("peer did not open with HELLO");
          failed = true;
          break;
        }
        if (frame.rank >= options_.cluster.size()) {
          FailRun("HELLO from unknown rank " + std::to_string(frame.rank));
          failed = true;
          break;
        }
        // Reconnect ordering: connection k of a rank delivers only after
        // connection k - 1 of that rank reached EOF, whichever of their
        // readers parsed its HELLO first, so frames from one rank never
        // interleave out of order across a reconnect.
        std::unique_lock<std::mutex> lock(reader_mu_);
        InboundOrder& order = inbound_order_[frame.rank];
        if (frame.connection < order.next || !order.claimed.insert(frame.connection).second) {
          lock.unlock();
          FailRun("HELLO from rank " + std::to_string(frame.rank) + " reuses connection " +
                  std::to_string(frame.connection));
          failed = true;
          break;
        }
        peer = frame.rank;
        connection = frame.connection;
        reader_cv_.wait(lock, [&] { return shutdown_.load() || order.next == connection; });
        if (shutdown_.load()) break;
      } else {
        HandleFrame(std::move(frame));
      }
    }
    if (off > (64u << 10) && off * 2 > buf.size()) {
      buf.erase(0, off);
      off = 0;
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(reader_mu_);
  if (peer >= 0) {
    InboundOrder& order = inbound_order_[peer];
    order.claimed.erase(connection);
    if (order.next == connection) ++order.next;
  }
  --live_readers_;
  reader_cv_.notify_all();
}

void TcpTransport::HandleFrame(Frame&& frame) {
  switch (frame.type) {
    case FrameType::kData:
    case FrameType::kEos: {
      if (frame.dst_task < 0 || frame.dst_task >= plan_.num_tasks) {
        FailRun("frame addressed to unknown task " + std::to_string(frame.dst_task));
        return;
      }
      // A zero return means the consumer queue closed (topology failed or
      // finished); late frames are dropped on the floor by design.
      sink_(frame.dst_task, std::move(frame.envelopes));
      return;
    }
    case FrameType::kMetrics: {
      std::lock_guard<std::mutex> lock(finish_mu_);
      remote_metrics_.emplace_back(frame.task_id, std::move(frame.blob));
      return;
    }
    case FrameType::kDone: {
      {
        std::lock_guard<std::mutex> lock(finish_mu_);
        if (frame.rank < done_.size()) done_[frame.rank] = true;
      }
      finish_cv_.notify_all();
      // DONE from rank 0 is the coordinator's run-over broadcast: elastic
      // workers hold their finish barrier (they can adopt a migrating task
      // at any point before this) until it arrives.
      if (frame.rank == 0 && options_.rank != 0 && control_sink_) {
        stream::ControlFrame cf;
        cf.kind = stream::ControlKind::kFinish;
        control_sink_(std::move(cf));
      }
      return;
    }
    case FrameType::kFail:
      FailRun("rank " + std::to_string(frame.rank) + " failed: " + frame.blob);
      return;
    case FrameType::kPrepare:
    case FrameType::kState:
    case FrameType::kHandoff:
    case FrameType::kAck: {
      if (!control_sink_) {
        FailRun("migration control frame received but elastic mode is off");
        return;
      }
      stream::ControlFrame cf;
      switch (frame.type) {
        case FrameType::kPrepare: cf.kind = stream::ControlKind::kPrepare; break;
        case FrameType::kState: cf.kind = stream::ControlKind::kState; break;
        case FrameType::kHandoff: cf.kind = stream::ControlKind::kHandoff; break;
        default: cf.kind = stream::ControlKind::kAck; break;
      }
      cf.migration_id = frame.migration_id;
      cf.task_id = frame.task_id;
      cf.worker = frame.rank;
      cf.blob = std::move(frame.blob);
      control_sink_(std::move(cf));
      return;
    }
    case FrameType::kHello:
      FailRun("unexpected mid-stream HELLO");
      return;
  }
}

void TcpTransport::FailRun(const std::string& message) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(finish_mu_);
    if (!remote_failed_) {
      remote_failed_ = true;
      remote_failure_ = message;
      first = true;
    }
  }
  finish_cv_.notify_all();
  if (first && on_failure_) on_failure_(message);
}

void TcpTransport::CloseSenders() {
  std::lock_guard<std::mutex> lock(sender_mu_);
  for (auto& [rank, conn] : senders_) {
    conn->queue->Close();
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void TcpTransport::JoinReaders() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(reader_mu_);
    threads.swap(reader_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

stream::Transport::FinishReport TcpTransport::Finish(const LocalSummary& local,
                                                     const MetricsMerge& merge) {
  const int world = num_ranks();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(options_.finish_timeout_micros);
  if (options_.rank != 0) {
    // Ship metrics + failure + DONE to the coordinator over the regular
    // sender (created on demand when no data edge pointed at rank 0).
    OutFrame out;
    for (const auto& [task_id, blob] : local.task_metrics) {
      AppendMetricsFrame(task_id, blob, &out.bytes);
    }
    if (local.failed) {
      AppendFailFrame(static_cast<uint16_t>(options_.rank),
                      local.failure_message.empty() ? "worker failed" : local.failure_message,
                      &out.bytes);
    }
    AppendDoneFrame(static_cast<uint16_t>(options_.rank), &out.bytes);
    GetSender(0)->queue->Push(std::move(out));
  } else if (local.failed && world > 1) {
    // A failed coordinator may never deliver EOS to remote tasks; a FAIL
    // frame lets every worker abort instead of hanging.
    for (int r = 1; r < world; ++r) {
      OutFrame out;
      AppendFailFrame(0, local.failure_message.empty() ? "coordinator failed"
                                                       : local.failure_message,
                      &out.bytes);
      GetSender(r)->queue->Push(std::move(out));
    }
  } else if (control_sink_ && world > 1) {
    // Elastic run over: release every worker's finish hold. This also dials
    // any rank the data plane never touched (a worker that stayed idle all
    // run still needs the signal — and the EOF that follows CloseSenders).
    for (int r = 1; r < world; ++r) {
      OutFrame out;
      AppendDoneFrame(0, &out.bytes);
      GetSender(r)->queue->Push(std::move(out));
    }
  }

  FinishReport report;
  std::vector<std::pair<int, std::string>> blobs;
  if (options_.rank == 0) {
    std::unique_lock<std::mutex> lock(finish_mu_);
    const bool all_done = finish_cv_.wait_until(lock, deadline, [&] {
      for (int r = 1; r < world; ++r) {
        if (!done_[r]) return false;
      }
      return true;
    });
    if (!all_done && !remote_failed_) {
      remote_failed_ = true;
      remote_failure_ = "timed out waiting for worker DONE frames";
    }
    blobs.swap(remote_metrics_);
  }
  {
    std::lock_guard<std::mutex> lock(finish_mu_);
    report.remote_failed = remote_failed_;
    report.remote_failure = remote_failure_;
  }
  for (const auto& [task_id, blob] : blobs) {
    if (merge) merge(task_id, blob);
  }

  // Senders close only now: the coordinator's close is what EOFs worker
  // readers, releasing their Finish. Workers closed theirs before DONE
  // went out (the close flushes the queue), so ordering is acyclic.
  CloseSenders();
  {
    std::unique_lock<std::mutex> lock(reader_mu_);
    reader_cv_.wait_until(lock, deadline, [&] { return live_readers_ == 0; });
    shutdown_.store(true);
  }
  reader_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  JoinReaders();
  return report;
}

}  // namespace dssj::net
