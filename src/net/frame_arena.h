#ifndef DSSJ_NET_FRAME_ARENA_H_
#define DSSJ_NET_FRAME_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "text/record.h"

namespace dssj::net {

/// Per-frame memory arena backing the zero-copy receive path. One arena owns
/// everything a parsed frame's tuples point into:
///
///   - bytes():      the raw frame bytes as received (the transport copies or
///                   encodes a complete frame here *before* parsing, so
///                   span-backed views alias stable storage, never the
///                   transport's rolling receive buffer),
///   - AllocTokens():delta-decoded token arrays,
///   - AllocRecord():the Record objects themselves (deque storage: addresses
///                   are stable while later records are added).
///
/// Lifetime: the transport acquires arenas as shared_ptrs from a
/// FrameArenaPool and hands decoded payloads out as *aliasing* shared_ptrs
/// that own the arena. The arena is therefore pinned until the last borrowed
/// record drops; only then does it return to the pool and Reset() for reuse.
/// Use-after-free on borrowed spans is impossible by construction — the
/// failure mode of holding borrows too long is arena *retention*, which is
/// why index stores detach (see TokenArray's contract in text/record.h).
///
/// Not thread-safe; a frame is parsed by exactly one transport thread.
class FrameArena {
 public:
  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  /// Frame byte storage. The transport appends one or more complete frames
  /// here; parsed views alias this string, so it must not be mutated after
  /// parsing starts.
  std::string& bytes() { return bytes_; }

  /// Storage for `n` decoded tokens; stable until Reset(). Chunked so a
  /// frame's records share a few allocations that are reused across
  /// frames. A chunk is sized to the frame: every decoded token used at
  /// least one frame byte, so a frame never needs more tokens than it has
  /// bytes. A task that keeps one tuple pins the whole arena, so a small
  /// frame must not carry a large chunk.
  TokenId* AllocTokens(size_t n) {
    while (chunk_idx_ < chunks_.size() &&
           chunks_[chunk_idx_].size - chunk_off_ < n) {
      ++chunk_idx_;
      chunk_off_ = 0;
    }
    if (chunk_idx_ == chunks_.size()) {
      const size_t cap = std::max(n, std::min(kTokenChunk, bytes_.size()));
      chunks_.push_back({std::make_unique<TokenId[]>(cap), cap});
      chunk_off_ = 0;
    }
    TokenId* out = chunks_[chunk_idx_].data.get() + chunk_off_;
    chunk_off_ += n;
    return out;
  }

  /// A Record living in arena storage (deque: growing never moves earlier
  /// records, so aliasing pointers taken mid-frame stay valid).
  Record* AllocRecord() {
    if (records_used_ < records_.size()) return &records_[records_used_++];
    ++records_used_;
    return &records_.emplace_back();
  }

  /// Forgets all frame content but keeps the allocations (steady-state
  /// recycling allocates nothing). Caller must guarantee no borrowed view
  /// into this arena is still alive — the pool's shared_ptr refcount is
  /// that guarantee.
  void Reset() {
    bytes_.clear();
    for (size_t i = 0; i < records_used_ && i < records_.size(); ++i) {
      records_[i] = Record();
    }
    records_used_ = 0;
    chunk_idx_ = 0;
    chunk_off_ = 0;
  }

  size_t MemoryBytes() const {
    size_t total = bytes_.capacity();
    for (const auto& c : chunks_) total += c.size * sizeof(TokenId);
    total += records_.size() * sizeof(Record);
    return total;
  }

 private:
  static constexpr size_t kTokenChunk = 512;

  struct TokenChunk {
    std::unique_ptr<TokenId[]> data;
    size_t size = 0;
  };

  std::string bytes_;
  std::deque<Record> records_;
  size_t records_used_ = 0;
  std::vector<TokenChunk> chunks_;
  size_t chunk_idx_ = 0;
  size_t chunk_off_ = 0;
};

/// Thread-safe recycling pool of FrameArenas. Acquire() hands out a
/// shared_ptr whose deleter Reset()s the arena and returns it to the free
/// list once the last reference (including every aliasing payload pointer
/// into it) drops. `max_free` bounds the free list; 0 means *never* recycle
/// — every released arena is freed immediately, which turns any
/// use-after-release of a borrowed span into an ASan-visible heap error
/// (the borrow-lifetime tests run in this mode).
class FrameArenaPool {
 public:
  explicit FrameArenaPool(size_t max_free = 8)
      : state_(std::make_shared<State>(max_free)) {}

  std::shared_ptr<FrameArena> Acquire() {
    std::unique_ptr<FrameArena> arena;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (!state_->free.empty()) {
        arena = std::move(state_->free.back());
        state_->free.pop_back();
      }
    }
    if (arena == nullptr) arena = std::make_unique<FrameArena>();
    // The deleter holds the pool *state* (not the pool object): arenas
    // pinned by in-flight records may outlive the transport that made them.
    auto state = state_;
    return std::shared_ptr<FrameArena>(arena.release(), [state](FrameArena* a) {
      a->Reset();
      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->free.size() < state->max_free) {
          state->free.emplace_back(a);
          return;
        }
      }
      delete a;
    });
  }

 private:
  struct State {
    explicit State(size_t cap) : max_free(cap) {}
    std::mutex mu;
    std::vector<std::unique_ptr<FrameArena>> free;
    size_t max_free;
  };

  std::shared_ptr<State> state_;
};

}  // namespace dssj::net

#endif  // DSSJ_NET_FRAME_ARENA_H_
