#ifndef DSSJ_TEXT_RECORD_H_
#define DSSJ_TEXT_RECORD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dssj {

/// Dense token identifier. The *numeric order of TokenId is the global token
/// order* used by prefix filtering: smaller id = earlier in every record's
/// sorted token array. Dictionaries that reorder tokens by ascending
/// frequency therefore make prefixes maximally selective (rarest first), but
/// correctness only needs the order to be consistent across records.
using TokenId = uint32_t;

/// Non-owning view over an ascending token array. The read-side currency of
/// the verification kernels: implicitly constructible from both
/// std::vector<TokenId> and TokenArray, so call sites do not care whether a
/// record owns its tokens or borrows them from a network frame arena.
class TokenSpan {
 public:
  constexpr TokenSpan() = default;
  constexpr TokenSpan(const TokenId* data, size_t size) : data_(data), size_(size) {}
  /*implicit*/ TokenSpan(const std::vector<TokenId>& v) : data_(v.data()), size_(v.size()) {}

  const TokenId* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const TokenId* begin() const { return data_; }
  const TokenId* end() const { return data_ + size_; }
  TokenId operator[](size_t i) const { return data_[i]; }
  TokenId front() const { return data_[0]; }
  TokenId back() const { return data_[size_ - 1]; }

 private:
  const TokenId* data_ = nullptr;
  size_t size_ = 0;
};

/// Token storage that either *owns* its elements (a heap vector, the default)
/// or *borrows* a span owned by someone else — in practice the network frame
/// arena, so a record decoded off the wire keeps its token array in arena
/// storage instead of a heap vector of its own.
///
/// Lifetime contract for borrowed arrays: the borrow itself holds no
/// keepalive (a record living *inside* an arena must not pin its own arena —
/// that would be a refcount cycle). Whoever hands out a borrowed-token
/// Record is responsible for pinning the backing memory, which the net layer
/// does with an aliasing shared_ptr<const Record> that owns the arena.
/// Copying a TokenArray always produces an owning copy (copy == detach), so
/// `*record` copy-construction is the detach primitive.
class TokenArray {
 public:
  TokenArray() = default;
  /*implicit*/ TokenArray(std::vector<TokenId> v) : own_(std::move(v)) {
    data_ = own_.data();
    size_ = own_.size();
  }

  /// Borrowing view; `data` must stay valid (and unchanged) for the
  /// TokenArray's lifetime. See the class comment for who guarantees that.
  static TokenArray Borrow(const TokenId* data, size_t n) {
    TokenArray a;
    a.data_ = data;
    a.size_ = n;
    a.borrowed_ = true;
    return a;
  }

  TokenArray(const TokenArray& o) : own_(o.begin(), o.end()) {
    data_ = own_.data();
    size_ = own_.size();
  }
  TokenArray& operator=(const TokenArray& o) {
    if (this != &o) {
      own_.assign(o.begin(), o.end());
      data_ = own_.data();
      size_ = own_.size();
      borrowed_ = false;
    }
    return *this;
  }
  // Moving a vector never moves its heap buffer, so a moved-from own_ keeps
  // data_ valid; borrowed spans move trivially.
  TokenArray(TokenArray&& o) noexcept
      : own_(std::move(o.own_)), data_(o.data_), size_(o.size_), borrowed_(o.borrowed_) {
    o.data_ = nullptr;
    o.size_ = 0;
    o.borrowed_ = false;
  }
  TokenArray& operator=(TokenArray&& o) noexcept {
    if (this != &o) {
      own_ = std::move(o.own_);
      data_ = o.data_;
      size_ = o.size_;
      borrowed_ = o.borrowed_;
      o.data_ = nullptr;
      o.size_ = 0;
      o.borrowed_ = false;
    }
    return *this;
  }

  const TokenId* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const TokenId* begin() const { return data_; }
  const TokenId* end() const { return data_ + size_; }
  TokenId operator[](size_t i) const { return data_[i]; }
  TokenId front() const { return data_[0]; }
  TokenId back() const { return data_[size_ - 1]; }
  bool borrowed() const { return borrowed_; }

  /*implicit*/ operator TokenSpan() const { return TokenSpan(data_, size_); }
  std::vector<TokenId> ToVector() const { return std::vector<TokenId>(begin(), end()); }

 private:
  std::vector<TokenId> own_;
  const TokenId* data_ = nullptr;
  size_t size_ = 0;
  bool borrowed_ = false;
};

inline bool operator==(const TokenArray& a, const TokenArray& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}
inline bool operator!=(const TokenArray& a, const TokenArray& b) { return !(a == b); }
inline bool operator==(const TokenArray& a, const std::vector<TokenId>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}
inline bool operator==(const std::vector<TokenId>& a, const TokenArray& b) { return b == a; }
inline bool operator!=(const TokenArray& a, const std::vector<TokenId>& b) { return !(a == b); }
inline bool operator!=(const std::vector<TokenId>& a, const TokenArray& b) { return !(b == a); }

/// A set record in the stream: a deduplicated, ascending-sorted array of
/// token ids plus stream metadata. Records are immutable after construction
/// and shared across topology tasks via shared_ptr<const Record>.
struct Record {
  /// External identifier (line number, document id, ...).
  uint64_t id = 0;
  /// Global arrival sequence number, assigned by the stream source. The
  /// distributed join's exactly-once emission rule compares seq values.
  uint64_t seq = 0;
  /// Stream timestamp in microseconds (for time-based windows).
  int64_t timestamp = 0;
  /// Token ids, strictly ascending (set semantics). May borrow its storage
  /// from a network frame arena — see TokenArray's lifetime contract.
  TokenArray tokens;

  Record() = default;
  Record(uint64_t id_in, uint64_t seq_in, int64_t ts, std::vector<TokenId> tokens_in)
      : id(id_in), seq(seq_in), timestamp(ts), tokens(std::move(tokens_in)) {}
  Record(uint64_t id_in, uint64_t seq_in, int64_t ts, TokenArray tokens_in)
      : id(id_in), seq(seq_in), timestamp(ts), tokens(std::move(tokens_in)) {}

  /// Set size |r|.
  size_t size() const { return tokens.size(); }

  /// True when the token array points into frame-arena memory rather than
  /// record-owned heap storage.
  bool borrowed() const { return tokens.borrowed(); }

  /// Bytes this record occupies on the (simulated) wire: fixed header plus
  /// 4 bytes per token. Used by the stream substrate's communication
  /// accounting.
  size_t SerializedBytes() const { return 24 + 4 * tokens.size(); }
};

using RecordPtr = std::shared_ptr<const Record>;

/// Detach primitive: returns `r` unchanged when it owns its tokens, else a
/// deep copy with owning storage. Call before holding a record past its
/// frame's lifetime window (index stores, checkpoints).
RecordPtr DetachRecord(const RecordPtr& r);

/// Sorts and deduplicates `tokens` in place, establishing Record's invariant.
void NormalizeTokens(std::vector<TokenId>& tokens);

/// Exact size of the intersection of two ascending token arrays.
size_t OverlapSize(TokenSpan a, TokenSpan b);

/// Convenience constructor used throughout tests and generators.
RecordPtr MakeRecord(uint64_t id, uint64_t seq, std::vector<TokenId> tokens,
                     int64_t timestamp = 0);

/// Appends the record's fixed-width encoding (id, seq, timestamp, token
/// count, then the token array as little-endian u32s) to `*out`. The inverse
/// of DecodeRecord; the joiners' lane-merge checkpoint stores records this
/// way.
void EncodeRecord(const Record& r, std::string* out);

/// Compact wire encoding: varint id/seq, zigzag-varint timestamp, varint
/// token count, then the token array delta-coded — first token verbatim,
/// every later token as varint(token[i] - token[i-1] - 1). Strict ascent
/// makes every gap representable and the coding bijective; the inverse is
/// DecodeRecordDelta. The network payload coding of record-carrying tuples.
void EncodeRecordDelta(const Record& r, std::string* out);

/// Decodes an EncodeRecord blob. Returns false on truncated or malformed
/// input — including token arrays that are not strictly ascending, which a
/// well-formed peer never sends (network bytes are untrusted) — `*out` is
/// unspecified then. Always produces owning token storage.
bool DecodeRecord(const char* data, size_t size, Record* out);

/// Decodes an EncodeRecordDelta blob; same contract as DecodeRecord.
/// Non-canonical varints and deltas that overflow TokenId are rejected.
bool DecodeRecordDelta(const char* data, size_t size, Record* out);

/// Token allocator callback for DecodeRecordDeltaBorrowed: returns storage
/// for `n` tokens that outlives the decoded record (the net layer passes its
/// frame arena). Plain function pointer + context so the per-record decode
/// path stays allocation-free.
using TokenAllocFn = TokenId* (*)(void* ctx, size_t n);

/// Zero-copy variant of DecodeRecordDelta: the tokens decode into
/// `alloc`-provided memory and `out->tokens` *borrows* it instead of
/// heap-allocating a vector. Caller must keep the allocator's memory alive
/// for the record's lifetime — see TokenArray's contract.
bool DecodeRecordDeltaBorrowed(const char* data, size_t size, TokenAllocFn alloc, void* ctx,
                               Record* out);

}  // namespace dssj

#endif  // DSSJ_TEXT_RECORD_H_
