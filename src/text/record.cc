#include "text/record.h"

#include <algorithm>
#include <cstring>

#include "common/serialize.h"

namespace dssj {
namespace {

/// Shared delta-format decode; `alloc_tokens(n)` returns writable storage
/// for the decoded array (vector resize or arena alloc).
template <typename TokenAlloc>
bool DecodeRecordDeltaImpl(const char* data, size_t size, Record* out,
                           TokenAlloc&& alloc_tokens) {
  SafeBinaryReader r(data, size);
  uint64_t n = 0;
  if (!r.ReadVarint(&out->id) || !r.ReadVarint(&out->seq) ||
      !r.ReadVarintI64(&out->timestamp) || !r.ReadVarint(&n)) {
    return false;
  }
  // Every delta is at least one byte: a count larger than the remaining
  // bytes is a lie, caught before any allocation.
  if (n > r.remaining()) return false;
  TokenId* t = alloc_tokens(static_cast<size_t>(n));
  // The token section is the tail of the record, so decode it with raw
  // pointers: sorted token gaps are overwhelmingly single-byte, and this
  // loop is the hottest few nanoseconds of the receive path.
  const char* tail = nullptr;
  size_t avail = 0;
  if (!r.ReadSpan(&tail, &avail, r.remaining())) return false;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(tail);
  const uint8_t* const end = p + avail;
  // First token verbatim; later tokens reconstruct as prev + delta + 1,
  // which enforces strict ascent by construction. Anything that would climb
  // past the TokenId range is malformed (non-monotone deltas show up here
  // as overflow).
  uint64_t prev = 0;
  if (n > 0) {
    if (!DecodeCanonicalVarint(p, end, &prev) || prev > 0xffffffffull) return false;
    t[0] = static_cast<TokenId>(prev);
  }
  for (uint64_t i = 1; i < n; ++i) {
    uint64_t d = 0;
    // The gap itself must fit the token range too: with d unbounded,
    // prev + d + 1 can wrap mod 2^64 and sneak a duplicate token past the
    // ceiling check below.
    if (!DecodeCanonicalVarint(p, end, &d) || d > 0xffffffffull) return false;
    const uint64_t next = prev + d + 1;
    if (next > 0xffffffffull) return false;
    t[i] = static_cast<TokenId>(next);
    prev = next;
  }
  return p == end;
}

}  // namespace

void NormalizeTokens(std::vector<TokenId>& tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
}

size_t OverlapSize(TokenSpan a, TokenSpan b) {
  size_t i = 0, j = 0, overlap = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

RecordPtr MakeRecord(uint64_t id, uint64_t seq, std::vector<TokenId> tokens, int64_t timestamp) {
  NormalizeTokens(tokens);
  return std::make_shared<const Record>(id, seq, timestamp, std::move(tokens));
}

RecordPtr DetachRecord(const RecordPtr& r) {
  if (r == nullptr || !r->borrowed()) return r;
  // Record's copy constructor deep-copies the TokenArray (copy == detach).
  return std::make_shared<const Record>(*r);
}

void EncodeRecord(const Record& r, std::string* out) {
  BinaryWriter w(out);
  w.WriteU64(r.id);
  w.WriteU64(r.seq);
  w.WriteI64(r.timestamp);
  w.WriteU32(static_cast<uint32_t>(r.tokens.size()));
  if (!r.tokens.empty()) {
    out->append(reinterpret_cast<const char*>(r.tokens.data()),
                r.tokens.size() * sizeof(TokenId));
  }
}

void EncodeRecordDelta(const Record& r, std::string* out) {
  BinaryWriter w(out);
  w.WriteVarint(r.id);
  w.WriteVarint(r.seq);
  w.WriteVarintI64(r.timestamp);
  w.WriteVarint(r.tokens.size());
  TokenId prev = 0;
  for (size_t i = 0; i < r.tokens.size(); ++i) {
    const TokenId t = r.tokens[i];
    w.WriteVarint(i == 0 ? t : t - prev - 1);
    prev = t;
  }
}

bool DecodeRecord(const char* data, size_t size, Record* out) {
  SafeBinaryReader r(data, size);
  uint32_t n = 0;
  if (!r.ReadU64(&out->id) || !r.ReadU64(&out->seq) || !r.ReadI64(&out->timestamp) ||
      !r.ReadU32(&n)) {
    return false;
  }
  if (r.remaining() != static_cast<size_t>(n) * sizeof(TokenId)) return false;
  std::vector<TokenId> tokens(n);
  if (n > 0) std::memcpy(tokens.data(), data + (size - r.remaining()), n * sizeof(TokenId));
  for (size_t i = 1; i < tokens.size(); ++i) {
    if (tokens[i - 1] >= tokens[i]) return false;
  }
  out->tokens = TokenArray(std::move(tokens));
  return true;
}

bool DecodeRecordDelta(const char* data, size_t size, Record* out) {
  std::vector<TokenId> tokens;
  const bool ok = DecodeRecordDeltaImpl(data, size, out, [&](size_t n) {
    tokens.resize(n);
    return tokens.data();
  });
  if (!ok) return false;
  out->tokens = TokenArray(std::move(tokens));
  return true;
}

bool DecodeRecordDeltaBorrowed(const char* data, size_t size, TokenAllocFn alloc, void* ctx,
                               Record* out) {
  TokenId* t = nullptr;
  size_t n = 0;
  const bool ok = DecodeRecordDeltaImpl(data, size, out, [&](size_t count) {
    n = count;
    t = alloc(ctx, count);
    return t;
  });
  if (!ok) return false;
  out->tokens = TokenArray::Borrow(t, n);
  return true;
}

}  // namespace dssj
