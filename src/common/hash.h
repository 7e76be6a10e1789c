#ifndef DSSJ_COMMON_HASH_H_
#define DSSJ_COMMON_HASH_H_

#include <cstdint>
#include <cstring>

namespace dssj {

/// Strong 64-bit integer mixer (SplitMix64 finalizer). Good avalanche; used
/// to spread sequential ids across hash partitions.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// 64-bit integrity checksum of the store frame (store/format.h), which
/// carries checkpoint chains, spill records and migration blobs: detects
/// torn writes and flipped bits, not tampering.
/// Reads 8-byte words (unaligned, via memcpy) into four independent
/// multiply-xorshift lanes, word k into lane k mod 4, so the lanes' multiply
/// chains overlap; the last partial block is zero-padded, and the length and
/// the four lanes fold through the same step before a Mix64 finish. Every
/// step is a bijection of the state it updates, so two equal-length inputs
/// that differ within one 8-byte word always checksum differently.
/// Words load in host byte order, which the binary formats already assume
/// is little-endian.
inline uint64_t Checksum64(const void* data, size_t len) {
  constexpr uint64_t kMul = 0x9FB21C651E98DF25ULL;  // odd, so s * kMul is invertible
  const auto step = [](uint64_t s, uint64_t word) {
    s = (s ^ word) * kMul;
    return s ^ (s >> 31);
  };
  const auto load = [](const unsigned char* p) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
  };
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t a = 0x243F6A8885A308D3ULL, b = 0x13198A2E03707344ULL;
  uint64_t c = 0xA4093822299F31D0ULL, d = 0x082EFA98EC4E6C89ULL;
  const auto block = [&](const unsigned char* q) {
    a = step(a, load(q));
    b = step(b, load(q + 8));
    c = step(c, load(q + 16));
    d = step(d, load(q + 24));
  };
  size_t i = 0;
  for (; i + 32 <= len; i += 32) block(p + i);
  if (i < len) {
    unsigned char tail[32] = {};
    std::memcpy(tail, p + i, len - i);
    block(tail);
  }
  return Mix64(step(step(step(step(static_cast<uint64_t>(len), a), b), c), d));
}

}  // namespace dssj

#endif  // DSSJ_COMMON_HASH_H_
