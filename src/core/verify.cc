#include "core/verify.h"

#include <algorithm>

namespace dssj {

namespace {

struct MergeResult {
  size_t overlap = 0;
  uint64_t steps = 0;  ///< token comparisons
  bool early = false;
};

/// The merge loop with a per-comparison early exit: gives up once even
/// matching every remaining token cannot reach `required` (0: never).
MergeResult Merge(const TokenId* a, size_t na, const TokenId* b, size_t nb, size_t required) {
  MergeResult res;
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (required > 0 && res.overlap + std::min(na - i, nb - j) < required) {
      res.early = true;
      break;
    }
    ++res.steps;
    if (a[i] == b[j]) {
      ++res.overlap;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return res;
}

}  // namespace

size_t VerifyOverlap(const TokenId* a, size_t na, const TokenId* b, size_t nb,
                     size_t required, VerifyCounters* counters) {
  const MergeResult res = Merge(a, na, b, nb, required);
  if (counters != nullptr) {
    counters->merge_steps += res.steps;
    counters->full_verifications += 1;
    if (res.early) counters->early_exits += 1;
  }
  return res.overlap;
}

size_t VerifyOverlap(TokenSpan a, TokenSpan b, size_t required, VerifyCounters* counters) {
  return VerifyOverlap(a.data(), a.size(), b.data(), b.size(), required, counters);
}

size_t IntersectCount(const TokenId* probe, size_t nprobe, const TokenId* diff, size_t ndiff,
                      VerifyCounters* counters) {
  MergeResult res;
  if (ndiff * 8 < nprobe) {
    // A diff this small against the probe: one resumable binary search per
    // diff token beats walking the probe.
    const TokenId* from = probe;
    const TokenId* end = probe + nprobe;
    for (size_t k = 0; k < ndiff; ++k) {
      from = std::lower_bound(from, end, diff[k]);
      ++res.steps;
      if (from == end) break;
      if (*from == diff[k]) {
        ++res.overlap;
        ++from;
      }
    }
  } else {
    res = Merge(probe, nprobe, diff, ndiff, /*required=*/0);
  }
  if (counters != nullptr) {
    counters->merge_steps += res.steps;
    counters->diff_verifications += 1;
  }
  return res.overlap;
}

size_t IntersectCount(TokenSpan probe, TokenSpan diff, VerifyCounters* counters) {
  return IntersectCount(probe.data(), probe.size(), diff.data(), diff.size(), counters);
}

namespace {

size_t DiffBoundRecurse(const TokenId* a, size_t na, const TokenId* b, size_t nb,
                        int depth) {
  if (na == 0 || nb == 0 || depth <= 0) {
    return na >= nb ? na - nb : nb - na;
  }
  const size_t mid = nb / 2;
  const TokenId w = b[mid];
  const TokenId* pos = std::lower_bound(a, a + na, w);
  const bool found = pos != a + na && *pos == w;
  const size_t left_a = static_cast<size_t>(pos - a);
  const TokenId* right_a = pos + (found ? 1 : 0);
  const size_t right_na = na - left_a - (found ? 1 : 0);
  return DiffBoundRecurse(a, left_a, b, mid, depth - 1) +
         DiffBoundRecurse(right_a, right_na, b + mid + 1, nb - mid - 1, depth - 1) +
         (found ? 0 : 1);
}

}  // namespace

size_t SymmetricDifferenceLowerBound(TokenSpan a, TokenSpan b, int max_depth) {
  return DiffBoundRecurse(a.data(), a.size(), b.data(), b.size(), max_depth);
}

}  // namespace dssj
