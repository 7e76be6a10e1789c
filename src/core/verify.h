#ifndef DSSJ_CORE_VERIFY_H_
#define DSSJ_CORE_VERIFY_H_

#include <cstddef>
#include <vector>

#include "text/record.h"

namespace dssj {

/// Counters shared by verification routines so benches can attribute cost.
struct VerifyCounters {
  uint64_t merge_steps = 0;  ///< token comparisons plus binary searches
  uint64_t full_verifications = 0;
  uint64_t diff_verifications = 0;
  uint64_t early_exits = 0;
};

/// Inert: there is one verification kernel, which both values run.
/// perfbench/probes.cc still times its `core.verify.block_s` and
/// `core.verify.scalar_s` replays through this call; the benchmark change
/// that retires those two metrics removes it (as with stream::MakeQueue).
enum class VerifyKernel { kScalar, kBlock };
inline void SetVerifyKernel(VerifyKernel) {}

/// Merge-counts the overlap of two ascending token arrays with early
/// termination: returns the exact overlap if it is >= `required`; otherwise
/// returns some value < `required` (callers only compare against
/// `required`). `required` == 0 disables early exit and the result is exact.
///
/// The span form is the hot-path entry point: joiners hand in raw
/// `const TokenId*` ranges (stored records, bundle pivots, diff-decoded
/// members) without materializing vectors.
size_t VerifyOverlap(const TokenId* a, size_t na, const TokenId* b, size_t nb,
                     size_t required, VerifyCounters* counters = nullptr);

/// TokenSpan convenience form: accepts std::vector<TokenId>, TokenArray
/// (owning or frame-borrowed) and raw spans alike.
size_t VerifyOverlap(TokenSpan a, TokenSpan b, size_t required,
                     VerifyCounters* counters = nullptr);

/// Counts |probe ∩ diff| where both arrays are ascending. Used by bundle
/// batch verification: a member's overlap with the probe is derived from
/// the pivot overlap plus intersections with the (small) added/removed
/// token diffs instead of a full merge.
size_t IntersectCount(const TokenId* probe, size_t nprobe, const TokenId* diff,
                      size_t ndiff, VerifyCounters* counters = nullptr);

size_t IntersectCount(TokenSpan probe, TokenSpan diff, VerifyCounters* counters = nullptr);

/// Lower-bounds the symmetric-difference size |a △ b| of two ascending
/// token arrays in O(2^depth · log) by divide and conquer (the PPJoin+
/// suffix-filter bound): split `b` at its middle token w; tokens of `a`
/// below w can only match tokens of `b` below w (and likewise above), so
/// |a △ b| >= lb(a<w, b<w) + lb(a>w, b>w) + [w ∉ a], with
/// lb(x, y) >= ||x| − |y|| at the recursion base. Never exceeds the true
/// symmetric difference. Since overlap = (|a| + |b| − |a △ b|) / 2, a pair
/// requiring overlap α can be pruned when the bound exceeds
/// |a| + |b| − 2α.
size_t SymmetricDifferenceLowerBound(TokenSpan a, TokenSpan b, int max_depth);

}  // namespace dssj

#endif  // DSSJ_CORE_VERIFY_H_
