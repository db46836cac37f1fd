/**
 * @file
 * Host sort and merge kernels on key/pointer pairs (paper §4.2,
 * "Primitive Implementation").
 *
 * Contract: sortRun leaves *the* stable sort of its input by key,
 * exactly what std::stable_sort produces, so the order of entries
 * with equal keys is deterministic (their input order). The host
 * algorithm is a stable LSD radix sort. The paper's bitonic-block
 * merge-sort lives only in the simulated charges (kpa::sortKpa,
 * sim::cost::mergeLevels), which depend on the entry count alone, so
 * the host algorithm never affects simulated numbers.
 *
 * mergeRuns merges two sorted runs, a-run first on ties;
 * mergeRunsParallel slices one merge across a host WorkerPool at
 * merge-path boundaries (paper §4.2: "the threads slice chunks at key
 * boundaries") and is bit-identical to it at every thread count.
 */

#ifndef SBHBM_ALGO_SORT_H
#define SBHBM_ALGO_SORT_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "columnar/record.h"
#include "common/logging.h"
#include "common/worker_pool.h"

namespace sbhbm::algo {

using columnar::KpEntry;

/** Merge two sorted runs into @p out (sequential access). */
inline void
mergeRuns(const KpEntry *a, size_t na, const KpEntry *b, size_t nb,
          KpEntry *out)
{
    size_t i = 0, j = 0, k = 0;
    while (i < na && j < nb)
        out[k++] = (b[j].key < a[i].key) ? b[j++] : a[i++];
    while (i < na)
        out[k++] = a[i++];
    while (j < nb)
        out[k++] = b[j++];
}

/** @return true when entries are nondecreasing by key. */
inline bool
isSortedByKey(const KpEntry *e, size_t n)
{
    for (size_t i = 1; i < n; ++i)
        if (e[i].key < e[i - 1].key)
            return false;
    return true;
}

/**
 * Stable sort of @p n entries by key in place, using @p scratch (at
 * least n entries) as the other half of a ping-pong buffer.
 *
 * One scan finds the key bits that differ across the run and whether
 * it is already sorted; sorted input returns there (streaming
 * pipelines sort timestamp-extracted KPAs that arrive in order). The
 * rest is an LSD radix sort on 11-bit digits that skips every digit
 * constant across the run: keys < 2^20 take two scatter passes,
 * full-width random keys six. Histograms live on the stack, so the
 * kernel makes no heap allocation.
 */
inline void
sortRun(KpEntry *data, size_t n, KpEntry *scratch)
{
    if (n <= 1)
        return;
    const uint64_t first = data[0].key;
    uint64_t differing = 0;
    bool sorted = true;
    for (size_t i = 1; i < n; ++i) {
        differing |= data[i].key ^ first;
        sorted &= data[i - 1].key <= data[i].key;
    }
    if (sorted)
        return;

    constexpr unsigned kDigitBits = 11;
    constexpr uint64_t kMask = (uint64_t{1} << kDigitBits) - 1;
    constexpr unsigned kMaxDigits = (64 + kDigitBits - 1) / kDigitBits;
    unsigned shifts[kMaxDigits];
    unsigned digits = 0;
    for (unsigned shift = 0; shift < 64; shift += kDigitBits)
        if (((differing >> shift) & kMask) != 0)
            shifts[digits++] = shift;

    // One counting pass for every digit that varies.
    size_t counts[kMaxDigits][kMask + 1];
    std::memset(counts, 0, digits * sizeof(counts[0]));
    for (size_t i = 0; i < n; ++i)
        for (unsigned d = 0; d < digits; ++d)
            ++counts[d][(data[i].key >> shifts[d]) & kMask];

    KpEntry *src = data;
    KpEntry *dst = scratch;
    for (unsigned d = 0; d < digits; ++d) {
        size_t *next = counts[d]; // bucket counts become write offsets
        size_t offset = 0;
        for (uint64_t b = 0; b <= kMask; ++b)
            offset += std::exchange(next[b], offset);
        const unsigned shift = shifts[d];
        for (size_t i = 0; i < n; ++i)
            dst[next[(src[i].key >> shift) & kMask]++] = src[i];
        std::swap(src, dst);
    }
    if (src != data)
        std::memcpy(data, src, n * sizeof(KpEntry));
}

/**
 * Merge-path split: find (ai, bi) with ai + bi == diag such that
 * merging a[0..ai) and b[0..bi) yields the first diag outputs of the
 * full merge. Used to slice one large merge across threads at key
 * boundaries (paper §4.2: "the threads slice chunks at key boundaries
 * to parallelize the task of merging fewer, but larger chunks").
 */
inline void
mergePathSplit(const KpEntry *a, size_t na, const KpEntry *b, size_t nb,
               size_t diag, size_t *ai, size_t *bi)
{
    sbhbm_assert(diag <= na + nb, "diagonal out of range");
    size_t lo = diag > nb ? diag - nb : 0;
    size_t hi = std::min(diag, na);
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        // a[mid] vs b[diag - mid - 1]: is a[mid] on the output side?
        if (b[diag - mid - 1].key < a[mid].key)
            hi = mid;
        else
            lo = mid + 1;
    }
    *ai = lo;
    *bi = diag - lo;
}

/** Minimum output entries per merge-path segment. */
constexpr size_t kMergeSegmentMin = size_t{1} << 14;

/**
 * Compute outputs [d0, d1) of mergeRuns(a, na, b, nb, out) without
 * touching the rest: both diagonals are merge-path-split, then the
 * enclosed sub-runs are merged. Writes exactly the bytes the full
 * merge would, so disjoint segments may run concurrently.
 */
inline void
mergeRunsSegment(const KpEntry *a, size_t na, const KpEntry *b, size_t nb,
                 KpEntry *out, size_t d0, size_t d1)
{
    size_t ai0, bi0, ai1, bi1;
    mergePathSplit(a, na, b, nb, d0, &ai0, &bi0);
    mergePathSplit(a, na, b, nb, d1, &ai1, &bi1);
    mergeRuns(a + ai0, ai1 - ai0, b + bi0, bi1 - bi0, out + d0);
}

/**
 * mergeRuns with the output sliced across @p pool. Bit-identical to
 * mergeRuns at every thread count (merge-path segments partition the
 * output exactly; ties resolve a-first on every path).
 */
inline void
mergeRunsParallel(const KpEntry *a, size_t na, const KpEntry *b,
                  size_t nb, KpEntry *out, WorkerPool &pool)
{
    const size_t total = na + nb;
    const size_t by_size =
        std::max<size_t>(1, total / kMergeSegmentMin);
    const auto segs = static_cast<uint32_t>(
        std::min<size_t>(pool.threads(), by_size));
    if (segs <= 1) {
        mergeRuns(a, na, b, nb, out);
        return;
    }
    pool.parallelFor(segs, [=](uint32_t s) {
        const size_t d0 = total * s / segs;
        const size_t d1 = total * (s + 1) / segs;
        mergeRunsSegment(a, na, b, nb, out, d0, d1);
    });
}

} // namespace sbhbm::algo

#endif // SBHBM_ALGO_SORT_H
