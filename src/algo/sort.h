/**
 * @file
 * Sequential-access merge-sort kernels on key/pointer pairs (paper
 * §4.2, "Primitive Implementation").
 *
 * The paper's Sort splits a KPA into chunks, bitonic-sorts blocks of
 * 64 pairs, then merges. sortRun is the single-thread kernel;
 * sortRunParallel shards the same computation across a host
 * WorkerPool — parallel run formation, then parallel merge rounds
 * with the final (few, large) merges sliced at binary-searched
 * merge-path boundaries so all threads help (paper §4.2: "the
 * threads slice chunks at key boundaries"). The parallel kernel
 * performs the identical block/level structure, so its output is
 * bit-for-bit the serial output at every thread count. The host
 * implementation uses a branchless bitonic network (what the paper
 * hand-tunes with AVX-512); simulated timing is charged by the
 * caller via the cost model, so neither host SIMD width nor host
 * thread count ever affects reported numbers.
 */

#ifndef SBHBM_ALGO_SORT_H
#define SBHBM_ALGO_SORT_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "columnar/record.h"
#include "common/logging.h"
#include "common/worker_pool.h"

namespace sbhbm::algo {

using columnar::KpEntry;

/** Block size of the bitonic kernel (64 pairs, paper §4.2). */
constexpr size_t kSortBlock = 64;

/**
 * Branchless compare-exchange: after the call, a holds the smaller
 * key. The pattern compiles to cmov/vector min-max.
 */
inline void
compareExchange(KpEntry &a, KpEntry &b)
{
    const bool swap = b.key < a.key;
    const KpEntry lo = swap ? b : a;
    const KpEntry hi = swap ? a : b;
    a = lo;
    b = hi;
}

/**
 * Bitonic sorting network over exactly @p n entries, n a power of two
 * and n <= kSortBlock.
 */
inline void
bitonicSortPow2(KpEntry *e, size_t n)
{
    sbhbm_assert((n & (n - 1)) == 0 && n <= kSortBlock,
                 "bitonic needs a power of two <= 64, got %zu", n);
    for (size_t k = 2; k <= n; k <<= 1) {
        for (size_t j = k >> 1; j > 0; j >>= 1) {
            for (size_t i = 0; i < n; ++i) {
                const size_t l = i ^ j;
                if (l <= i)
                    continue;
                const bool ascending = (i & k) == 0;
                if (ascending)
                    compareExchange(e[i], e[l]);
                else
                    compareExchange(e[l], e[i]);
            }
        }
    }
}

/** Insertion sort for sub-block tails. */
inline void
insertionSort(KpEntry *e, size_t n)
{
    for (size_t i = 1; i < n; ++i) {
        const KpEntry v = e[i];
        size_t j = i;
        while (j > 0 && v.key < e[j - 1].key) {
            e[j] = e[j - 1];
            --j;
        }
        e[j] = v;
    }
}

/** Sort up to kSortBlock entries (bitonic when full, insertion tail). */
inline void
sortBlock(KpEntry *e, size_t n)
{
    sbhbm_assert(n <= kSortBlock, "block too large: %zu", n);
    if (n == kSortBlock)
        bitonicSortPow2(e, n);
    else
        insertionSort(e, n);
}

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

/** Number of merge levels sortRun performs above the block sort. */
inline int
mergeLevels(size_t n)
{
    int levels = 0;
    for (size_t width = kSortBlock; width < n; width <<= 1)
        ++levels;
    return levels;
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
 * Full merge-sort of @p n entries in place, using @p scratch (at
 * least n entries). Bitonic block sort followed by bottom-up merging.
 *
 * Already-sorted input returns after one scan. Streaming pipelines
 * extract KPAs from time-ordered bundles, so sorting on the timestamp
 * column routinely sees fully sorted runs; random input abandons the
 * check at its first inversion, typically within a few elements.
 * Callers that have already run the scan themselves (kpa::sortKpa)
 * pass @p precheck false so it is not repeated.
 *
 * The ping-pong parity is precomputed: with an odd number of merge
 * levels the block sort lands in scratch (each 1 KiB block is copied
 * while cache-hot, then sorted there), so the final merge pass always
 * writes into @p data and no whole-array copy-back pass is needed.
 */
inline void
sortRun(KpEntry *data, size_t n, KpEntry *scratch, bool precheck = true)
{
    if (n <= 1)
        return;
    if (precheck && isSortedByKey(data, n))
        return;
    const int levels = mergeLevels(n);
    KpEntry *src = (levels % 2 == 0) ? data : scratch;
    KpEntry *dst = (levels % 2 == 0) ? scratch : data;
    for (size_t i = 0; i < n; i += kSortBlock) {
        const size_t m = std::min(kSortBlock, n - i);
        if (src != data)
            std::memcpy(src + i, data + i, m * sizeof(KpEntry));
        sortBlock(src + i, m);
    }
    for (size_t width = kSortBlock; width < n; width <<= 1) {
        for (size_t i = 0; i < n; i += 2 * width) {
            const size_t mid = std::min(i + width, n);
            const size_t end = std::min(i + 2 * width, n);
            mergeRuns(src + i, mid - i, src + mid, end - mid, dst + i);
        }
        std::swap(src, dst);
    }
    // `levels` swaps from the precomputed start: src == data here.
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

/** Entries below which forking a parallel sort is not worth it. */
constexpr size_t kParallelSortMin = size_t{1} << 15;

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

/**
 * sortRun sharded across @p pool; output is bit-for-bit what sortRun
 * produces, at every thread count.
 *
 * Run formation: the block sorts (and the odd-parity copy into
 * scratch) shard by contiguous block ranges. Merge rounds: every
 * level's pairwise merges write disjoint output regions, so pairs
 * dispatch concurrently; once a level has fewer pairs than threads
 * (the last, largest merges) each pair's output is further sliced at
 * merge-path diagonals so every thread still contributes. The level
 * structure, ping-pong parity and tie-breaking are exactly
 * sortRun's, which is what makes the result independent of the
 * slicing.
 */
inline void
sortRunParallel(KpEntry *data, size_t n, KpEntry *scratch,
                WorkerPool &pool, bool precheck = true)
{
    if (n <= 1)
        return;
    if (pool.threads() <= 1 || n < kParallelSortMin) {
        sortRun(data, n, scratch, precheck);
        return;
    }
    if (precheck && isSortedByKey(data, n))
        return;
    const size_t threads = pool.threads();
    const int levels = mergeLevels(n);
    KpEntry *src = (levels % 2 == 0) ? data : scratch;
    KpEntry *dst = (levels % 2 == 0) ? scratch : data;

    // Run formation: independent 64-entry block sorts.
    const size_t nblocks = (n + kSortBlock - 1) / kSortBlock;
    const auto form_shards = static_cast<uint32_t>(
        std::min<size_t>(nblocks, 4 * threads));
    pool.parallelFor(form_shards, [&](uint32_t s) {
        const size_t b0 = nblocks * s / form_shards;
        const size_t b1 = nblocks * (s + 1) / form_shards;
        for (size_t blk = b0; blk < b1; ++blk) {
            const size_t i = blk * kSortBlock;
            const size_t m = std::min(kSortBlock, n - i);
            if (src != data)
                std::memcpy(src + i, data + i, m * sizeof(KpEntry));
            sortBlock(src + i, m);
        }
    });

    // Merge rounds. A segment is (pair offsets, output diagonals).
    struct Segment
    {
        size_t i, mid, end; //!< pair: [i, mid) merged with [mid, end)
        size_t d0, d1;      //!< output slice, relative to i
    };
    std::vector<Segment> segs;
    for (size_t width = kSortBlock; width < n; width <<= 1) {
        segs.clear();
        const size_t npairs = (n + 2 * width - 1) / (2 * width);
        for (size_t i = 0; i < n; i += 2 * width) {
            const size_t mid = std::min(i + width, n);
            const size_t end = std::min(i + 2 * width, n);
            // Slice the pair when pairs are scarcer than threads and
            // the slices stay worth their two binary searches.
            size_t pieces = 1;
            if (npairs < threads) {
                pieces = std::min((threads + npairs - 1) / npairs,
                                  std::max<size_t>(
                                      1, (end - i) / kMergeSegmentMin));
            }
            for (size_t p = 0; p < pieces; ++p) {
                segs.push_back(Segment{i, mid, end,
                                       (end - i) * p / pieces,
                                       (end - i) * (p + 1) / pieces});
            }
        }
        pool.parallelFor(
            static_cast<uint32_t>(segs.size()), [&](uint32_t s) {
                const Segment &g = segs[s];
                const size_t na = g.mid - g.i;
                const size_t nb = g.end - g.mid;
                if (g.d0 == 0 && g.d1 == g.end - g.i) {
                    mergeRuns(src + g.i, na, src + g.mid, nb,
                              dst + g.i);
                } else {
                    mergeRunsSegment(src + g.i, na, src + g.mid, nb,
                                     dst + g.i, g.d0, g.d1);
                }
            });
        std::swap(src, dst);
    }
    // `levels` swaps from the precomputed start: src == data here.
}

} // namespace sbhbm::algo

#endif // SBHBM_ALGO_SORT_H
