#include "algo/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"

namespace sbhbm::algo {
namespace {

std::vector<KpEntry>
randomEntries(size_t n, uint64_t seed, uint64_t key_range = ~0ull)
{
    Rng rng(seed);
    std::vector<KpEntry> v(n);
    for (size_t i = 0; i < n; ++i) {
        v[i].key = key_range == ~0ull ? rng.next()
                                      : rng.nextBounded(key_range);
        // Row pointers double as identity tags for permutation checks.
        v[i].row = reinterpret_cast<uint64_t *>(i + 1);
    }
    return v;
}

/** Check out is a sorted permutation of in (keys AND attached rows). */
void
expectSortedPermutation(const std::vector<KpEntry> &in,
                        const std::vector<KpEntry> &out)
{
    ASSERT_EQ(in.size(), out.size());
    EXPECT_TRUE(isSortedByKey(out.data(), out.size()));
    // Every (key, row) pair must survive exactly once.
    std::map<std::pair<uint64_t, uint64_t *>, int> bag;
    for (const auto &e : in)
        ++bag[{e.key, e.row}];
    for (const auto &e : out)
        --bag[{e.key, e.row}];
    for (const auto &[k, v] : bag)
        ASSERT_EQ(v, 0) << "multiset mismatch";
}

TEST(BitonicSort, SortsAllPowerOfTwoSizes)
{
    for (size_t n : {2, 4, 8, 16, 32, 64}) {
        auto v = randomEntries(n, 42 + n);
        auto orig = v;
        bitonicSortPow2(v.data(), n);
        expectSortedPermutation(orig, v);
    }
}

TEST(BitonicSort, HandlesDuplicateKeys)
{
    auto v = randomEntries(64, 7, /*key_range=*/4);
    auto orig = v;
    bitonicSortPow2(v.data(), 64);
    expectSortedPermutation(orig, v);
}

TEST(SortBlock, TailSizesUseInsertionSort)
{
    for (size_t n : {0, 1, 3, 17, 63}) {
        auto v = randomEntries(n, 100 + n);
        auto orig = v;
        sortBlock(v.data(), n);
        expectSortedPermutation(orig, v);
    }
}

TEST(MergeRuns, MergesTwoSortedRuns)
{
    auto a = randomEntries(100, 1);
    auto b = randomEntries(57, 2);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<KpEntry> out(157);
    mergeRuns(a.data(), a.size(), b.data(), b.size(), out.data());
    EXPECT_TRUE(isSortedByKey(out.data(), out.size()));
}

TEST(MergeRuns, EmptySideIsACopy)
{
    auto a = randomEntries(10, 3);
    std::sort(a.begin(), a.end());
    std::vector<KpEntry> out(10);
    mergeRuns(a.data(), a.size(), nullptr, 0, out.data());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(out[i].key, a[i].key);
}

class SortRunTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SortRunTest, SortsArbitrarySizes)
{
    const size_t n = GetParam();
    auto v = randomEntries(n, 1000 + n);
    auto orig = v;
    std::vector<KpEntry> scratch(n);
    sortRun(v.data(), n, scratch.data());
    expectSortedPermutation(orig, v);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortRunTest,
                         ::testing::Values(0, 1, 2, 63, 64, 65, 127, 128,
                                           129, 1000, 4096, 8191, 10000,
                                           65536, 100001));

TEST(SortRun, ResultLandsInDataForBothMergeParities)
{
    // The ping-pong parity is precomputed so no final copy-back pass
    // runs: verify `data` holds the sorted result on either side of
    // every level-count boundary.
    for (size_t n : {65ul, 128ul, 129ul, 256ul, 257ul, 8192ul, 8193ul}) {
        SCOPED_TRACE(n);
        auto v = randomEntries(n, 7000 + n);
        auto orig = v;
        std::vector<KpEntry> scratch(n);
        sortRun(v.data(), n, scratch.data());
        expectSortedPermutation(orig, v);
    }
}

TEST(SortRun, AlreadySortedStaysSorted)
{
    auto v = randomEntries(5000, 5);
    std::vector<KpEntry> scratch(v.size());
    sortRun(v.data(), v.size(), scratch.data());
    auto copy = v;
    sortRun(v.data(), v.size(), scratch.data());
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(v[i].key, copy[i].key);
}

TEST(SortRun, HeavilySkewedKeysSortCorrectly)
{
    // Paper §6: "our grouping primitives, e.g. sort and merge, are
    // insensitive to key skewness" — at least they must be correct.
    auto v = randomEntries(10000, 6, /*key_range=*/3);
    auto orig = v;
    std::vector<KpEntry> scratch(v.size());
    sortRun(v.data(), v.size(), scratch.data());
    expectSortedPermutation(orig, v);
}

TEST(MergeLevels, CountsPassesAboveBlockSort)
{
    EXPECT_EQ(mergeLevels(64), 0);
    EXPECT_EQ(mergeLevels(65), 1);
    EXPECT_EQ(mergeLevels(128), 1);
    EXPECT_EQ(mergeLevels(129), 2);
    EXPECT_EQ(mergeLevels(64 * 1024), 10);
}

TEST(MergePathSplit, SplitsProduceValidPrefixes)
{
    auto a = randomEntries(1000, 11);
    auto b = randomEntries(800, 12);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    // Reference: full merge.
    std::vector<KpEntry> full(1800);
    mergeRuns(a.data(), a.size(), b.data(), b.size(), full.data());

    for (size_t diag : {0ul, 1ul, 500ul, 900ul, 1799ul, 1800ul}) {
        size_t ai = 0, bi = 0;
        mergePathSplit(a.data(), a.size(), b.data(), b.size(), diag, &ai,
                       &bi);
        ASSERT_EQ(ai + bi, diag);
        // Merging the two prefixes yields exactly the first diag outputs
        // of the full merge (by key; ties may permute).
        std::vector<KpEntry> part(diag);
        mergeRuns(a.data(), ai, b.data(), bi, part.data());
        for (size_t i = 0; i < diag; ++i)
            ASSERT_EQ(part[i].key, full[i].key) << "diag=" << diag;
    }
}

TEST(MergePathSplit, ParallelMergeViaSplitsEqualsSequentialMerge)
{
    auto a = randomEntries(4096, 21);
    auto b = randomEntries(4000, 22);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const size_t total = a.size() + b.size();

    std::vector<KpEntry> expect(total);
    mergeRuns(a.data(), a.size(), b.data(), b.size(), expect.data());

    // Simulate 8 threads each merging one slice.
    std::vector<KpEntry> out(total);
    const size_t threads = 8;
    for (size_t t = 0; t < threads; ++t) {
        const size_t d0 = total * t / threads;
        const size_t d1 = total * (t + 1) / threads;
        size_t a0, b0, a1, b1;
        mergePathSplit(a.data(), a.size(), b.data(), b.size(), d0, &a0,
                       &b0);
        mergePathSplit(a.data(), a.size(), b.data(), b.size(), d1, &a1,
                       &b1);
        mergeRuns(a.data() + a0, a1 - a0, b.data() + b0, b1 - b0,
                  out.data() + d0);
    }
    for (size_t i = 0; i < total; ++i)
        ASSERT_EQ(out[i].key, expect[i].key);
}

/**
 * Regression for the presorted early-out: nearly-sorted input
 * (exactly one inversion) must abandon the early-out at the
 * inversion and still produce correct output.
 */
TEST(SortRun, NearlySortedOneInversionStillSortsCorrectly)
{
    const size_t n = 5000; // several merge levels above the blocks
    // Inversion positions: front, inside the first block, straddling
    // a block boundary, mid-array, and the very last pair.
    for (const size_t p :
         {size_t{0}, size_t{30}, kSortBlock - 1, n / 2, n - 2}) {
        std::vector<KpEntry> v(n), scratch(n);
        for (size_t i = 0; i < n; ++i)
            v[i] = KpEntry{i, reinterpret_cast<uint64_t *>(i + 1)};
        std::swap(v[p], v[p + 1]); // the one inversion
        ASSERT_FALSE(isSortedByKey(v.data(), n));
        sortRun(v.data(), n, scratch.data());
        // Distinct keys: the sorted arrangement is unique, so the
        // payloads must come back to exactly their original slots.
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(v[i].key, i) << "inversion at " << p;
            ASSERT_EQ(v[i].row, reinterpret_cast<uint64_t *>(i + 1))
                << "inversion at " << p;
        }
    }
}

/** Same regression with duplicate keys and the parallel kernel. */
TEST(SortRun, NearlySortedWithDuplicatesMatchesSerialAtAllThreads)
{
    const size_t n = (size_t{1} << 15) + 100; // above parallel min
    std::vector<KpEntry> base(n);
    for (size_t i = 0; i < n; ++i)
        base[i] =
            KpEntry{i / 8, reinterpret_cast<uint64_t *>(i + 1)};
    std::swap(base[n / 3], base[n / 3 + 9]); // one out-of-place span
    auto orig = base;
    std::vector<KpEntry> scratch(n);
    auto serial = base;
    sortRun(serial.data(), n, scratch.data());
    expectSortedPermutation(orig, serial);
    for (const unsigned threads : {2u, 8u}) {
        WorkerPool pool(threads);
        auto par = base;
        sortRunParallel(par.data(), n, scratch.data(), pool);
        ASSERT_EQ(std::memcmp(par.data(), serial.data(),
                              n * sizeof(KpEntry)),
                  0)
            << threads;
    }
}

TEST(CompareExchange, OrdersPairAndPreservesPayload)
{
    KpEntry a{5, reinterpret_cast<uint64_t *>(0xa)};
    KpEntry b{3, reinterpret_cast<uint64_t *>(0xb)};
    compareExchange(a, b);
    EXPECT_EQ(a.key, 3u);
    EXPECT_EQ(b.key, 5u);
    EXPECT_EQ(a.row, reinterpret_cast<uint64_t *>(0xb));
    EXPECT_EQ(b.row, reinterpret_cast<uint64_t *>(0xa));
}

} // namespace
} // namespace sbhbm::algo
