#include "algo/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
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
    const size_t n = 5000; // keys span two 11-bit radix digits
    // Inversion positions: front, early, straddling 64, mid-array,
    // and the very last pair.
    for (const size_t p :
         {size_t{0}, size_t{30}, size_t{63}, n / 2, n - 2}) {
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

/**
 * The sort contract: sortRun leaves exactly what std::stable_sort
 * leaves, keys and row pointers (identity tags) alike, so the order
 * of equal keys is the input order. Shapes cover every radix-pass
 * count, a span straddling one digit boundary, bit 63 set, and the
 * presorted early return next to inputs it must not take.
 */
TEST(SortRun, MatchesStdStableSort)
{
    struct Shape
    {
        const char *name;
        uint64_t (*key)(Rng &, size_t i, size_t n);
    };
    const Shape shapes[] = {
        {"all-equal", [](Rng &, size_t, size_t) { return uint64_t{7}; }},
        {"below-2^11",
         [](Rng &r, size_t, size_t) { return r.nextBounded(1u << 11); }},
        {"straddles-2^11",
         [](Rng &r, size_t, size_t) {
             return (uint64_t{1} << 11) - 8 + r.nextBounded(16);
         }},
        {"below-2^20",
         [](Rng &r, size_t, size_t) { return r.nextBounded(1u << 20); }},
        {"full-64-bit", [](Rng &r, size_t, size_t) { return r.next(); }},
        {"bit-63-mixed",
         [](Rng &r, size_t, size_t) {
             return (r.next() & (uint64_t{1} << 63)) | r.nextBounded(64);
         }},
        {"presorted",
         [](Rng &, size_t i, size_t) { return uint64_t{i} / 3; }},
        {"reverse-sorted",
         [](Rng &, size_t i, size_t n) { return uint64_t{n - i} / 3; }},
        {"one-inversion",
         [](Rng &, size_t i, size_t n) {
             return uint64_t{i == n / 2 ? i + 1 : i == n / 2 + 1 ? i - 1 : i};
         }},
    };
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{63},
                           size_t{64}, size_t{65}, size_t{1000},
                           size_t{50000}, size_t{1572864}}) {
        for (const Shape &sh : shapes) {
            SCOPED_TRACE(testing::Message() << sh.name << " n=" << n);
            Rng rng(n + 17);
            std::vector<KpEntry> v(n);
            for (size_t i = 0; i < n; ++i)
                v[i] = KpEntry{sh.key(rng, i, n),
                               reinterpret_cast<uint64_t *>(i + 1)};
            auto expect = v;
            std::stable_sort(expect.begin(), expect.end());
            std::vector<KpEntry> scratch(n);
            sortRun(v.data(), n, scratch.data());
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(v[i].key, expect[i].key) << "at " << i;
                ASSERT_EQ(v[i].row, expect[i].row) << "at " << i;
            }
        }
    }
}

} // namespace
} // namespace sbhbm::algo
