#include "kpa/primitives.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "common/units.h"
#include "sim/machine_config.h"

namespace sbhbm::kpa {
namespace {

using mem::Tier;
using sim::CostLog;

class PrimitivesTest : public ::testing::Test
{
  protected:
    sim::MachineConfig cfg_ = sim::MachineConfig::knl();
    mem::HybridMemory hm_{cfg_, sim::MemoryMode::kFlat};
    CostLog log_;
    Placement hbm_{Tier::kHbm, false};

    Ctx ctx() { return Ctx{hm_, log_}; }

    /** Bundle of (key, value, ts) rows with random keys. */
    BundleHandle
    makeKvBundle(uint32_t rows, uint64_t seed, uint64_t key_range = 50)
    {
        Rng rng(seed);
        BundleHandle b =
            BundleHandle::adopt(Bundle::create(hm_, 3, rows));
        for (uint32_t r = 0; r < rows; ++r) {
            uint64_t *row = b->appendRaw();
            row[0] = rng.nextBounded(key_range); // key
            row[1] = rng.nextBounded(1000);      // value
            row[2] = 1000 + r;                   // ts (increasing)
        }
        return b;
    }
};

TEST_F(PrimitivesTest, ExtractCopiesKeysAndPointers)
{
    BundleHandle b = makeKvBundle(100, 1);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    ASSERT_EQ(k->size(), 100u);
    EXPECT_EQ(k->residentColumn(), 0u);
    EXPECT_EQ(k->tier(), Tier::kHbm);
    for (uint32_t i = 0; i < k->size(); ++i) {
        EXPECT_EQ(k->at(i).key, b->row(i)[0]);
        EXPECT_EQ(k->at(i).row, b->row(i));
    }
    // Source link registered.
    ASSERT_EQ(k->sources().size(), 1u);
    EXPECT_EQ(b->refcount(), 2u);
}

TEST_F(PrimitivesTest, ExtractChargesBundleReadAndKpaWrite)
{
    BundleHandle b = makeKvBundle(1000, 2);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    // Bundle: 1000 * 3 * 8 = 24000 B seq on DRAM; KPA: 16000 B on HBM.
    EXPECT_EQ(log_.bytesOn(sim::Tier::kDram), 24000u);
    EXPECT_EQ(log_.bytesOn(sim::Tier::kHbm), 16000u);
    EXPECT_GT(log_.totalCpuNs(), 0.0);
}

TEST_F(PrimitivesTest, KeySwapLoadsNonresidentColumn)
{
    BundleHandle b = makeKvBundle(50, 3);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    keySwap(ctx(), *k, 2);
    EXPECT_EQ(k->residentColumn(), 2u);
    for (uint32_t i = 0; i < k->size(); ++i)
        EXPECT_EQ(k->at(i).key, b->row(i)[2]);
    // Swapping to the same column is a no-op.
    CostLog before = log_;
    keySwap(ctx(), *k, 2);
    EXPECT_EQ(log_.totalBytes(), before.totalBytes());
}

TEST_F(PrimitivesTest, KeySwapChargesRandomRecordReads)
{
    BundleHandle b = makeKvBundle(100, 4);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    CostLog swap_log;
    keySwap(Ctx{hm_, swap_log}, *k, 1);
    // 100 random line touches on DRAM.
    uint64_t rand_bytes = 0;
    for (const auto &p : swap_log.phases())
        for (const auto &f : p.flows)
            if (f.pattern == sim::AccessPattern::kRandom)
                rand_bytes += f.bytes;
    EXPECT_EQ(rand_bytes, 100u * 64);
}

TEST_F(PrimitivesTest, SortOrdersByResidentKey)
{
    BundleHandle b = makeKvBundle(10000, 5);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);
    EXPECT_TRUE(k->sorted());
    EXPECT_TRUE(algo::isSortedByKey(k->entries(), k->size()));
    // Pointers still point at real records whose key column matches.
    for (uint32_t i = 0; i < k->size(); ++i)
        EXPECT_EQ(k->at(i).key, k->at(i).row[0]);
}

TEST_F(PrimitivesTest, SortOnSortedKpaIsFree)
{
    BundleHandle b = makeKvBundle(100, 6);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);
    CostLog second;
    sortKpa(Ctx{hm_, second}, *k);
    EXPECT_TRUE(second.empty());
}

TEST_F(PrimitivesTest, SortChargesOnePassPerMergeLevel)
{
    BundleHandle b = makeKvBundle(4096, 7);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    CostLog sort_log;
    sortKpa(Ctx{hm_, sort_log}, *k);
    // 4096 entries: 1 block pass + 6 merge levels, 48 B/elem each
    // (stream in + write-allocate out).
    const uint64_t expect =
        (1 + 6) * sim::cost::kSortBytesPerElemLevel * 4096ull;
    EXPECT_EQ(sort_log.bytesOn(sim::Tier::kHbm), expect);
}

TEST_F(PrimitivesTest, MergeCombinesSortedKpas)
{
    BundleHandle b1 = makeKvBundle(500, 8);
    BundleHandle b2 = makeKvBundle(700, 9);
    KpaPtr k1 = extract(ctx(), *b1, 0, hbm_);
    KpaPtr k2 = extract(ctx(), *b2, 0, hbm_);
    sortKpa(ctx(), *k1);
    sortKpa(ctx(), *k2);
    KpaPtr m = merge(ctx(), *k1, *k2, hbm_);
    ASSERT_EQ(m->size(), 1200u);
    EXPECT_TRUE(m->sorted());
    EXPECT_TRUE(algo::isSortedByKey(m->entries(), m->size()));
    EXPECT_EQ(m->residentColumn(), 0u);
    // Merged KPA references both source bundles.
    EXPECT_EQ(m->sources().size(), 2u);
}

TEST_F(PrimitivesTest, MergeRequiresSortedInputs)
{
    BundleHandle b1 = makeKvBundle(10, 10);
    BundleHandle b2 = makeKvBundle(10, 11);
    KpaPtr k1 = extract(ctx(), *b1, 0, hbm_);
    KpaPtr k2 = extract(ctx(), *b2, 0, hbm_);
    EXPECT_DEATH((void)merge(ctx(), *k1, *k2, hbm_), "sorted");
}

TEST_F(PrimitivesTest, MaterializeEmitsRecordsInKpaOrder)
{
    BundleHandle b = makeKvBundle(200, 12);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);
    BundleHandle out = materialize(ctx(), *k);
    ASSERT_EQ(out->size(), 200u);
    EXPECT_EQ(out->cols(), 3u);
    for (uint32_t i = 0; i < out->size(); ++i) {
        EXPECT_EQ(out->row(i)[0], k->at(i).key);
        // Full rows copied.
        EXPECT_EQ(out->row(i)[1], k->at(i).row[1]);
    }
}

TEST_F(PrimitivesTest, SelectFromBundleKeepsSurvivors)
{
    BundleHandle b = makeKvBundle(1000, 13);
    // Keep records with even keys.
    KpaPtr k = selectFromBundle(
        ctx(), *b, 0, [](const uint64_t *row) { return row[0] % 2 == 0; },
        hbm_);
    uint32_t expect = 0;
    for (uint32_t r = 0; r < b->size(); ++r)
        if (b->row(r)[0] % 2 == 0)
            ++expect;
    EXPECT_EQ(k->size(), expect);
    for (uint32_t i = 0; i < k->size(); ++i)
        EXPECT_EQ(k->at(i).key % 2, 0u);
}

TEST_F(PrimitivesTest, SelectFromBundleOnEmptyBundleYieldsUsableKpa)
{
    // A sealed-but-empty bundle must select into an empty KPA whose
    // capacity is clamped to 1 (harmonized with selectFromKpa).
    BundleHandle b = BundleHandle::adopt(Bundle::create(hm_, 3, 8));
    KpaPtr k = selectFromBundle(
        ctx(), *b, 0, [](const uint64_t *) { return true; }, hbm_);
    EXPECT_EQ(k->size(), 0u);
    EXPECT_GE(k->capacity(), 1u);
    EXPECT_TRUE(k->empty());
    // The clamped capacity keeps the KPA usable for later appends.
    uint64_t row[3] = {1, 2, 3};
    k->push(7, row);
    EXPECT_EQ(k->size(), 1u);
}

TEST_F(PrimitivesTest, SelectFromKpaOnEmptyKpaYieldsUsableKpa)
{
    BundleHandle b = BundleHandle::adopt(Bundle::create(hm_, 3, 8));
    KpaPtr empty = selectFromBundle(
        ctx(), *b, 0, [](const uint64_t *) { return false; }, hbm_);
    ASSERT_EQ(empty->size(), 0u);
    KpaPtr k = selectFromKpa(
        ctx(), *empty, [](uint64_t) { return true; }, hbm_);
    EXPECT_EQ(k->size(), 0u);
    EXPECT_GE(k->capacity(), 1u);
}

TEST_F(PrimitivesTest, SelectFromKpaFiltersOnResidentKey)
{
    BundleHandle b = makeKvBundle(1000, 14);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    KpaPtr f = selectFromKpa(
        ctx(), *k, [](uint64_t key) { return key < 10; }, hbm_);
    for (uint32_t i = 0; i < f->size(); ++i)
        EXPECT_LT(f->at(i).key, 10u);
    EXPECT_EQ(f->sources().size(), 1u);
}

TEST_F(PrimitivesTest, PartitionByRangeSplitsWindows)
{
    BundleHandle b = makeKvBundle(900, 15);
    // ts column runs 1000..1899; partition by width 300 => ranges 3,4,5,6.
    KpaPtr k = extract(ctx(), *b, 2, hbm_);
    auto parts = partitionByRange(ctx(), *k, 300, hbm_);
    ASSERT_EQ(parts.size(), 4u);
    uint32_t total = 0;
    for (const auto &rp : parts) {
        for (uint32_t i = 0; i < rp.part->size(); ++i)
            EXPECT_EQ(rp.part->at(i).key / 300, rp.range);
        total += rp.part->size();
        EXPECT_EQ(rp.part->sources().size(), 1u);
    }
    EXPECT_EQ(total, 900u);
}

TEST_F(PrimitivesTest, JoinMatchesKeysAcrossKpas)
{
    // Left: keys 0..9 with value 100+key; right: keys 5..14, value
    // 200+key. Expect matches on 5..9.
    BundleHandle lb = BundleHandle::adopt(Bundle::create(hm_, 3, 10));
    BundleHandle rb = BundleHandle::adopt(Bundle::create(hm_, 3, 10));
    for (uint64_t i = 0; i < 10; ++i) {
        lb->append({i, 100 + i, 1});
        rb->append({i + 5, 200 + i + 5, 2});
    }
    KpaPtr lk = extract(ctx(), *lb, 0, hbm_);
    KpaPtr rk = extract(ctx(), *rb, 0, hbm_);
    sortKpa(ctx(), *lk);
    sortKpa(ctx(), *rk);
    BundleHandle out = join(ctx(), *lk, *rk, {1}, {1});
    ASSERT_EQ(out->size(), 5u);
    EXPECT_EQ(out->cols(), 3u);
    std::set<uint64_t> keys;
    for (uint32_t i = 0; i < out->size(); ++i) {
        const uint64_t *row = out->row(i);
        keys.insert(row[0]);
        EXPECT_EQ(row[1], 100 + row[0]); // left payload
        EXPECT_EQ(row[2], 200 + row[0]); // right payload
    }
    EXPECT_EQ(keys, (std::set<uint64_t>{5, 6, 7, 8, 9}));
}

TEST_F(PrimitivesTest, JoinProducesCrossProductOnDuplicates)
{
    BundleHandle lb = BundleHandle::adopt(Bundle::create(hm_, 2, 3));
    BundleHandle rb = BundleHandle::adopt(Bundle::create(hm_, 2, 2));
    lb->append({7, 1});
    lb->append({7, 2});
    lb->append({8, 3});
    rb->append({7, 10});
    rb->append({7, 20});
    KpaPtr lk = extract(ctx(), *lb, 0, hbm_);
    KpaPtr rk = extract(ctx(), *rb, 0, hbm_);
    sortKpa(ctx(), *lk);
    sortKpa(ctx(), *rk);
    BundleHandle out = join(ctx(), *lk, *rk, {1}, {1});
    EXPECT_EQ(out->size(), 4u); // 2 x 2 on key 7
}

TEST_F(PrimitivesTest, JoinHandlesNonContiguousPayloadColumns)
{
    // Payload columns out of order / with gaps exercise the
    // per-column emit path (the memcpy fast path needs a c, c+1 run).
    BundleHandle lb = BundleHandle::adopt(Bundle::create(hm_, 4, 4));
    BundleHandle rb = BundleHandle::adopt(Bundle::create(hm_, 4, 4));
    for (uint64_t i = 0; i < 4; ++i) {
        lb->append({i, 10 + i, 20 + i, 30 + i});
        rb->append({i, 40 + i, 50 + i, 60 + i});
    }
    KpaPtr lk = extract(ctx(), *lb, 0, hbm_);
    KpaPtr rk = extract(ctx(), *rb, 0, hbm_);
    sortKpa(ctx(), *lk);
    sortKpa(ctx(), *rk);
    // Left: cols {3, 1} (descending, non-contiguous); right: {1, 2}.
    BundleHandle out = join(ctx(), *lk, *rk, {3, 1}, {1, 2});
    ASSERT_EQ(out->size(), 4u);
    ASSERT_EQ(out->cols(), 5u);
    for (uint32_t i = 0; i < out->size(); ++i) {
        const uint64_t *row = out->row(i);
        const uint64_t key = row[0];
        EXPECT_EQ(row[1], 30 + key); // left col 3
        EXPECT_EQ(row[2], 10 + key); // left col 1
        EXPECT_EQ(row[3], 40 + key); // right col 1
        EXPECT_EQ(row[4], 50 + key); // right col 2
    }
}

TEST_F(PrimitivesTest, PartitionSortedAndUnsortedPathsAgree)
{
    // The sorted boundary-scan path and the unsorted hash-count path
    // must produce identical partitions for the same entry sequence.
    BundleHandle b = makeKvBundle(900, 21);
    KpaPtr unsorted = extract(ctx(), *b, 2, hbm_); // ts ascending
    ASSERT_FALSE(unsorted->sorted());
    auto via_hash = partitionByRange(ctx(), *unsorted, 300, hbm_);
    unsorted->setSorted(true); // ts really is ascending
    auto via_scan = partitionByRange(ctx(), *unsorted, 300, hbm_);

    ASSERT_EQ(via_hash.size(), via_scan.size());
    for (size_t p = 0; p < via_hash.size(); ++p) {
        EXPECT_EQ(via_hash[p].range, via_scan[p].range);
        ASSERT_EQ(via_hash[p].part->size(), via_scan[p].part->size());
        for (uint32_t i = 0; i < via_hash[p].part->size(); ++i) {
            EXPECT_EQ(via_hash[p].part->at(i).key,
                      via_scan[p].part->at(i).key);
            EXPECT_EQ(via_hash[p].part->at(i).row,
                      via_scan[p].part->at(i).row);
        }
    }
}

TEST_F(PrimitivesTest, PartitionPreservesArrivalOrderWithinRanges)
{
    // The hash-count fill pass must be stable: entries of one range
    // keep their input order (downstream sort relies on determinism).
    BundleHandle b = BundleHandle::adopt(Bundle::create(hm_, 3, 9));
    const uint64_t keys[9] = {25, 5, 17, 3, 28, 11, 9, 22, 1};
    for (uint64_t k : keys)
        b->append({k, 0, 0});
    KpaPtr kpa = extract(ctx(), *b, 0, hbm_);
    auto parts = partitionByRange(ctx(), *kpa, 10, hbm_);
    ASSERT_EQ(parts.size(), 3u);
    // Range 0: 5, 3, 9, 1; range 1: 17, 11; range 2: 25, 28, 22.
    const std::vector<std::vector<uint64_t>> expect = {
        {5, 3, 9, 1}, {17, 11}, {25, 28, 22}};
    for (size_t p = 0; p < parts.size(); ++p) {
        EXPECT_EQ(parts[p].range, p);
        ASSERT_EQ(parts[p].part->size(), expect[p].size());
        for (uint32_t i = 0; i < parts[p].part->size(); ++i)
            EXPECT_EQ(parts[p].part->at(i).key, expect[p][i]);
    }
}

TEST_F(PrimitivesTest, PartitionHandlesSparseRanges)
{
    // Keys spread over a span vastly larger than the entry count force
    // the hashed fallback (the dense direct-index path would need a
    // cursor slot per range in the span).
    const uint32_t rows = 64;
    BundleHandle b = BundleHandle::adopt(Bundle::create(hm_, 3, rows));
    Rng rng(22);
    for (uint32_t r = 0; r < rows; ++r)
        b->append({rng.nextBounded(1u << 30), 0, 0});
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    auto parts = partitionByRange(ctx(), *k, 3, hbm_);
    uint32_t total = 0;
    uint64_t prev_range = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
        if (p > 0) {
            EXPECT_GT(parts[p].range, prev_range); // ascending
        }
        prev_range = parts[p].range;
        for (uint32_t i = 0; i < parts[p].part->size(); ++i)
            EXPECT_EQ(parts[p].part->at(i).key / 3, parts[p].range);
        total += parts[p].part->size();
    }
    EXPECT_EQ(total, rows);
}

TEST_F(PrimitivesTest, PartitionHandlesFullKeyspaceExtremes)
{
    // Keys 0 and UINT64_MAX with width 1: the range extent covers the
    // whole 64-bit space, which must not wrap the dense-path span to
    // zero (regression: out-of-bounds scatter).
    BundleHandle b = BundleHandle::adopt(Bundle::create(hm_, 3, 3));
    b->append({0, 1, 2});
    b->append({~uint64_t{0}, 3, 4});
    b->append({5, 6, 7});
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    auto parts = partitionByRange(ctx(), *k, 1, hbm_);
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0].range, 0u);
    EXPECT_EQ(parts[1].range, 5u);
    EXPECT_EQ(parts[2].range, ~uint64_t{0});
    for (const auto &rp : parts)
        EXPECT_EQ(rp.part->size(), 1u);
}

TEST_F(PrimitivesTest, SortKpaChargesUnchangedOnPresortedEntries)
{
    // The presorted host fast path (entries already ordered but the
    // sorted flag unset) must charge exactly what a real sort would:
    // simulated figures never depend on the host path taken.
    BundleHandle b = makeKvBundle(4096, 23);
    KpaPtr k = extract(ctx(), *b, 2, hbm_); // ts ascending, flag unset
    ASSERT_FALSE(k->sorted());
    CostLog sort_log;
    sortKpa(Ctx{hm_, sort_log}, *k);
    EXPECT_TRUE(k->sorted());
    const uint64_t expect =
        (1 + 6) * sim::cost::kSortBytesPerElemLevel * 4096ull;
    EXPECT_EQ(sort_log.bytesOn(sim::Tier::kHbm), expect);
}

TEST_F(PrimitivesTest, UpdateKeysInPlaceAndWriteBack)
{
    BundleHandle b = makeKvBundle(100, 16);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    updateKeysInPlace(ctx(), *k, [](uint64_t key) { return key + 1000; });
    EXPECT_EQ(k->residentColumn(), columnar::kNoColumn);
    for (uint32_t i = 0; i < k->size(); ++i)
        EXPECT_EQ(k->at(i).key, k->at(i).row[0] + 1000);

    // Write back into column 1 (clobbering values).
    writeBackKeys(ctx(), *k, 1);
    EXPECT_EQ(k->residentColumn(), 1u);
    for (uint32_t i = 0; i < k->size(); ++i)
        EXPECT_EQ(k->at(i).row[1], k->at(i).key);
}

TEST_F(PrimitivesTest, UpdateKeysViaTableMapsPresentKeysOnly)
{
    // Even keys map to key + 1000; odd keys are absent and pass
    // through unchanged.
    algo::HashTable<uint64_t> table(64);
    for (uint64_t key = 0; key < 50; key += 2)
        table.findOrInsert(key) = key + 1000;

    BundleHandle b = makeKvBundle(500, 20);
    KpaPtr via = extract(ctx(), *b, 0, hbm_);
    KpaPtr generic = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *via);
    sortKpa(ctx(), *generic);
    ASSERT_TRUE(via->sorted());

    CostLog via_log, generic_log;
    updateKeysViaTable(Ctx{hm_, via_log}, *via, table);
    updateKeysInPlace(Ctx{hm_, generic_log}, *generic, [&](uint64_t key) {
        const uint64_t *v = table.find(key);
        return v != nullptr ? *v : key;
    });

    EXPECT_EQ(via->residentColumn(), columnar::kNoColumn);
    EXPECT_FALSE(via->sorted());
    for (uint32_t i = 0; i < via->size(); ++i) {
        const uint64_t orig = via->at(i).row[0];
        EXPECT_EQ(via->at(i).key, orig % 2 == 0 ? orig + 1000 : orig);
        EXPECT_EQ(via->at(i).key, generic->at(i).key);
    }

    // Same charges as the generic per-key path, phase for phase.
    ASSERT_EQ(via_log.phases().size(), generic_log.phases().size());
    for (size_t p = 0; p < via_log.phases().size(); ++p) {
        const sim::Phase &a = via_log.phases()[p];
        const sim::Phase &g = generic_log.phases()[p];
        EXPECT_EQ(a.cpu_ns, g.cpu_ns);
        EXPECT_EQ(a.cpu_vector_ns, g.cpu_vector_ns);
        ASSERT_EQ(a.flows.size(), g.flows.size());
        for (size_t f = 0; f < a.flows.size(); ++f) {
            EXPECT_EQ(a.flows[f].tier, g.flows[f].tier);
            EXPECT_EQ(a.flows[f].pattern, g.flows[f].pattern);
            EXPECT_EQ(a.flows[f].bytes, g.flows[f].bytes);
        }
    }
    EXPECT_GT(via_log.totalBytes(), 0u);
}

TEST_F(PrimitivesTest, ForEachKeyRunVisitsSortedGroups)
{
    BundleHandle b = makeKvBundle(5000, 17, /*key_range=*/20);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);

    std::map<uint64_t, uint64_t> counts;
    forEachKeyRun(*k, [&](uint64_t key, const KpEntry *run, size_t len) {
        counts[key] += len;
        for (size_t i = 0; i < len; ++i)
            EXPECT_EQ(run[i].key, key);
    });
    // Reference counts straight from the bundle.
    std::map<uint64_t, uint64_t> ref;
    for (uint32_t r = 0; r < b->size(); ++r)
        ++ref[b->row(r)[0]];
    EXPECT_EQ(counts, ref);
}

TEST_F(PrimitivesTest, ChargeKeyedReduceAccountsAllStreams)
{
    BundleHandle b = makeKvBundle(1000, 18);
    KpaPtr k = extract(ctx(), *b, 0, hbm_);
    sortKpa(ctx(), *k);
    CostLog red;
    chargeKeyedReduce(Ctx{hm_, red}, *k, k->size(), 50, 2);
    // KPA scan (HBM) + random values (DRAM) + output (DRAM).
    EXPECT_EQ(red.bytesOn(sim::Tier::kHbm), 16000u);
    EXPECT_EQ(red.bytesOn(sim::Tier::kDram), 1000u * 64 + 50u * 2 * 8);
}

TEST_F(PrimitivesTest, GroupingNeverTouchesFullRecordsInFlatMode)
{
    // Sort + merge on extracted KPAs must charge zero DRAM traffic:
    // the whole point of KPA (paper §4.1).
    BundleHandle b1 = makeKvBundle(2000, 19);
    BundleHandle b2 = makeKvBundle(2000, 20);
    KpaPtr k1 = extract(ctx(), *b1, 0, hbm_);
    KpaPtr k2 = extract(ctx(), *b2, 0, hbm_);
    CostLog group_log;
    Ctx gctx{hm_, group_log};
    sortKpa(gctx, *k1);
    sortKpa(gctx, *k2);
    KpaPtr m = merge(gctx, *k1, *k2, hbm_);
    EXPECT_EQ(group_log.bytesOn(sim::Tier::kDram), 0u);
    EXPECT_GT(group_log.bytesOn(sim::Tier::kHbm), 0u);
}

} // namespace
} // namespace sbhbm::kpa
