#include "algo/hash_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"

namespace sbhbm::algo {
namespace {

TEST(HashTable, InsertFindRoundTrip)
{
    HashTable<uint64_t> t(100);
    t.findOrInsert(42) = 7;
    t.findOrInsert(43) = 8;
    ASSERT_NE(t.find(42), nullptr);
    EXPECT_EQ(*t.find(42), 7u);
    EXPECT_EQ(*t.find(43), 8u);
    EXPECT_EQ(t.find(44), nullptr);
    EXPECT_EQ(t.size(), 2u);
}

TEST(HashTable, FindOrInsertIsIdempotent)
{
    HashTable<uint64_t> t(10);
    t.findOrInsert(5) = 100;
    t.findOrInsert(5) += 1;
    EXPECT_EQ(*t.find(5), 101u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(HashTable, AgreesWithStdMapOnRandomWorkload)
{
    Rng rng(99);
    HashTable<uint64_t> t(20000);
    std::map<uint64_t, uint64_t> ref;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t k = rng.nextBounded(5000); // plenty of collisions
        t.findOrInsert(k) += 1;
        ref[k] += 1;
    }
    EXPECT_EQ(t.size(), ref.size());
    for (const auto &[k, v] : ref) {
        ASSERT_NE(t.find(k), nullptr) << k;
        EXPECT_EQ(*t.find(k), v) << k;
    }
}

TEST(HashTable, ForEachVisitsEveryEntryOnce)
{
    HashTable<uint64_t> t(100);
    for (uint64_t k = 0; k < 50; ++k)
        t.findOrInsert(k * 1000) = k;
    uint64_t count = 0, key_sum = 0;
    t.forEach([&](uint64_t k, const uint64_t &v) {
        ++count;
        key_sum += k;
        EXPECT_EQ(v, k / 1000);
    });
    EXPECT_EQ(count, 50u);
    EXPECT_EQ(key_sum, 1000u * (49 * 50 / 2));
}

TEST(HashTable, ProbeCountsGrowWithLoad)
{
    HashTable<uint64_t> t(1000);
    Rng rng(1);
    size_t total_probes = 0;
    for (int i = 0; i < 1000; ++i) {
        size_t probes = 0;
        t.findOrInsert(rng.next(), &probes) = 1;
        total_probes += probes;
    }
    // Linear probing at <= 87% load: average probe count stays small.
    EXPECT_GE(total_probes, 1000u);
    EXPECT_LT(total_probes, 4000u);
}

TEST(HashTable, CapacityIsPowerOfTwoAboveHint)
{
    HashTable<int> t(1000);
    EXPECT_GE(t.capacity(), 1000u + 1000u / 7);
    EXPECT_EQ(t.capacity() & (t.capacity() - 1), 0u);
}

TEST(HashTable, ZeroKeyIsAValidKey)
{
    HashTable<uint64_t> t(10);
    t.findOrInsert(0) = 99;
    ASSERT_NE(t.find(0), nullptr);
    EXPECT_EQ(*t.find(0), 99u);
}

TEST(HashTable, FootprintCoversSlots)
{
    HashTable<uint64_t> t(1000);
    EXPECT_GE(t.footprintBytes(), t.capacity() * 16);
}

/** The first @p count keys whose home slot is @p home under @p mask. */
std::vector<uint64_t>
keysHomedAt(size_t count, size_t home, size_t mask)
{
    std::vector<uint64_t> keys;
    for (uint64_t k = 1; keys.size() < count; ++k)
        if ((hashKey(k) & mask) == home)
            keys.push_back(k);
    return keys;
}

TEST(HashTable, FindWalksCollisionClusters)
{
    // Two 64-key clusters in a 1024-slot table: one homed mid-table
    // and one homed at the last slot, so its chain wraps to slot 0.
    HashTable<uint64_t> t(800);
    ASSERT_EQ(t.capacity(), 1024u);
    const size_t mask = t.capacity() - 1;
    for (const size_t home : {size_t{100}, mask}) {
        const std::vector<uint64_t> members = keysHomedAt(64, home, mask);
        for (uint64_t k : members)
            t.findOrInsert(k) = k * 3;
        for (uint64_t k : members) {
            const uint64_t *v = t.find(k);
            ASSERT_NE(v, nullptr) << "home " << home << " key " << k;
            EXPECT_EQ(*v, k * 3);
        }
        // Absent keys homed at the cluster head or inside the cluster
        // walk the occupied run and still miss.
        for (const size_t offset : {size_t{0}, size_t{1}, size_t{31},
                                    size_t{63}}) {
            const size_t slot = (home + offset) & mask;
            for (uint64_t k : keysHomedAt(70, slot, mask)) {
                if (std::find(members.begin(), members.end(), k)
                    == members.end()) {
                    EXPECT_EQ(t.find(k), nullptr)
                        << "slot " << slot << " key " << k;
                }
            }
        }
    }
    EXPECT_EQ(t.size(), 128u);
}

} // namespace
} // namespace sbhbm::algo
