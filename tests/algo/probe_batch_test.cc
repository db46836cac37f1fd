/**
 * @file
 * Equivalence of the batched hash-probe paths with the scalar ones:
 * findBatch must return exactly what per-key find() returns (same
 * slot addresses), and findOrInsertBatch must leave the table in the
 * byte-identical layout a scalar findOrInsert loop produces — on
 * random keys, duplicate-heavy streams, and adversarial collision
 * chains. Every equivalence test runs twice: with the LLC prefetch
 * gate off (the tight scalar loop) and forced on (the grouped
 * prefetch schedule), since a test-sized table never crosses a real
 * host's LLC on its own.
 */

#include "algo/hash_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace sbhbm::algo {
namespace {

/** Keys whose home bucket is exactly @p bucket in a table of 2^bits. */
std::vector<uint64_t>
collidingKeys(size_t count, uint64_t bucket, size_t mask)
{
    std::vector<uint64_t> keys;
    for (uint64_t k = 1; keys.size() < count; ++k)
        if ((hashKey(k) & mask) == bucket)
            keys.push_back(k);
    return keys;
}

/** Saves and restores the process-wide ProbeTuning around a test. */
class ProbeTuningTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = probeTuning(); }
    void TearDown() override { setProbeTuning(saved_); }

  private:
    ProbeTuning saved_;
};

TEST_F(ProbeTuningTest, UnknownLlcFallsBackToScalarPath)
{
    // sysconf reporting 0/unavailable maps to llc_bytes == 0: the
    // prefetch gate must stay off (scalar path), never crash.
    ProbeTuning t;
    t.llc_bytes = 0;
    setProbeTuning(t);
    HashTable<uint64_t> table(10000);
    EXPECT_FALSE(table.prefetchEnabled());
    for (uint64_t k = 0; k < 1000; ++k)
        table.findOrInsert(k) = k * 2;
    uint64_t keys[4] = {1, 999, 5000, 3};
    uint64_t *out[4];
    table.findBatch(keys, 4, out);
    EXPECT_EQ(*out[0], 2u);
    EXPECT_EQ(*out[1], 1998u);
    EXPECT_EQ(out[2], nullptr);
    EXPECT_EQ(*out[3], 6u);
}

TEST_F(ProbeTuningTest, TinyLlcGatesPrefetchOn)
{
    ProbeTuning t;
    t.llc_bytes = 1024;
    setProbeTuning(t);
    HashTable<uint64_t> table(10000); // footprint >> 1 KiB
    EXPECT_TRUE(table.prefetchEnabled());
}

/**
 * Runs a test body once per prefetch-gate setting: llc_bytes = 0
 * keeps the gate off, llc_bytes = 1 turns it on for every table.
 * The body builds its tables after the setting is applied and gets
 * the expected gate state to check against.
 */
class ProbeBatch : public ProbeTuningTest
{
  protected:
    template <typename Body>
    void
    forEachGate(Body &&body)
    {
        for (const bool prefetch : {false, true}) {
            SCOPED_TRACE(prefetch ? "prefetch gate on"
                                  : "prefetch gate off");
            ProbeTuning t;
            t.llc_bytes = prefetch ? 1 : 0;
            setProbeTuning(t);
            body(prefetch);
        }
    }
};

TEST_F(ProbeBatch, FindBatchMatchesScalarOnRandomKeys)
{
    forEachGate([](bool prefetch) {
        HashTable<uint64_t> table(10000);
        ASSERT_EQ(table.prefetchEnabled(), prefetch);
        Rng rng(1);
        std::vector<uint64_t> present;
        for (uint32_t i = 0; i < 10000; ++i) {
            const uint64_t k = rng.next();
            table.findOrInsert(k) = i;
            present.push_back(k);
        }
        // Probe a mix of present and absent keys, crossing several
        // batch boundaries and ending on a partial batch.
        std::vector<uint64_t> probes;
        Rng prng(2);
        for (uint32_t i = 0; i < 3 * 16 + 7; ++i) {
            probes.push_back(i % 2 == 0
                                 ? present[prng.nextBounded(present.size())]
                                 : prng.next());
        }
        std::vector<uint64_t *> out(probes.size());
        table.findBatch(probes.data(),
                        static_cast<uint32_t>(probes.size()), out.data());
        for (size_t i = 0; i < probes.size(); ++i)
            EXPECT_EQ(out[i], table.find(probes[i])) << "probe " << i;
    });
}

TEST_F(ProbeBatch, FindBatchMatchesScalarOnAdversarialCollisions)
{
    forEachGate([](bool prefetch) {
        HashTable<uint64_t> table(900); // 1024 slots
        ASSERT_EQ(table.prefetchEnabled(), prefetch);
        const size_t mask = table.capacity() - 1;
        // One long chain: 64 keys whose home slot is the same bucket,
        // inserted back to back => linear-probe cluster of length 64.
        const auto chain = collidingKeys(64, 7, mask);
        for (size_t i = 0; i < chain.size(); ++i)
            table.findOrInsert(chain[i]) = i;
        // Probe the whole chain, plus absent keys homed inside the
        // cluster (their probes walk to the first empty slot).
        std::vector<uint64_t> probes = chain;
        const auto more = collidingKeys(80, 7, mask);
        probes.insert(probes.end(), more.begin() + 64, more.end());
        for (uint64_t b : {uint64_t{8}, uint64_t{30}, uint64_t{70}}) {
            const auto homed = collidingKeys(1, b, mask);
            probes.push_back(homed[0]);
        }
        std::vector<uint64_t *> out(probes.size());
        table.findBatch(probes.data(),
                        static_cast<uint32_t>(probes.size()), out.data());
        for (size_t i = 0; i < probes.size(); ++i)
            EXPECT_EQ(out[i], table.find(probes[i])) << "probe " << i;
    });
}

/** forEach order is slot order: a layout fingerprint. */
std::vector<std::pair<uint64_t, uint64_t>>
layoutOf(const HashTable<uint64_t> &t)
{
    std::vector<std::pair<uint64_t, uint64_t>> v;
    t.forEach([&](uint64_t k, const uint64_t &val) {
        v.emplace_back(k, val);
    });
    return v;
}

TEST_F(ProbeBatch, FindOrInsertBatchLayoutIdenticalToScalarLoop)
{
    forEachGate([](bool prefetch) {
        // Wide-dup upsert stream with collisions mixed in: resolution
        // order decides the slot layout, so layout equality pins that
        // the batch resolves strictly in key order.
        Rng rng(3);
        std::vector<uint64_t> keys;
        for (uint32_t i = 0; i < 5000; ++i)
            keys.push_back(rng.nextBounded(700)); // heavy duplication
        HashTable<uint64_t> scalar(1000), batched(1000);
        ASSERT_EQ(batched.prefetchEnabled(), prefetch);
        const auto chain =
            collidingKeys(40, 13, scalar.capacity() - 1);
        for (size_t i = 0; i < chain.size(); ++i)
            keys.insert(keys.begin() + static_cast<long>(i * 100),
                        chain[i]);

        for (uint64_t k : keys)
            ++scalar.findOrInsert(k);
        batched.findOrInsertBatch(
            keys.data(), static_cast<uint32_t>(keys.size()),
            [](uint32_t, uint64_t &count) { ++count; });

        EXPECT_EQ(scalar.size(), batched.size());
        EXPECT_EQ(layoutOf(scalar), layoutOf(batched));
    });
}

TEST_F(ProbeBatch, FindOrInsertBatchVisitsInKeyOrder)
{
    forEachGate([](bool prefetch) {
        HashTable<uint64_t> table(100);
        ASSERT_EQ(table.prefetchEnabled(), prefetch);
        const uint64_t keys[] = {9, 9, 1, 9, 2, 1, 9}; // dups in-batch
        std::vector<uint32_t> order;
        std::vector<uint64_t> counts;
        table.findOrInsertBatch(keys, 7,
                                [&](uint32_t i, uint64_t &count) {
                                    order.push_back(i);
                                    counts.push_back(++count);
                                });
        EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6}));
        // Duplicates within one batch must observe each other's inserts:
        // the running count per key grows exactly as a scalar loop's.
        EXPECT_EQ(counts, (std::vector<uint64_t>{1, 2, 1, 3, 1, 2, 4}));
    });
}

} // namespace
} // namespace sbhbm::algo
