/**
 * The bit-identity contract of the pooled kernels: at every thread
 * count, mergeRunsParallel must produce byte-for-byte the serial
 * merge (the merge-path slicing may only change the wall clock), and
 * sortKpa on a pooled Ctx must charge byte-for-byte the serial
 * CostLog.
 */

#include "algo/sort.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/worker_pool.h"
#include "kpa/primitives.h"
#include "sim/machine_config.h"

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
        // Row pointers double as identity tags: bit-identity checks
        // compare them, not just keys.
        v[i].row = reinterpret_cast<uint64_t *>(i + 1);
    }
    return v;
}

bool
sameEntries(const std::vector<KpEntry> &a, const std::vector<KpEntry> &b)
{
    return a.size() == b.size()
           && (a.empty()
               || std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(KpEntry))
                      == 0);
}

TEST(ParallelSort, MergeRunsParallelMatchesSerial)
{
    for (const auto &[na, nb] :
         {std::pair<size_t, size_t>{1u << 16, 1u << 16},
          {1u << 16, 777},
          {777, 1u << 16},
          {1u << 16, 0},
          {0, 1u << 16}}) {
        auto a = randomEntries(na, 11, 512);
        auto b = randomEntries(nb, 12, 512);
        std::vector<KpEntry> sa(na), sb(nb);
        sortRun(a.data(), na, sa.data());
        sortRun(b.data(), nb, sb.data());
        std::vector<KpEntry> serial(na + nb);
        mergeRuns(a.data(), na, b.data(), nb, serial.data());
        for (const unsigned threads : {1u, 2u, 8u}) {
            WorkerPool pool(threads);
            std::vector<KpEntry> par(na + nb);
            mergeRunsParallel(a.data(), na, b.data(), nb, par.data(),
                              pool);
            EXPECT_TRUE(sameEntries(serial, par))
                << na << "+" << nb << " @" << threads;
        }
    }
}

/**
 * Golden CostLog equality: the charges of sortKpa depend only on the
 * entry count, so a pooled Ctx at 1/2/8 threads must log the very
 * same bytes and nanoseconds as the serial Ctx — bit for bit, since
 * the arithmetic is identical — while producing identical entries.
 */
TEST(ParallelSortKpa, CostLogAndEntriesEqualSerialAtEveryThreadCount)
{
    sim::MachineConfig cfg = sim::MachineConfig::knl();
    mem::HybridMemory hm(cfg, sim::MemoryMode::kFlat);
    const kpa::Placement hbm{mem::Tier::kHbm, false};

    // One shared bundle => every extracted KPA carries identical row
    // pointers, so entry arrays can be memcmp'd across runs.
    const uint32_t n = 1u << 16;
    Rng rng(9);
    columnar::BundleHandle b = columnar::BundleHandle::adopt(
        columnar::Bundle::create(hm, 2, n));
    uint64_t *row = b->appendBlockRaw(n);
    for (uint32_t r = 0; r < n; ++r, row += 2) {
        row[0] = rng.nextBounded(1000); // dup-heavy keys
        row[1] = r;
    }

    sim::CostLog extract_log;
    kpa::KpaPtr serial_k =
        kpa::extract(kpa::Ctx{hm, extract_log}, *b, 0, hbm);
    sim::CostLog serial_log;
    kpa::sortKpa(kpa::Ctx{hm, serial_log}, *serial_k);

    for (const unsigned threads : {1u, 2u, 8u}) {
        WorkerPool pool(threads);
        sim::CostLog ex_log;
        kpa::KpaPtr k =
            kpa::extract(kpa::Ctx{hm, ex_log, 1.0, &pool}, *b, 0, hbm);
        sim::CostLog log;
        kpa::sortKpa(kpa::Ctx{hm, log, 1.0, &pool}, *k);

        EXPECT_EQ(log.bytesOn(sim::Tier::kHbm),
                  serial_log.bytesOn(sim::Tier::kHbm))
            << threads;
        EXPECT_EQ(log.bytesOn(sim::Tier::kDram),
                  serial_log.bytesOn(sim::Tier::kDram))
            << threads;
        // Same doubles from the same arithmetic: exact equality.
        EXPECT_EQ(log.totalCpuNs(), serial_log.totalCpuNs())
            << threads;

        ASSERT_EQ(k->size(), serial_k->size());
        EXPECT_EQ(std::memcmp(k->entries(), serial_k->entries(),
                              uint64_t{n} * sizeof(KpEntry)),
                  0)
            << threads;
        EXPECT_TRUE(k->sorted());
    }
}

} // namespace
} // namespace sbhbm::algo
