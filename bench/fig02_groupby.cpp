/**
 * @file
 * Figure 2 — the motivating GroupBy microbenchmark: Sort vs Hash on
 * HBM vs DRAM, throughput (M pairs/s) and memory bandwidth (GB/s) as
 * a function of core count.
 *
 * The paper runs 100 M key/value records (~100 values per key, 64-bit
 * random integers) through two tuned GroupBy implementations on real
 * KNL hardware. Here the same two algorithms execute functionally on
 * the host while charging their traffic to the simulated machine:
 *
 *  - Sort: parallel merge-sort of key/pointer pairs — per-core chunk
 *    sorts (bitonic blocks + local merge passes) followed by pairwise
 *    merge rounds sliced across all cores at key boundaries. All
 *    traffic is sequential. The charges model that algorithm; the
 *    host sorts each chunk with algo::sortRun (a stable radix sort)
 *    and merges whole pairs with algo::mergeRuns, which changes only
 *    how fast the host gets there.
 *  - Hash: sequential partitioning pass, then parallel inserts into
 *    per-partition open-addressing tables. Inserts are dependent
 *    random accesses (one line per probe).
 *
 * Paper shapes this bench must reproduce (checked in the SHAPE lines):
 *  - Sort on HBM wins at every core count (>50% over Hash on HBM);
 *  - on DRAM the preference flips: Hash overtakes Sort above ~40
 *    cores because Sort saturates DRAM bandwidth;
 *  - Sort-on-HBM ~= Sort-on-DRAM below 16 cores (per-core streaming
 *    caps, not the bus, are the bottleneck at low parallelism);
 *  - Hash gains little (~10%) from HBM.
 *
 * Scale note: default 8 M pairs (not 100 M) so the functional work
 * stays tractable on the build host; throughput and bandwidth are
 * ratios over *simulated* time, so the series' shape is unaffected.
 * Pass a pair count as argv[1] to run larger.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "algo/hash_table.h"
#include "algo/sort.h"
#include "bench_util.h"
#include "common/rng.h"
#include "runtime/executor.h"
#include "sim/cost_model.h"
#include "sim/machine.h"

using namespace sbhbm;
using bench::Table;

namespace {

using algo::KpEntry;
using sim::Tier;

struct Point
{
    double mpairs_per_sec = 0;
    double bandwidth_gbps = 0;
};

std::vector<KpEntry>
makeInput(size_t n)
{
    // ~100 values per key, keys and values 64-bit random draws.
    std::vector<KpEntry> v(n);
    Rng rng(7);
    const uint64_t key_range = n / 100 + 1;
    for (size_t i = 0; i < n; ++i) {
        v[i].key = rng.nextBounded(key_range);
        v[i].row = nullptr;
    }
    return v;
}

/**
 * Parallel merge-sort GroupBy (paper §4.2): N chunk sorts, then
 * pairwise merge rounds; rounds with fewer pairs than cores slice
 * each merge across the idle cores.
 */
Point
runSort(std::vector<KpEntry> data, Tier tier, unsigned cores)
{
    sim::Machine machine(sim::MachineConfig::knl());
    runtime::Executor exec(machine, cores);
    const size_t n = data.size();
    const uint64_t entry_bytes = sizeof(KpEntry);

    // --- Phase 1: one chunk sort per core --------------------------
    const size_t chunks = cores;
    const size_t chunk = (n + chunks - 1) / chunks;
    std::vector<KpEntry> scratch(n);

    exec.parallelFor(
        runtime::ImpactTag::kHigh, static_cast<uint32_t>(chunks),
        [&](uint32_t i, sim::CostLog &log) {
            const size_t lo = std::min(n, i * chunk);
            const size_t hi = std::min(n, lo + chunk);
            if (hi <= lo)
                return;
            algo::sortRun(data.data() + lo, hi - lo, scratch.data() + lo);
            const auto m = static_cast<double>(hi - lo);
            const int levels = sim::cost::mergeLevels(hi - lo);
            log.seq(tier, uint64_t(1 + levels)
                              * sim::cost::kSortBytesPerElemLevel
                              * (hi - lo));
            log.cpuVector(sim::cost::kBitonicStages
                              * sim::cost::kBitonicNsPerElemStage * m
                          + sim::cost::kMergeNsPerElem * m * levels);
        },
        [] {});
    machine.run();

    // --- Phase 2: pairwise merge rounds, sliced when wide ----------
    std::vector<size_t> bounds; // chunk boundaries, ascending
    for (size_t lo = 0; lo < n; lo += chunk)
        bounds.push_back(lo);
    bounds.push_back(n);

    std::vector<KpEntry> out(n);
    auto *src = &data;
    auto *dst = &out;
    while (bounds.size() > 2) {
        // Merge runs (bounds[2i], bounds[2i+1], bounds[2i+2]).
        const size_t pairs = (bounds.size() - 1) / 2;
        const size_t odd = (bounds.size() - 1) % 2;
        const auto slices = static_cast<uint32_t>(
            std::max<size_t>(1, cores / std::max<size_t>(pairs, 1)));

        // Functional merge (host): whole pairs at once.
        for (size_t p = 0; p < pairs; ++p) {
            const size_t lo = bounds[2 * p];
            const size_t mid = bounds[2 * p + 1];
            const size_t hi = bounds[2 * p + 2];
            algo::mergeRuns(src->data() + lo, mid - lo,
                            src->data() + mid, hi - mid,
                            dst->data() + lo);
        }
        if (odd) {
            const size_t lo = bounds[bounds.size() - 2];
            std::memcpy(dst->data() + lo, src->data() + lo,
                        (n - lo) * entry_bytes);
        }

        // Simulated cost: each pair merge split into `slices` tasks
        // at merge-path key boundaries, all running concurrently.
        exec.parallelFor(
            runtime::ImpactTag::kHigh,
            static_cast<uint32_t>(pairs) * slices,
            [&](uint32_t t, sim::CostLog &log) {
                const size_t p = t / slices;
                const size_t lo = bounds[2 * p];
                const size_t hi = bounds[2 * p + 2];
                const auto m =
                    static_cast<double>(hi - lo) / slices;
                log.seq(tier,
                        static_cast<uint64_t>(
                            m * sim::cost::kSortBytesPerElemLevel));
                log.cpuVector(sim::cost::kMergeNsPerElem * m
                              + sim::cost::kMergeSliceNsPerChunk);
            },
            [] {});
        machine.run();

        std::vector<size_t> nb;
        for (size_t p = 0; p + 2 < bounds.size(); p += 2)
            nb.push_back(bounds[p]);
        nb.push_back(n);
        if (odd)
            nb.insert(nb.end() - 1, bounds[bounds.size() - 2]);
        bounds = std::move(nb);
        std::swap(src, dst);
    }
    sbhbm_assert(algo::isSortedByKey(src->data(), n),
                 "sort GroupBy produced unsorted output");

    Point pt;
    const double sec = simToSeconds(machine.now());
    pt.mpairs_per_sec = static_cast<double>(n) / sec / 1e6;
    pt.bandwidth_gbps = machine.tierCumulativeBytes(tier) / sec / 1e9;
    return pt;
}

/**
 * Hash GroupBy (paper §2.2): sequential partition pass, then parallel
 * open-addressing inserts with one random line access per probe.
 */
Point
runHash(std::vector<KpEntry> data, Tier tier, unsigned cores)
{
    sim::Machine machine(sim::MachineConfig::knl());
    runtime::Executor exec(machine, cores);
    const double tier_latency_ns =
        machine.config().tier(tier).latency_ns;
    const size_t n = data.size();
    const uint64_t entry_bytes = sizeof(KpEntry);

    // --- Phase 1: partition by key range (sequential) ---------------
    const size_t parts = cores;
    std::vector<std::vector<KpEntry>> partition(parts);
    for (auto &p : partition)
        p.reserve(2 * n / parts);
    const uint64_t key_range = n / 100 + 2;
    const uint64_t width = (key_range + parts - 1) / parts;

    const size_t chunk = (n + parts - 1) / parts;
    exec.parallelFor(
        runtime::ImpactTag::kHigh, static_cast<uint32_t>(parts),
        [&](uint32_t i, sim::CostLog &log) {
            const size_t lo = std::min(n, i * chunk);
            const size_t hi = std::min(n, lo + chunk);
            const auto m = static_cast<double>(hi - lo);
            // Read input + write partitioned copy, both streaming.
            log.seq(tier, 2 * (hi - lo) * entry_bytes);
            log.cpu(sim::cost::kHashPartitionNs * m);
        },
        [] {});
    // Functional partitioning (single host pass).
    for (size_t i = 0; i < n; ++i)
        partition[data[i].key / width].push_back(data[i]);
    machine.run();

    // --- Phase 2: per-partition hash insert (random) ----------------
    std::vector<std::unique_ptr<algo::HashTable<uint64_t>>> tables(parts);
    exec.parallelFor(
        runtime::ImpactTag::kHigh, static_cast<uint32_t>(parts),
        [&](uint32_t i, sim::CostLog &log) {
            tables[i] = std::make_unique<algo::HashTable<uint64_t>>(
                std::max<size_t>(16, partition[i].size() / 50));
            for (const KpEntry &e : partition[i])
                ++tables[i]->findOrInsert(e.key);
            const auto m = static_cast<double>(partition[i].size());
            log.seq(tier, partition[i].size() * entry_bytes);
            log.rand(tier, partition[i].size()
                               * sim::cost::kHashLinesPerRec
                               * sim::cost::kLineBytes);
            // Dependent-chain stalls: the probe walk serializes on
            // the tier's latency, so higher-latency HBM barely helps.
            log.cpu((sim::cost::kHashComputeNs + sim::cost::kHashProbeNs
                     + sim::cost::kHashChainMisses * tier_latency_ns)
                    * m);
        },
        [] {});
    machine.run();

    uint64_t groups = 0;
    for (const auto &t : tables)
        groups += t->size();
    sbhbm_assert(groups > 0 && groups <= n, "hash GroupBy lost keys");

    Point pt;
    const double sec = simToSeconds(machine.now());
    pt.mpairs_per_sec = static_cast<double>(n) / sec / 1e6;
    pt.bandwidth_gbps = machine.tierCumulativeBytes(tier) / sec / 1e9;
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    size_t n = 8'000'000;
    if (argc > 1)
        n = std::strtoull(argv[1], nullptr, 10);

    std::printf("Fig 2 — GroupBy on HBM and DRAM, %zu M pairs, "
                "~100 values/key\n",
                n / 1'000'000);

    auto input = makeInput(n);

    Table tput("Fig 2 (left): GroupBy throughput, M pairs/s");
    Table bw("Fig 2 (right): memory bandwidth, GB/s");
    tput.header({"cores", "HBM_Sort", "DRAM_Sort", "HBM_Hash",
                 "DRAM_Hash"});
    bw.header({"cores", "HBM_Sort", "DRAM_Sort", "HBM_Hash",
               "DRAM_Hash"});

    struct Series
    {
        Point hbm_sort, dram_sort, hbm_hash, dram_hash;
    };
    std::vector<Series> series;

    for (unsigned cores : bench::coreSweep()) {
        Series s;
        s.hbm_sort = runSort(input, Tier::kHbm, cores);
        s.dram_sort = runSort(input, Tier::kDram, cores);
        s.hbm_hash = runHash(input, Tier::kHbm, cores);
        s.dram_hash = runHash(input, Tier::kDram, cores);
        series.push_back(s);

        tput.row({Table::num(uint64_t{cores}),
                  Table::num(s.hbm_sort.mpairs_per_sec),
                  Table::num(s.dram_sort.mpairs_per_sec),
                  Table::num(s.hbm_hash.mpairs_per_sec),
                  Table::num(s.dram_hash.mpairs_per_sec)});
        bw.row({Table::num(uint64_t{cores}),
                Table::num(s.hbm_sort.bandwidth_gbps),
                Table::num(s.dram_sort.bandwidth_gbps),
                Table::num(s.hbm_hash.bandwidth_gbps),
                Table::num(s.dram_hash.bandwidth_gbps)});
    }
    tput.print();
    bw.print();
    std::printf("\n");

    // Shape checks against the paper's qualitative findings.
    bool sort_wins_hbm = true;
    for (const auto &s : series) {
        sort_wins_hbm &= s.hbm_sort.mpairs_per_sec
                         > 1.2 * s.hbm_hash.mpairs_per_sec;
    }
    bench::shapeCheck("Sort > 1.2x Hash on HBM at every core count",
                      sort_wins_hbm);

    const Series &at64 = series.back();
    bench::shapeCheck("Hash beats Sort on DRAM at 64 cores",
                      at64.dram_hash.mpairs_per_sec
                          > at64.dram_sort.mpairs_per_sec);
    const Series &at2 = series.front();
    bench::shapeCheck(
        "Sort on HBM ~= Sort on DRAM at 2 cores (within 10%)",
        std::abs(at2.hbm_sort.mpairs_per_sec
                 - at2.dram_sort.mpairs_per_sec)
            < 0.1 * at2.dram_sort.mpairs_per_sec);
    bench::shapeCheck(
        "Hash gains <25% from HBM at 64 cores",
        at64.hbm_hash.mpairs_per_sec
            < 1.25 * at64.dram_hash.mpairs_per_sec);
    bench::shapeCheck(
        "Sort throughput scales from 2 to 64 cores on HBM (>4x)",
        at64.hbm_sort.mpairs_per_sec > 4 * at2.hbm_sort.mpairs_per_sec);
    return 0;
}
