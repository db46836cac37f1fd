/**
 * @file
 * Host-kernel perf-regression harness.
 *
 * Times the rewritten KPA grouping kernels (partitionByRange, join,
 * extract, materialize) against reference implementations preserving
 * the pre-rewrite algorithms, sortRun against std::stable_sort (the
 * output it must equal), plus baseline-free entries for keySwap,
 * mergeRuns and the Fig 11 record parsers, and writes the results to
 * a machine-readable JSON report (BENCH_kernels.json). Unlike the
 * fig* benches this measures *host wall-clock* time — the simulated
 * cost model is exercised but its output is not the metric.
 *
 * Self-contained on purpose (std::chrono only) so it builds and runs
 * wherever the test suite does, including CI.
 *
 * Usage: perf_report [--smoke] [--out <path>]
 *   --smoke    small inputs / few reps (CI per-PR signal)
 *   --out      JSON output path (default BENCH_kernels.json)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algo/sort.h"
#include "bench_util.h"
#include "common/rng.h"
#include "ingest/parse/parsers.h"
#include "kpa/primitives.h"
#include "perf_naive.h"
#include "sim/machine_config.h"

using namespace sbhbm;
using bench::BenchResult;
using bench::naiveExtract;
using bench::naiveJoin;
using bench::naiveMaterialize;
using bench::naivePartitionByRange;
using bench::Table;
using columnar::Bundle;
using columnar::BundleHandle;
using columnar::KpEntry;
using kpa::Ctx;
using kpa::Kpa;
using kpa::KpaPtr;
using kpa::Placement;
using mem::Tier;

namespace {

// -------------------------------------------------------------------
// Harness
// -------------------------------------------------------------------

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Best-of-@p reps wall time of fn() in nanoseconds. */
template <typename Fn>
double
bestNs(int reps, Fn &&fn)
{
    double best = 0;
    for (int r = 0; r < reps; ++r) {
        const double t0 = nowNs();
        fn();
        const double t1 = nowNs();
        if (r == 0 || t1 - t0 < best)
            best = t1 - t0;
    }
    return best;
}

struct TimedPair
{
    double ns = 0;           //!< rewritten kernel, best of reps
    double naive_ns = 0;     //!< reference kernel, best of reps
    double median_ratio = 0; //!< median of per-rep naive/new ratios
};

/**
 * Best-of-@p reps for the rewritten kernel and its naive reference,
 * *interleaved* rep by rep so slow machine-load drift hits both sides
 * equally instead of biasing whichever ran second. The speedup is the
 * median of the per-rep back-to-back ratios, which stays meaningful
 * even when ambient load shifts between reps.
 */
template <typename Fn, typename NaiveFn>
TimedPair
bestNsVs(int reps, Fn &&fn, NaiveFn &&naive)
{
    TimedPair t;
    std::vector<double> ratios;
    ratios.reserve(reps);
    for (int r = 0; r < reps; ++r) {
        double t0 = nowNs();
        fn();
        double t1 = nowNs();
        const double mine = t1 - t0;
        if (r == 0 || mine < t.ns)
            t.ns = mine;
        t0 = nowNs();
        naive();
        t1 = nowNs();
        const double theirs = t1 - t0;
        if (r == 0 || theirs < t.naive_ns)
            t.naive_ns = theirs;
        if (mine > 0)
            ratios.push_back(theirs / mine);
    }
    std::sort(ratios.begin(), ratios.end());
    if (!ratios.empty())
        t.median_ratio = ratios[ratios.size() / 2];
    return t;
}

struct Env
{
    sim::MachineConfig cfg = sim::MachineConfig::knl();
    mem::HybridMemory hm{cfg, sim::MemoryMode::kFlat};
    sim::CostLog log;
    Placement hbm{Tier::kHbm, false};

    Ctx ctx() { return Ctx{hm, log}; }

    /** (key, value, ts) bundle; keys random in [0, key_range). */
    BundleHandle
    makeBundle(uint32_t rows, uint64_t key_range, uint64_t seed)
    {
        Rng rng(seed);
        BundleHandle b = BundleHandle::adopt(Bundle::create(hm, 3, rows));
        uint64_t *row = b->appendBlockRaw(rows);
        for (uint32_t r = 0; r < rows; ++r, row += 3) {
            row[0] = rng.nextBounded(key_range);
            row[1] = rng.nextBounded(1000);
            row[2] = 1000 + r;
        }
        return b;
    }
};

BenchResult
result(std::string name, double ns, uint64_t items, int reps,
       double baseline_ns = 0)
{
    BenchResult r;
    r.name = std::move(name);
    r.ns_per_op = ns;
    r.items = items;
    r.items_per_sec = ns > 0 ? 1e9 * static_cast<double>(items) / ns : 0;
    r.iters = reps;
    r.baseline_ns_per_op = baseline_ns;
    r.speedup = (baseline_ns > 0 && ns > 0) ? baseline_ns / ns : 0;
    return r;
}

/** Result of a paired bench: speedup is the drift-robust median. */
BenchResult
result(std::string name, const TimedPair &t, uint64_t items, int reps)
{
    BenchResult r = result(std::move(name), t.ns, items, reps,
                           t.naive_ns);
    r.speedup = t.median_ratio;
    return r;
}

/** Columns per record in the parser benches (YSB-shaped). */
constexpr uint32_t kParseCols = 7;

/**
 * Parse records from an encoded stream until it ends or stops
 * parsing (trailing whitespace included); @return records parsed.
 */
template <typename Ch, typename Parse>
uint32_t
parseAll(const Ch *p, const Ch *end, Parse parse)
{
    uint64_t row[kParseCols];
    uint32_t parsed = 0;
    while (p < end) {
        p = parse(p, end, row, kParseCols);
        if (p == nullptr)
            break;
        ++parsed;
    }
    return parsed;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_kernels.json";
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc)
            out_path = argv[++a];
        else {
            std::fprintf(stderr,
                         "usage: perf_report [--smoke] [--out <path>]\n");
            return 2;
        }
    }

    const uint32_t n = smoke ? 1u << 16 : 1u << 20;
    const int reps = smoke ? 3 : 9;
    const uint64_t ranges = 64;
    std::printf("perf_report: %u entries per kernel, %d reps (%s)\n", n,
                reps, smoke ? "smoke" : "full");

    bench::JsonReport report;
    Env env;

    // --- partitionByRange, 64 ranges, unsorted input ----------------
    {
        // Acceptance anchor: >= 5x at 64 ranges / 1M entries.
        BundleHandle b = env.makeBundle(n, ranges * 100, 1);
        KpaPtr k = kpa::extract(env.ctx(), *b, 0, env.hbm);
        const uint64_t width = 100; // keys span 64 ranges of width 100
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                auto parts = kpa::partitionByRange(env.ctx(), *k, width,
                                                   env.hbm);
            },
            [&] {
                auto parts = naivePartitionByRange(env.ctx(), *k, width,
                                                   env.hbm);
            });
        report.add(result("partitionByRange/64r/unsorted", t, n, reps));
    }

    // --- partitionByRange, 64 ranges, sorted fast path --------------
    {
        BundleHandle b = env.makeBundle(n, ranges * 100, 2);
        KpaPtr k = kpa::extract(env.ctx(), *b, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *k);
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                auto parts = kpa::partitionByRange(env.ctx(), *k, 100,
                                                   env.hbm);
            },
            [&] {
                auto parts = naivePartitionByRange(env.ctx(), *k, 100,
                                                   env.hbm);
            });
        report.add(result("partitionByRange/64r/sorted", t, n, reps));
    }

    // --- join, ~1:1 matches -----------------------------------------
    {
        BundleHandle lb = env.makeBundle(n, n, 3);
        BundleHandle rb = env.makeBundle(n, n, 4);
        KpaPtr lk = kpa::extract(env.ctx(), *lb, 0, env.hbm);
        KpaPtr rk = kpa::extract(env.ctx(), *rb, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *lk);
        kpa::sortKpa(env.ctx(), *rk);
        const std::vector<columnar::ColumnId> cols{1};
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                BundleHandle out =
                    kpa::join(env.ctx(), *lk, *rk, cols, cols);
            },
            [&] {
                BundleHandle out =
                    naiveJoin(env.ctx(), *lk, *rk, cols, cols);
            });
        report.add(result("join/1to1", t, n, reps));
    }

    // --- join, wide payloads with duplicate keys --------------------
    // Exercises the rewrite's whole-row memcpy of contiguous column
    // runs and the invariant-prefix replication across each duplicate
    // cross product (2x2 matches per key, 6 payload columns a side).
    {
        const uint32_t rows = n / 2;
        Rng rng(11);
        BundleHandle lb =
            BundleHandle::adopt(Bundle::create(env.hm, 8, rows));
        BundleHandle rb =
            BundleHandle::adopt(Bundle::create(env.hm, 8, rows));
        for (Bundle *b : {lb.get(), rb.get()}) {
            uint64_t *row = b->appendBlockRaw(rows);
            for (uint32_t r = 0; r < rows; ++r, row += 8) {
                row[0] = r / 2; // every key twice per side
                for (uint32_t c = 1; c < 8; ++c)
                    row[c] = rng.next();
            }
        }
        KpaPtr lk = kpa::extract(env.ctx(), *lb, 0, env.hbm);
        KpaPtr rk = kpa::extract(env.ctx(), *rb, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *lk);
        kpa::sortKpa(env.ctx(), *rk);
        const std::vector<columnar::ColumnId> cols{1, 2, 3, 4, 5, 6};
        const uint64_t matches = uint64_t{rows / 2} * 4;
        const TimedPair t = bestNsVs(
            reps,
            [&] {
                BundleHandle out =
                    kpa::join(env.ctx(), *lk, *rk, cols, cols);
            },
            [&] {
                BundleHandle out =
                    naiveJoin(env.ctx(), *lk, *rk, cols, cols);
            });
        report.add(result("join/wide-dup", t, matches, reps));
    }

    // --- sortRun vs std::stable_sort --------------------------------
    // The baseline is the output sortRun must equal. random: n entries
    // with full 64-bit keys (six radix passes); narrow: the groupby
    // bundle shape, 50k entries with keys < 2^20 (two passes);
    // presorted: sorted input, which returns after one scan.
    {
        struct Shape
        {
            const char *name;
            size_t entries;
            uint64_t key_range; // 0 = full 64-bit keys
            bool presorted;
        };
        const Shape shapes[] = {
            {"sortRun/random", n, 0, false},
            {"sortRun/narrow", 50000, uint64_t{1} << 20, false},
            {"sortRun/presorted", n, 0, true},
        };
        for (const Shape &sh : shapes) {
            Rng rng(5);
            std::vector<KpEntry> input(sh.entries);
            for (size_t i = 0; i < sh.entries; ++i) {
                // Row pointers are identity tags: the check below
                // covers the order of equal keys too.
                input[i] = KpEntry{sh.key_range == 0
                                       ? rng.next()
                                       : rng.nextBounded(sh.key_range),
                                   reinterpret_cast<uint64_t *>(i + 1)};
            }
            if (sh.presorted)
                std::stable_sort(input.begin(), input.end());
            std::vector<KpEntry> work(sh.entries), scratch(sh.entries);
            const uint64_t bytes = sh.entries * sizeof(KpEntry);
            const TimedPair t = bestNsVs(
                reps,
                [&] {
                    std::memcpy(work.data(), input.data(), bytes);
                    algo::sortRun(work.data(), sh.entries,
                                  scratch.data());
                },
                [&] {
                    std::memcpy(work.data(), input.data(), bytes);
                    std::stable_sort(work.begin(), work.end());
                });
            algo::sortRun(input.data(), sh.entries, scratch.data());
            if (std::memcmp(input.data(), work.data(), bytes) != 0) {
                std::fprintf(stderr, "%s: differs from std::stable_sort\n",
                             sh.name);
                return 1;
            }
            report.add(result(sh.name, t, sh.entries, reps));
        }
    }

    // --- extract ----------------------------------------------------
    {
        BundleHandle b = env.makeBundle(n, 1000, 6);
        const TimedPair t = bestNsVs(
            reps,
            [&] { KpaPtr k = kpa::extract(env.ctx(), *b, 0, env.hbm); },
            [&] { KpaPtr k = naiveExtract(env.ctx(), *b, 0, env.hbm); });
        report.add(result("extract", t, n, reps));
    }

    // --- materialize (sorted KPA => random row gathers) -------------
    {
        BundleHandle b = env.makeBundle(n, n / 4 + 1, 7);
        KpaPtr k = kpa::extract(env.ctx(), *b, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *k);
        const TimedPair t = bestNsVs(
            reps,
            [&] { BundleHandle out = kpa::materialize(env.ctx(), *k); },
            [&] { BundleHandle out = naiveMaterialize(env.ctx(), *k); });
        report.add(result("materialize/sorted", t, n, reps));
    }

    // --- keySwap (sorted KPA => random row reads) -------------------
    {
        BundleHandle b = env.makeBundle(n, n / 4 + 1, 8);
        KpaPtr k = kpa::extract(env.ctx(), *b, 0, env.hbm);
        kpa::sortKpa(env.ctx(), *k);
        uint32_t col = 1;
        const double ns = bestNs(reps, [&] {
            kpa::keySwap(env.ctx(), *k, col);
            col = (col == 1) ? 2 : 1; // alternate so no call no-ops
        });
        report.add(result("keySwap/sorted", ns, n, reps));
    }

    // --- mergeRuns: two sorted n/2-entry runs merged into one -------
    {
        Rng rng(12);
        std::vector<KpEntry> input(n);
        for (uint32_t i = 0; i < n; ++i)
            input[i] = KpEntry{rng.next(), nullptr};
        std::vector<KpEntry> work(n);
        const size_t half = n / 2;
        std::vector<KpEntry> scratch(half);
        algo::sortRun(input.data(), half, scratch.data());
        algo::sortRun(input.data() + half, n - half, scratch.data());
        const double merge_ns = bestNs(reps, [&] {
            algo::mergeRuns(input.data(), half, input.data() + half,
                            n - half, work.data());
        });
        if (!algo::isSortedByKey(work.data(), n)) {
            std::fprintf(stderr, "mergeRuns output not sorted\n");
            return 1;
        }
        report.add(result("mergeRuns", merge_ns, n, reps));
    }

    // --- Fig 11 record parsers: JSON, protobuf, text ----------------
    // Parse a pre-encoded stream of 7-column records back to rows, the
    // ingest bottleneck Fig 11 models. Each rep must parse exactly
    // every record.
    {
        const uint32_t records = n / 16;
        Rng rng(13);
        std::string json, text;
        std::vector<uint8_t> proto;
        for (uint32_t i = 0; i < records; ++i) {
            uint64_t row[kParseCols];
            for (uint64_t &v : row)
                v = rng.next();
            ingest::parse::encodeJson(row, kParseCols, json);
            ingest::parse::encodeProto(row, kParseCols, proto);
            ingest::parse::encodeText(row, kParseCols, text);
        }
        uint32_t parsed[3] = {};
        const double ns[3] = {
            bestNs(reps,
                   [&] {
                       parsed[0] = parseAll(json.data(),
                                            json.data() + json.size(),
                                            ingest::parse::parseJson);
                   }),
            bestNs(reps,
                   [&] {
                       parsed[1] = parseAll(proto.data(),
                                            proto.data() + proto.size(),
                                            ingest::parse::parseProto);
                   }),
            bestNs(reps,
                   [&] {
                       parsed[2] = parseAll(text.data(),
                                            text.data() + text.size(),
                                            ingest::parse::parseText);
                   }),
        };
        const char *const names[3] = {"parse/json", "parse/proto",
                                      "parse/text"};
        for (int f = 0; f < 3; ++f) {
            if (parsed[f] != records) {
                std::fprintf(stderr, "%s: parsed %u of %u records\n",
                             names[f], parsed[f], records);
                return 1;
            }
            report.add(result(names[f], ns[f], records, reps));
        }
    }

    // --- report -----------------------------------------------------
    Table t("perf_report — host wall clock");
    t.header({"benchmark", "ns/op", "Mitems/s", "baseline ns/op",
              "speedup"});
    for (const BenchResult &r : report.results()) {
        t.row({r.name, Table::num(r.ns_per_op, 0),
               Table::num(r.items_per_sec / 1e6, 1),
               r.baseline_ns_per_op > 0
                   ? Table::num(r.baseline_ns_per_op, 0)
                   : "-",
               r.speedup > 0 ? Table::num(r.speedup, 2) + "x" : "-"});
    }
    t.print();

    if (!report.writeTo(out_path)) {
        std::fprintf(stderr, "perf_report: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("\nperf_report: wrote %s (%zu benchmarks)\n",
                out_path.c_str(), report.results().size());
    return 0;
}
