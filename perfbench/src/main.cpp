/**
 * @file
 * Host-time benchmark: the command-line entry point.
 *
 *   perfbench --workload <groupby|ysb|join|fleet> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * --trace 0 measures the end-to-end metrics with tracing off:
 * kWarmupRuns untimed runs, set-ups, then whole runs until --seconds
 * have passed (at least kMinRuns). --trace 1 makes the
 * traced runs and the kernel replay that give the per-layer metrics,
 * and writes the span log to --trace-out. Both modes check every
 * output against its reference and exit non-zero when a check fails.
 *
 * Output: a stamp line, "# " note lines, then one JSON object with
 * the keys correct, attempted, failed and metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine_workload.h"
#include "fleet_workload.h"
#include "harness.h"
#include "obs/json_writer.h"
#include "replay.h"

extern char **environ;

namespace sbhbm::perfbench {
namespace {

/**
 * Set-ups measured for setup_s (median), after the warm-ups: measured
 * first thing in a fresh process, the sub-microsecond construction
 * times differed by up to 1.6x between processes.
 */
constexpr int kSetupReps = 200;

/**
 * Untimed warm-up runs. A fresh process's first runs are up to 1.4x
 * slower while the heap grows to its working size (tens of thousands
 * of minor faults per run); by the fifth run the footprint plateaus.
 */
constexpr int kWarmupRuns = 5;

/** Timed runs at least, whatever --seconds says. */
constexpr size_t kMinRuns = 3;

/** peak_rss_mb is read after the warm-ups plus this many timed runs. */
constexpr size_t kRssRuns = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "1") == 0;
            if (!a.trace && std::strcmp(v, "0") != 0)
                return false;
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return have_workload && argc % 2 == 1 && a.seconds > 0;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** nproc, pool width, code revision, build and relevant environment. */
std::string
stampJson(const Args &a, unsigned pool_width)
{
    obs::JsonWriter w(false);
    w.beginObject();
    w.key("workload").value(a.workload);
    w.key("seed").value(a.seed);
    w.key("seconds").rawValue(num(a.seconds));
    w.key("trace").value(a.trace);
    w.key("nproc").value(nprocs());
    w.key("pool_width").value(pool_width);
    const char *rev = std::getenv("PERFBENCH_GIT_REV");
    w.key("git_rev").value(rev != nullptr ? rev : "unknown");
    const char *digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
    w.key("source_digest").value(digest != nullptr ? digest : "unknown");
    w.key("build_type").value(PB_BUILD_TYPE);
    w.key("cxx_flags").value(PB_CXX_FLAGS);
    w.key("compiler").value(PB_COMPILER);
    w.key("env").beginObject();
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("MALLOC_", 0) != 0 && kv.rfind("SBHBM_", 0) != 0)
            continue;
        const size_t eq = kv.find('=');
        w.key(kv.substr(0, eq)).value(
            eq == std::string::npos ? "" : kv.substr(eq + 1));
    }
    w.endObject();
    w.endObject();
    return w.str();
}

/** Notes, then the result line. */
void
emitReport(const Report &rep)
{
    for (const std::string &n : rep.notes)
        std::printf("# %s\n", n.c_str());
    obs::JsonWriter w(false);
    w.beginObject();
    w.key("correct").value(rep.correct);
    w.key("attempted").value(rep.attempted);
    w.key("failed").value(rep.failed);
    w.key("metrics").beginObject();
    for (const Metric &m : rep.metrics) {
        w.key(m.name).beginObject();
        w.key("value").rawValue(num(m.value));
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

/** The span log, per-layer metrics and notes of a traced invocation. */
void
writeTrace(const std::string &path, const std::string &stamp,
           const SpanLog &spans, const Report &rep)
{
    obs::JsonWriter w(false);
    w.beginObject();
    w.key("stamp").rawValue(stamp);
    w.key("spans").beginArray();
    for (const Span &s : spans.spans()) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("start_ns").value(static_cast<int64_t>(s.start_ns));
        w.key("end_ns").value(static_cast<int64_t>(s.end_ns));
        w.key("parent").value(static_cast<int64_t>(s.parent));
        w.endObject();
    }
    w.endArray();
    w.key("metrics").beginObject();
    for (const Metric &m : rep.metrics)
        w.key(m.name).rawValue(num(m.value));
    w.endObject();
    w.key("notes").beginArray();
    for (const std::string &n : rep.notes)
        w.value(n);
    w.endArray();
    w.endObject();
    if (!w.writeFile(path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

bool
sameOutputs(const EngineRun &a, const EngineRun &b)
{
    return a.sim_mrps == b.sim_mrps && a.output_records == b.output_records
           && a.windows == b.windows && a.window_records == b.window_records
           && a.window_checksums == b.window_checksums;
}

bool
sameOutputs(const FleetRun &a, const FleetRun &b)
{
    return a.sim_mrps == b.sim_mrps && a.records == b.records
           && a.checksums == b.checksums;
}

/** Determinism: run @p i reproduces run 0's simulated outputs. */
template <typename Run>
void
checkDeterminism(const std::vector<Run> &runs, const std::string &what,
                 Report &rep)
{
    for (size_t i = 1; i < runs.size(); ++i) {
        if (!sameOutputs(runs[0], runs[i])) {
            rep.fail("determinism: " + what + " run " + std::to_string(i)
                     + " differs from run 0");
            rep.failed += runs[i].offered;
        }
    }
}

/** Timed runs until @p seconds passed (>= kMinRuns); reads peak RSS. */
template <typename Fn>
auto
timedRuns(double seconds, double &peak_rss, Fn &&run_once)
{
    std::vector<decltype(run_once())> runs;
    const int64_t t0 = hostNs();
    while (runs.size() < kMinRuns
           || static_cast<double>(hostNs() - t0) / 1e9 < seconds) {
        runs.push_back(run_once());
        if (runs.size() == kRssRuns)
            peak_rss = peakRssMb();
    }
    return runs;
}

/**
 * Per-window host time, median over the runs. Every run of an
 * invocation replays the same simulated schedule, so sample i is the
 * same window in each run; its median over the runs drops the runs a
 * transient slowdown of the machine hit.
 */
template <typename Run>
std::vector<double>
medianWindowMs(const std::vector<Run> &runs, Report &rep)
{
    std::vector<double> out(runs[0].window_ms.size());
    std::vector<double> per_run(runs.size());
    for (size_t i = 0; i < out.size(); ++i) {
        for (size_t r = 0; r < runs.size(); ++r) {
            if (runs[r].window_ms.size() != out.size()) {
                rep.fail("window samples differ in count between runs");
                return runs[0].window_ms;
            }
            per_run[r] = runs[r].window_ms[i];
        }
        out[i] = median(per_run);
    }
    return out;
}

/** setup_s, host_mrps, window_host_ms_p50/p90 and sample notes. */
template <typename Run>
void
addTimingMetrics(const std::vector<Run> &runs,
                 const std::vector<double> &setups, Report &rep)
{
    std::vector<double> mrps;
    for (const Run &r : runs)
        mrps.push_back(static_cast<double>(r.offered) / r.host_s / 1e6);
    const std::vector<double> win = medianWindowMs(runs, rep);
    const double p90 = quantile(win, 0.9);
    const auto beyond = std::count_if(win.begin(), win.end(),
                                      [&](double g) { return g > p90; });
    rep.set("host_mrps", median(mrps), "Mrec/s");
    rep.set("window_host_ms_p50", quantile(win, 0.5), "ms");
    rep.set("window_host_ms_p90", p90, "ms");
    rep.set("setup_s", median(setups), "s");
    rep.notes.push_back(
        std::to_string(runs.size()) + " timed runs; host_mrps quartiles "
        + num(quantile(mrps, 0.25)) + " / " + num(median(mrps)) + " / "
        + num(quantile(mrps, 0.75)) + "; " + std::to_string(win.size())
        + " windows per run, " + std::to_string(beyond)
        + " beyond p90; setup_s quartiles " + num(quantile(setups, 0.25))
        + " / " + num(median(setups)) + " / " + num(quantile(setups, 0.75)));
    if (beyond < 10)
        rep.notes.push_back("window_host_ms_p90 has fewer than 10 samples "
                            "beyond it");
}

// -------------------------------------------------------------------
// End-to-end (tracing off)
// -------------------------------------------------------------------

Report
engineEndToEnd(const Args &a, const EngineWorkload &w)
{
    Report rep;
    RunOptions opt;
    opt.pool_width = w.pool_width;
    for (int i = 0; i < kWarmupRuns; ++i)
        runEngine(w, opt);
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i)
        setups.push_back(measureSetup(w, w.pool_width));
    double rss = 0;
    const std::vector<EngineRun> runs =
        timedRuns(a.seconds, rss, [&] { return runEngine(w, opt); });

    addTimingMetrics(runs, setups, rep);
    rep.set("peak_rss_mb", rss, "MiB");
    rep.set("sim_mrps", runs[0].sim_mrps, "Mrec/s");
    for (const EngineRun &r : runs) {
        rep.attempted += r.offered;
        rep.failed += r.shed;
    }
    const uint64_t bad = checkAgainstReference(w, runs[0], rep);
    rep.failed += bad * runs.size();
    checkDeterminism(runs, w.name, rep);
    checkFidelity(w, runs[0], rep);
    return rep;
}

Report
fleetEndToEnd(const Args &a)
{
    Report rep;
    RunOptions opt;
    opt.pool_width = kFleetPoolWidth;
    for (int i = 0; i < kWarmupRuns; ++i)
        runFleet(a.seed, kFleetShards, true, opt);
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i)
        setups.push_back(measureFleetSetup(a.seed, kFleetShards));
    double rss = 0;
    const std::vector<FleetRun> runs = timedRuns(a.seconds, rss, [&] {
        return runFleet(a.seed, kFleetShards, true, opt);
    });

    addTimingMetrics(runs, setups, rep);
    rep.set("peak_rss_mb", rss, "MiB");
    rep.set("sim_mrps", runs[0].sim_mrps, "Mrec/s");
    for (const FleetRun &r : runs) {
        rep.attempted += r.offered;
        rep.failed += r.shed + r.unserved + r.unconserved;
        if (r.unserved + r.unconserved > 0)
            rep.fail("fleet: rejected, lost or unconserved tenants");
    }
    checkDeterminism(runs, "fleet", rep);
    // Reference: the same fleet on one shard. Fidelity: the same fleet
    // with no benchmark tick installed.
    const FleetRun one = runFleet(a.seed, 1, false, opt);
    rep.failed +=
        runs.size() * checkFleet(runs[0], one, "the 1-shard run", rep);
    const FleetRun bare = runFleet(a.seed, kFleetShards, false, opt);
    rep.failed +=
        runs.size() * checkFleet(runs[0], bare, "an uninstrumented run", rep);
    if (bare.sim_mrps != runs[0].sim_mrps)
        rep.fail("fidelity: fleet sim_mrps " + num(runs[0].sim_mrps)
                 + " vs uninstrumented " + num(bare.sim_mrps));
    return rep;
}

// -------------------------------------------------------------------
// Per-layer (traced run)
// -------------------------------------------------------------------

/** Pipeline operators grouped by role: name -> role. */
const char *
operatorRole(const std::string &op)
{
    if (op == "task")
        return "ingest"; // Source ingest tasks carry no label
    if (op == "extract" || op == "extract_l" || op == "extract_r")
        return "extract";
    if (op == "filter")
        return "filter";
    if (op == "ext_join")
        return "ext_join";
    if (op == "window" || op == "win_l" || op == "win_r")
        return "window";
    if (op == "agg" || op == "count_by_key" || op == "join")
        return "reduce";
    return nullptr;
}

void
addPipelineMetrics(const std::map<std::string, OpTotals> &ops,
                   uint64_t windows, uint64_t output_rows, Report &rep)
{
    std::map<std::string, OpTotals> roles;
    for (const auto &[name, o] : ops) {
        const char *role = operatorRole(name);
        if (role == nullptr) {
            rep.notes.push_back("operator " + name + " has no role");
            continue;
        }
        roles[role].tasks += o.tasks;
        roles[role].sim_busy_ms += o.sim_busy_ms;
    }
    for (const char *role :
         {"ingest", "extract", "filter", "ext_join", "window", "reduce"}) {
        const std::string p = std::string("pipeline.") + role;
        auto it = roles.find(role);
        if (it == roles.end()) {
            rep.absent(p + ".tasks", "count", "no such operator here");
            rep.absent(p + ".sim_busy_ms", "ms", "no such operator here");
            continue;
        }
        rep.set(p + ".tasks", static_cast<double>(it->second.tasks), "count");
        rep.set(p + ".sim_busy_ms", it->second.sim_busy_ms, "ms");
    }
    rep.set("pipeline.windows", static_cast<double>(windows), "count");
    rep.set("pipeline.output_rows", static_cast<double>(output_rows), "count");
}

/** kpa.* metrics from the replay spans; returns replayed kernel ns. */
double
addKpaMetrics(const SpanLog &spans, const ReplayCounts &c, double host_ns,
              Report &rep)
{
    double total = 0;
    for (const char *k : kReplayKernels)
        total += static_cast<double>(spans.totalNs(k));
    auto per = [&](const char *metric, const char *span, uint64_t n,
                   const char *why) {
        if (n == 0) {
            rep.absent(metric, "ns", why);
            return;
        }
        const auto ns = static_cast<double>(spans.totalNs(span));
        rep.set(metric, ns / static_cast<double>(n), "ns");
    };
    per("kpa.sort_ns_per_entry", "kpa.sortKpa", c.sort_entries, "no sorts");
    per("kpa.merge_ns_per_entry", "kpa.merge", c.merge_entries, "no merges");
    per("kpa.partition_ns_per_entry", "kpa.partitionByRange",
        c.partition_entries, "no partitions");
    per("kpa.extract_ns_per_rec", "kpa.extract", c.extract_recs,
        "the pipeline selects instead of extracting");
    per("kpa.select_ns_per_rec", "kpa.selectFromBundle", c.select_recs,
        "no select in this pipeline (ysb only)");
    per("kpa.probe_ns_per_key", "kpa.updateKeysViaTable", c.probe_keys,
        "no hash probe in this pipeline (ysb only)");
    per("kpa.join_ns_per_out_row", "kpa.join", c.join_out_rows,
        "no join in this pipeline (join only)");
    rep.set("kpa.replay_coverage", total / host_ns, "ratio");
    return total;
}

void
addMemMetrics(uint64_t faults, uint64_t records, double hbm_peak_bytes,
              double hbm_peak_bw, Report &rep)
{
    rep.set("mem.minor_faults_per_krec",
            static_cast<double>(faults) / (static_cast<double>(records) / 1e3),
            "1/krec");
    rep.set("mem.sim_hbm_peak_mb", hbm_peak_bytes / (1 << 20), "MiB");
    rep.set("mem.sim_hbm_peak_gbps", hbm_peak_bw / 1e9, "GB/s");
}

void
addRuntimeMetrics(uint64_t tasks, uint64_t queue_wait_ns, uint64_t shed_tasks,
                  uint64_t records, Report &rep)
{
    rep.set("runtime.tasks_per_krec",
            static_cast<double>(tasks) / (static_cast<double>(records) / 1e3),
            "1/krec");
    rep.set("runtime.queue_wait_sim_ms",
            static_cast<double>(queue_wait_ns) / 1e6, "ms");
    rep.set("runtime.shed_tasks", static_cast<double>(shed_tasks), "count");
}

void
absentServe(Report &rep)
{
    const char *why = "single-pipeline workload, no serving layer";
    rep.absent("serve.admitted", "count", why);
    rep.absent("serve.rejected", "count", why);
    rep.absent("serve.migrations", "count", why);
    rep.absent("serve.shard_records_skew", "ratio", why);
    rep.absent("serve.shard_scaling", "x", why);
}

Report
engineTraced(const EngineWorkload &w, SpanLog &spans)
{
    Report rep;
    const int32_t root = spans.begin("perfbench." + w.name);
    RunOptions plain;
    plain.pool_width = w.pool_width;
    for (int i = 0; i < kWarmupRuns; ++i)
        runEngine(w, plain);

    // Untraced reference point for overhead, faults and coverage.
    plain.spans = &spans;
    plain.parent = root;
    const uint64_t f0 = minorFaults();
    const EngineRun u = runEngine(w, plain);
    const uint64_t faults = minorFaults() - f0;

    RunOptions traced = plain;
    traced.traced = true;
    const EngineRun t1 = runEngine(w, traced);
    traced.pool_width = nprocs();
    const EngineRun tn = runEngine(w, traced);

    const int32_t rspan = spans.begin("replay", root);
    const ReplayCounts c = replayEngine(w, u, spans, rspan);
    spans.end(rspan);
    spans.end(root);

    const double recs = static_cast<double>(u.ingested);
    rep.attempted = u.offered + t1.offered + tn.offered;
    rep.failed = u.shed + t1.shed + tn.shed;
    const int64_t fill_ns = spans.childNs(t1.loop_span, "ingest.fill");
    rep.set("ingest.fill_ns_per_rec", static_cast<double>(fill_ns) / recs,
            "ns");
    rep.set("ingest.bundles", static_cast<double>(t1.bundles), "count");
    rep.set("ingest.shed_records", static_cast<double>(t1.shed), "count");
    rep.set("ingest.backpressure_sim_ms",
            static_cast<double>(t1.ingest_wait_ns) / 1e6, "ms");
    const double kernel_ns = addKpaMetrics(spans, c, u.host_s * 1e9, rep);
    addPipelineMetrics(t1.ops, t1.windows, t1.output_records, rep);
    addRuntimeMetrics(t1.tasks, t1.queue_wait_ns, t1.shed_tasks, t1.ingested,
                      rep);
    rep.set("worker_pool.speedup_nproc", t1.host_s / tn.host_s, "x");
    rep.set("sim.events_per_krec",
            static_cast<double>(u.steps) / (recs / 1e3), "1/krec");
    const double loop_ns = t1.host_s * 1e9;
    rep.set("engine.self_ns_per_rec",
            (loop_ns - static_cast<double>(fill_ns) - kernel_ns) / recs, "ns");
    addMemMetrics(faults, u.ingested, u.hbm_peak_bytes, u.hbm_peak_bw, rep);
    absentServe(rep);
    rep.set("obs.trace_overhead", t1.host_s / u.host_s, "x");
    rep.notes.push_back("pool width " + std::to_string(w.pool_width)
                        + " vs " + std::to_string(nprocs()) + ": "
                        + num(t1.host_s) + " s vs " + num(tn.host_s)
                        + " s (traced)");

    rep.failed += checkAgainstReference(w, u, rep);
    checkDeterminism(std::vector<EngineRun>{u, t1, tn},
                     w.name + " traced/width-" + std::to_string(nprocs()),
                     rep);
    checkFidelity(w, u, rep);
    return rep;
}

Report
fleetTraced(const Args &a, SpanLog &spans)
{
    Report rep;
    const int32_t root = spans.begin("perfbench.fleet");
    RunOptions plain;
    plain.pool_width = kFleetPoolWidth;
    for (int i = 0; i < kWarmupRuns; ++i)
        runFleet(a.seed, kFleetShards, true, plain);

    plain.spans = &spans;
    plain.parent = root;
    const uint64_t f0 = minorFaults();
    const FleetRun u = runFleet(a.seed, kFleetShards, true, plain);
    const uint64_t faults = minorFaults() - f0;
    RunOptions traced = plain;
    traced.traced = true;
    const FleetRun t = runFleet(a.seed, kFleetShards, true, traced);
    const FleetRun one = runFleet(a.seed, 1, true, plain);

    const int32_t rspan = spans.begin("replay", root);
    const SimTime window_ns = fleetServeConfig(kFleetShards).window_ns;
    const ReplayCounts c =
        replayFleet(fleetSpecs(a.seed), window_ns, spans, rspan);
    spans.end(rspan);
    spans.end(root);

    const double recs = static_cast<double>(u.ingested);
    rep.attempted = u.offered + t.offered + one.offered;
    rep.failed = u.shed + t.shed + one.shed + u.unserved + u.unconserved;
    rep.absent("ingest.fill_ns_per_rec", "ns",
               "serve::Server builds its tenants' generators internally");
    auto ingest = t.ops.find("task");
    rep.set("ingest.bundles",
            ingest != t.ops.end() ? static_cast<double>(ingest->second.tasks)
                                  : 0.0,
            "count");
    rep.set("ingest.shed_records", static_cast<double>(t.shed), "count");
    rep.set("ingest.backpressure_sim_ms", t.ingest_wait_ns / 1e6, "ms");
    const double kernel_ns = addKpaMetrics(spans, c, u.host_s * 1e9, rep);
    addPipelineMetrics(t.ops, t.windows, t.output_records, rep);
    addRuntimeMetrics(t.tasks, t.queue_wait_ns, t.shed_tasks, t.ingested, rep);
    rep.absent("worker_pool.speedup_nproc", "x",
               "fleet runs width 1 per shard so the process stays within "
               "nproc threads");
    rep.absent("sim.events_per_krec", "1/krec",
               "Server::run() owns the step loop");
    rep.set("engine.self_ns_per_rec", (t.host_s * 1e9 - kernel_ns) / recs,
            "ns");
    addMemMetrics(faults, u.ingested, u.hbm_peak_bytes, u.hbm_peak_bw, rep);
    rep.set("serve.admitted", static_cast<double>(u.admitted), "count");
    rep.set("serve.rejected", static_cast<double>(u.rejected), "count");
    rep.set("serve.migrations", static_cast<double>(u.migrations), "count");
    double max_shard = 0, sum_shard = 0;
    for (uint64_t n : u.shard_records) {
        max_shard = std::max(max_shard, static_cast<double>(n));
        sum_shard += static_cast<double>(n);
    }
    const double mean_shard =
        sum_shard / static_cast<double>(u.shard_records.size());
    rep.set("serve.shard_records_skew", max_shard / mean_shard, "ratio");
    rep.set("serve.shard_scaling", one.host_s / u.host_s, "x");
    rep.set("obs.trace_overhead", t.host_s / u.host_s, "x");

    if (u.unserved + u.unconserved > 0)
        rep.fail("fleet: rejected, lost or unconserved tenants");
    checkDeterminism(std::vector<FleetRun>{u, t}, "fleet traced", rep);
    rep.failed += checkFleet(u, one, "the 1-shard run", rep);
    return rep;
}

} // namespace
} // namespace sbhbm::perfbench

int
main(int argc, char **argv)
{
    using namespace sbhbm::perfbench;
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <groupby|ysb|join|fleet> "
                     "--seed <n> --seconds <s> --trace <0|1> "
                     "[--trace-out <file>]\n");
        return 2;
    }
    const bool fleet = a.workload == "fleet";
    if (!fleet && a.workload != "groupby" && a.workload != "ysb"
        && a.workload != "join") {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    EngineWorkload w;
    if (!fleet)
        w = engineWorkload(a.workload, a.seed);
    const std::string stamp =
        stampJson(a, fleet ? kFleetPoolWidth : w.pool_width);
    std::printf("{\"stamp\":%s}\n", stamp.c_str());

    Report rep;
    if (a.trace) {
        SpanLog spans;
        rep = fleet ? fleetTraced(a, spans) : engineTraced(w, spans);
        if (!a.trace_out.empty())
            writeTrace(a.trace_out, stamp, spans, rep);
    } else {
        rep = fleet ? fleetEndToEnd(a) : engineEndToEnd(a, w);
    }
    for (const Metric &m : rep.metrics)
        if (!std::isfinite(m.value))
            rep.fail("metric " + m.name + " is not finite");
    emitReport(rep);
    std::fflush(stdout);
    return rep.correct ? 0 : 1;
}
