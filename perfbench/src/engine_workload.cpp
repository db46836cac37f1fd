/**
 * @file
 * Engine workloads: sizing, the step-by-step drive loop, the output
 * reference and the runQuery fidelity check (see engine_workload.h).
 */

#include "engine_workload.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string_view>
#include <utility>

#include "common/units.h"
#include "ingest/source.h"
#include "obs/trace.h"
#include "pipeline/egress.h"
#include "pipeline/pipeline.h"

namespace sbhbm::perfbench {

using columnar::WindowId;
using queries::QueryConfig;
using queries::QueryId;

EngineWorkload
engineWorkload(const std::string &name, uint64_t seed)
{
    EngineWorkload w;
    w.name = name;
    QueryConfig &q = w.query;
    q.seed = seed;
    q.bundle_records = 50'000;
    if (name == "groupby") {
        // Windowed Sum Per Key over a wide key range: per-bundle sorts
        // and window-close merges of ~1M distinct keys dominate.
        q.id = QueryId::kSumPerKey;
        q.key_range = 1ull << 20;
        q.total_records = 8'000'000;
        q.window_ns = 2 * kNsPerMs;
    } else if (name == "ysb") {
        // YSB: filter -> external join (hash probe) -> count over 100
        // campaigns; 7-column records make the generator a big share.
        q.id = QueryId::kYsb;
        q.total_records = 12'000'000;
        q.window_ns = 3 * kNsPerMs;
    } else if (name == "join") {
        // Temporal join of two streams; the key range makes the join
        // write more rows than it reads. Bundles are small enough that
        // every window sees only a few bundles per side.
        q.id = QueryId::kTemporalJoin;
        q.key_range = 2'500;
        q.total_records = 2'000'000; // per stream
        q.bundle_records = 12'500;
        q.window_ns = 250 * kNsPerUs;
    } else {
        sbhbm_fatal("unknown engine workload '%s'", name.c_str());
    }
    return w;
}

runtime::EngineConfig
engineConfigFor(const QueryConfig &q)
{
    // Mirrors runQuery()'s StreamBox-HBM configuration; checkFidelity
    // proves the two agree.
    runtime::EngineConfig e;
    e.machine = q.machine;
    e.cores = q.cores;
    e.target_delay = q.target_delay;
    e.seed = q.seed;
    e.monitor_period = std::max<SimTime>(q.window_ns / 100, 100 * kNsPerUs);
    e.mode = sim::MemoryMode::kFlat;
    e.use_kpa = true;
    e.use_knob = true;
    const double win_records = simToSeconds(q.window_ns) * q.machine.nic_rdma_bw
                               / queries::queryRecordBytes(q.id);
    e.max_inflight_bundles = std::max(
        q.max_inflight_bundles,
        static_cast<uint32_t>(3.0 * win_records / q.bundle_records)
            + q.cores + 8);
    return e;
}

namespace {

ingest::SourceConfig
sourceConfigFor(const QueryConfig &q, bool two_streams)
{
    ingest::SourceConfig s;
    s.nic_bw = q.machine.nic_rdma_bw;
    if (two_streams)
        s.nic_bw /= 2; // the two streams share one NIC
    s.bundle_records = q.bundle_records;
    s.total_records = q.total_records;
    return s;
}

uint64_t
recordsBefore(const ingest::Source &src, SimTime t)
{
    uint64_t n = 0;
    for (const auto &m : src.checkpoints()) {
        if (m.t > t)
            break;
        n = m.records;
    }
    return n;
}

/**
 * runQuery()'s sustained rate: the median per-interval rate over the
 * later half of the externalizations made while ingestion ran, with
 * the whole-run average as the short-run fallback. M records/s.
 */
double
sustainedMrps(const QueryConfig &q, const pipeline::Pipeline &pipe,
              const ingest::Source &a, const ingest::Source *b)
{
    SimTime ingest_done = a.finishedAt();
    if (b != nullptr)
        ingest_done = std::max(ingest_done, b->finishedAt());
    const columnar::WindowSpec spec{q.window_ns};
    auto before = [&](SimTime t) {
        return recordsBefore(a, t) + (b != nullptr ? recordsBefore(*b, t) : 0);
    };
    std::vector<pipeline::Pipeline::Externalization> exts;
    for (const auto &e : pipe.externalizations())
        if (e.at <= ingest_done)
            exts.push_back(e);
    std::vector<double> rates;
    for (size_t i = exts.size() / 2; i + 1 < exts.size(); ++i) {
        const auto &x = exts[i];
        const auto &y = exts[i + 1];
        if (y.at <= x.at)
            continue;
        const double dt = simToSeconds(y.at - x.at);
        const auto dn = static_cast<double>(before(spec.end(y.window))
                                            - before(spec.end(x.window)));
        if (dn > 0)
            rates.push_back(dn / dt);
    }
    double rate = 0;
    if (rates.size() >= 3) {
        std::nth_element(rates.begin(), rates.begin() + rates.size() / 2,
                         rates.end());
        rate = rates[rates.size() / 2];
    }
    if (rate <= 0) {
        const double sec = simToSeconds(ingest_done);
        const uint64_t n = a.recordsIngested()
                           + (b != nullptr ? b->recordsIngested() : 0);
        rate = sec > 0 ? static_cast<double>(n) / sec : 0.0;
    }
    return rate / 1e6;
}

/** Everything a run constructs before the first source start. */
struct Instance
{
    Instance(const EngineWorkload &w, const RunOptions &opt)
        : eng(configured(w.query, opt.pool_width)),
          pipe(eng, columnar::WindowSpec{w.query.window_ns}),
          built(queries::buildQueryPipeline(w.query, pipe)),
          gen_a(*built.gen_a)
    {
        if (opt.traced)
            eng.setTelemetry(&tele);
        const bool two = built.entry_b != nullptr;
        if (two)
            gen_b = std::make_unique<RecordingGen>(*built.gen_b);
        const ingest::SourceConfig scfg = sourceConfigFor(w.query, two);
        src_a = std::make_unique<ingest::Source>(eng, pipe, gen_a,
                                                 built.entry_a, scfg,
                                                 built.port_a);
        if (two) {
            src_b = std::make_unique<ingest::Source>(eng, pipe, *gen_b,
                                                     built.entry_b, scfg,
                                                     built.port_b);
        }
    }

    static runtime::EngineConfig
    configured(const QueryConfig &q, unsigned pool_width)
    {
        runtime::EngineConfig e = engineConfigFor(q);
        e.host_threads = pool_width;
        return e;
    }

    obs::Telemetry tele;
    runtime::Engine eng;
    pipeline::Pipeline pipe;
    queries::BuiltQuery built;
    RecordingGen gen_a;
    std::unique_ptr<RecordingGen> gen_b;
    std::unique_ptr<ingest::Source> src_a;
    std::unique_ptr<ingest::Source> src_b;
};

} // namespace

double
measureSetup(const EngineWorkload &w, unsigned pool_width)
{
    RunOptions opt;
    opt.pool_width = pool_width;
    const int64_t t0 = hostNs();
    Instance inst(w, opt);
    return static_cast<double>(hostNs() - t0) / 1e9;
}

EngineRun
runEngine(const EngineWorkload &w, const RunOptions &opt)
{
    const QueryConfig &q = w.query;
    EngineRun r;

    ScopedSpan run_span(opt.spans, "engine.run", opt.parent);
    const int32_t setup_span =
        opt.spans != nullptr ? opt.spans->begin("engine.setup", run_span.id())
                             : -1;
    Instance inst(w, opt);
    if (opt.spans != nullptr)
        opt.spans->end(setup_span);
    runtime::Engine &eng = inst.eng;
    pipeline::Pipeline &pipe = inst.pipe;
    ingest::Source &src_a = *inst.src_a;
    ingest::Source *src_b = inst.src_b.get();
    const bool two = src_b != nullptr;

    ScopedSpan loop_span(opt.spans, "engine.step_loop", run_span.id());
    r.loop_span = loop_span.id();
    if (opt.traced) {
        inst.gen_a.timeInto(opt.spans, loop_span.id());
        if (inst.gen_b)
            inst.gen_b->timeInto(opt.spans, loop_span.id());
    }
    const int64_t t0 = hostNs();
    eng.monitor().start();
    src_a.start();
    if (two)
        src_b->start();
    sim::Machine &m = eng.machine();
    uint64_t seen = pipe.windowsExternalized();
    int64_t last_ext = -1;
    while (!m.idle() && m.step()) {
        ++r.steps;
        const uint64_t wx = pipe.windowsExternalized();
        if (wx == seen)
            continue;
        const int64_t now = hostNs();
        if (last_ext >= 0)
            addWindowSamples(r.window_ms, now - last_ext, wx - seen);
        seen = wx;
        last_ext = now;
    }
    r.host_s = static_cast<double>(hostNs() - t0) / 1e9;

    sbhbm_assert(src_a.finished() && (!two || src_b->finished()),
                 "%s: a source did not drain", w.name.c_str());

    r.sim_mrps = sustainedMrps(q, pipe, src_a, src_b);
    r.offered = q.total_records * (two ? 2 : 1);
    for (const ingest::Source *s : {&src_a, src_b}) {
        if (s == nullptr)
            continue;
        r.ingested += s->recordsIngested();
        r.shed += s->recordsShed();
        r.bundles += s->bundlesIngested();
        r.ingest_wait_ns += s->ingestWaitNs();
    }
    const pipeline::EgressOp &egress = *inst.built.egress;
    r.output_records = egress.outputRecords();
    r.windows = pipe.windowsExternalized();
    r.window_records = egress.windowRecords();
    r.window_checksums = egress.windowChecksums();

    const runtime::Executor &ex = eng.exec();
    r.tasks = ex.completedTasks();
    r.shed_tasks = ex.shedTasks();
    for (const auto &[stream, st] : ex.allStreamStats())
        r.queue_wait_ns += st.queue_wait_ns;
    r.hbm_peak_bytes = eng.monitor().hbmUsedStat().max();
    r.hbm_peak_bw = eng.monitor().hbmBwStat().max();

    r.calls_a = inst.gen_a.calls();
    if (inst.gen_b)
        r.calls_b = inst.gen_b->calls();
    if (opt.traced)
        r.ops = taskTotals(inst.tele);
    return r;
}

std::map<std::string, OpTotals>
taskTotals(const obs::Telemetry &tele)
{
    std::map<std::string, OpTotals> ops;
    for (const obs::TraceEvent &e : tele.trace.events()) {
        if (e.ph != 'X' || std::string_view(e.cat) != "task")
            continue;
        OpTotals &o = ops[e.name];
        ++o.tasks;
        o.sim_busy_ms += static_cast<double>(e.dur) / 1e6;
    }
    return ops;
}

// -------------------------------------------------------------------
// Output reference
// -------------------------------------------------------------------

namespace {

/** FNV-1a over one result row, as EgressOp checksums it. */
uint64_t
rowHash(std::initializer_list<uint64_t> row)
{
    uint64_t h = 1469598103934665603ull;
    for (uint64_t v : row) {
        h ^= v;
        h *= 1099511628211ull;
    }
    return h;
}

/** Per-window reference plus the input records each window holds. */
struct WindowRef
{
    uint64_t rows = 0;
    uint64_t checksum = 0;
    uint64_t inputs = 0;
};

using RefMap = std::map<WindowId, WindowRef>;

/** Windowed Sum Per Key: (key, sum of values) per key per window. */
RefMap
refSumPerKey(const EngineWorkload &w, ingest::Generator &gen,
             mem::HybridMemory &hm, const std::vector<GenCall> &calls)
{
    using ingest::KvGen;
    const columnar::WindowSpec spec{w.query.window_ns};
    RefMap ref;
    std::vector<std::pair<uint64_t, uint64_t>> kv;
    WindowId cur = 0;
    bool open = false;
    auto close = [&] {
        std::sort(kv.begin(), kv.end());
        WindowRef &wr = ref[cur];
        for (size_t i = 0; i < kv.size();) {
            uint64_t sum = 0;
            size_t j = i;
            for (; j < kv.size() && kv[j].first == kv[i].first; ++j)
                sum += kv[j].second;
            ++wr.rows;
            wr.checksum += rowHash({kv[i].first, sum});
            i = j;
        }
        wr.inputs += kv.size();
        kv.clear();
    };
    for (BundleCursor c(gen, hm, calls); c.peek() != nullptr;) {
        const columnar::BundleHandle b = c.take();
        for (uint32_t i = 0; i < b->size(); ++i) {
            const uint64_t *row = b->row(i);
            const WindowId win = spec.windowOf(row[KvGen::kTsCol]);
            if (open && win != cur) {
                sbhbm_assert(win > cur, "event time went backwards");
                close();
            }
            cur = win;
            open = true;
            kv.emplace_back(row[KvGen::kKeyCol], row[KvGen::kValueCol]);
        }
    }
    if (open)
        close();
    return ref;
}

/** YSB: view events counted per campaign per window. */
RefMap
refYsb(const EngineWorkload &w, ingest::Generator &gen,
       mem::HybridMemory &hm, const std::vector<GenCall> &calls)
{
    using ingest::YsbGen;
    const columnar::WindowSpec spec{w.query.window_ns};
    RefMap ref;
    std::vector<uint64_t> counts(YsbGen::kCampaigns, 0);
    WindowId cur = 0;
    bool open = false;
    auto close = [&] {
        WindowRef &wr = ref[cur];
        for (uint64_t c = 0; c < counts.size(); ++c) {
            if (counts[c] == 0)
                continue;
            ++wr.rows;
            wr.checksum += rowHash({c, counts[c]});
            counts[c] = 0;
        }
    };
    for (BundleCursor c(gen, hm, calls); c.peek() != nullptr;) {
        const columnar::BundleHandle b = c.take();
        for (uint32_t i = 0; i < b->size(); ++i) {
            const uint64_t *row = b->row(i);
            const WindowId win = spec.windowOf(row[YsbGen::kTsCol]);
            if (open && win != cur) {
                sbhbm_assert(win > cur, "event time went backwards");
                close();
            }
            cur = win;
            open = true;
            ++ref[cur].inputs;
            if (row[YsbGen::kEventTypeCol] == YsbGen::kViewEvent)
                ++counts[row[YsbGen::kAdCol] / YsbGen::kAdsPerCampaign];
        }
    }
    if (open)
        close();
    return ref;
}

/** One bundle's slice of a join window: (key, value), key-sorted. */
struct JoinPart
{
    int side = 0;
    std::vector<std::pair<uint64_t, uint64_t>> kv;
};

/**
 * Matched rows and the checksum of rows emitted when part @p in
 * arrives after part @p st: TemporalJoinOp joins each incoming part
 * against the other side's state and emits {key, incoming, state}.
 */
std::pair<uint64_t, uint64_t>
joinParts(const JoinPart &in, const JoinPart &st)
{
    uint64_t rows = 0, sum = 0;
    size_t i = 0, j = 0;
    while (i < in.kv.size() && j < st.kv.size()) {
        const uint64_t ki = in.kv[i].first, kj = st.kv[j].first;
        if (ki < kj) {
            ++i;
        } else if (kj < ki) {
            ++j;
        } else {
            size_t i1 = i, j1 = j;
            while (i1 < in.kv.size() && in.kv[i1].first == ki)
                ++i1;
            while (j1 < st.kv.size() && st.kv[j1].first == ki)
                ++j1;
            for (size_t a = i; a < i1; ++a)
                for (size_t b = j; b < j1; ++b)
                    sum += rowHash({ki, in.kv[a].second, st.kv[b].second});
            rows += (i1 - i) * (j1 - j);
            i = i1;
            j = j1;
        }
    }
    return {rows, sum};
}

/**
 * Does some arrival order of the window's parts at the join produce
 * @p target? Row orientation depends on which part arrived later,
 * and the arrival order is simulated scheduling, not input; so the
 * check searches the orders (per-side FIFO beyond 8 parts), starting
 * from delivery order.
 */
bool
someOrderMatches(const std::vector<JoinPart> &parts, uint64_t target)
{
    const size_t m = parts.size();
    std::vector<std::vector<uint64_t>> s(m, std::vector<uint64_t>(m, 0));
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < m; ++j)
            if (parts[i].side != parts[j].side)
                s[i][j] = joinParts(parts[i], parts[j]).second;
    const bool fifo = m > 8;
    std::vector<bool> placed(m, false);
    uint64_t budget = 5'000'000; // leaves; bounds a pathological search
    auto dfs = [&](auto &&self, size_t depth, uint64_t sum) -> bool {
        if (depth == m)
            return sum == target;
        if (budget == 0)
            return false;
        --budget;
        bool side_seen[2] = {false, false};
        for (size_t i = 0; i < m; ++i) {
            if (placed[i])
                continue;
            const int side = parts[i].side;
            if (fifo && side_seen[side])
                continue;
            side_seen[side] = true;
            uint64_t add = 0;
            for (size_t j = 0; j < m; ++j)
                if (placed[j] && parts[j].side != side)
                    add += s[i][j];
            placed[i] = true;
            const bool ok = self(self, depth + 1, sum + add);
            placed[i] = false;
            if (ok)
                return true;
        }
        return false;
    };
    return dfs(dfs, 0, 0);
}

/** Temporal join: per-window rows/checksum of the cross-side matches. */
uint64_t
checkJoin(const EngineWorkload &w, ingest::Generator &gen_a,
          ingest::Generator &gen_b, mem::HybridMemory &hm,
          const EngineRun &run, Report &rep)
{
    using ingest::KvGen;
    const columnar::WindowSpec spec{w.query.window_ns};
    // Parts per window in delivery order: (t0, side) sorts the two
    // sides' bundles by arrival time, A first on ties.
    struct Keyed
    {
        EventTime t0;
        int side;
        JoinPart part;
    };
    std::map<WindowId, std::vector<Keyed>> windows;
    auto collect = [&](ingest::Generator &gen,
                       const std::vector<GenCall> &calls, int side) {
        for (BundleCursor cur(gen, hm, calls); cur.peek() != nullptr;) {
            const EventTime t0 = cur.peek()->t0;
            const columnar::BundleHandle b = cur.take();
            std::map<WindowId, JoinPart> by_win;
            for (uint32_t i = 0; i < b->size(); ++i) {
                const uint64_t *row = b->row(i);
                JoinPart &p = by_win[spec.windowOf(row[KvGen::kTsCol])];
                p.side = side;
                p.kv.emplace_back(row[KvGen::kKeyCol], row[KvGen::kValueCol]);
            }
            for (auto &[win, p] : by_win) {
                std::sort(p.kv.begin(), p.kv.end());
                windows[win].push_back(Keyed{t0, side, std::move(p)});
            }
        }
    };
    collect(gen_a, run.calls_a, 0);
    collect(gen_b, run.calls_b, 1);

    uint64_t failed = 0;
    std::map<WindowId, uint64_t> seen;
    for (auto &[win, keyed] : windows) {
        std::stable_sort(keyed.begin(), keyed.end(),
                         [](const Keyed &x, const Keyed &y) {
                             return x.t0 != y.t0 ? x.t0 < y.t0
                                                 : x.side < y.side;
                         });
        std::vector<JoinPart> parts;
        uint64_t inputs = 0;
        for (Keyed &k : keyed) {
            inputs += k.part.kv.size();
            parts.push_back(std::move(k.part));
        }
        uint64_t rows = 0;
        for (size_t i = 0; i < parts.size(); ++i)
            for (size_t j = 0; j < i; ++j)
                if (parts[i].side != parts[j].side)
                    rows += joinParts(parts[i], parts[j]).first;
        if (rows == 0)
            continue;
        seen[win] = rows;
        auto rit = run.window_records.find(win);
        auto cit = run.window_checksums.find(win);
        const bool ok = rit != run.window_records.end() && rit->second == rows
                        && cit != run.window_checksums.end()
                        && someOrderMatches(parts, cit->second);
        if (!ok) {
            failed += inputs;
            rep.fail("join window " + std::to_string(win)
                     + " output differs from the reference");
        }
    }
    for (const auto &[win, n] : run.window_records) {
        if (seen.count(win) == 0) {
            failed += n;
            rep.fail("join window " + std::to_string(win)
                     + " has output the reference does not");
        }
    }
    return failed;
}

} // namespace

uint64_t
checkAgainstReference(const EngineWorkload &w, const EngineRun &run,
                      Report &rep)
{
    // A scratch engine + pipeline only to obtain fresh generators built
    // exactly as the query builds them, and memory for bundles.
    runtime::EngineConfig ecfg = engineConfigFor(w.query);
    ecfg.host_threads = 1;
    runtime::Engine eng(ecfg);
    pipeline::Pipeline pipe(eng, columnar::WindowSpec{w.query.window_ns});
    queries::BuiltQuery built = queries::buildQueryPipeline(w.query, pipe);

    if (w.query.id == QueryId::kTemporalJoin)
        return checkJoin(w, *built.gen_a, *built.gen_b, eng.memory(), run,
                         rep);

    const RefMap ref =
        w.query.id == QueryId::kYsb
            ? refYsb(w, *built.gen_a, eng.memory(), run.calls_a)
            : refSumPerKey(w, *built.gen_a, eng.memory(), run.calls_a);
    uint64_t failed = 0;
    for (const auto &[win, wr] : ref) {
        if (wr.rows == 0)
            continue;
        auto rit = run.window_records.find(win);
        auto cit = run.window_checksums.find(win);
        if (rit == run.window_records.end() || rit->second != wr.rows
            || cit == run.window_checksums.end()
            || cit->second != wr.checksum) {
            failed += wr.inputs;
            rep.fail(w.name + " window " + std::to_string(win)
                     + " output differs from the reference");
        }
    }
    for (const auto &[win, n] : run.window_records) {
        auto it = ref.find(win);
        if (it == ref.end() || it->second.rows == 0) {
            failed += n;
            rep.fail(w.name + " window " + std::to_string(win)
                     + " has output the reference does not");
        }
    }
    return failed;
}

void
checkFidelity(const EngineWorkload &w, const EngineRun &run, Report &rep)
{
    const queries::QueryResult q = queries::runQuery(w.query);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "runQuery sim %.17g Mrec/s, %llu out, %llu windows; "
                  "drive loop sim %.17g Mrec/s, %llu out, %llu windows",
                  q.throughput_mrps, (unsigned long long)q.output_records,
                  (unsigned long long)q.windows_externalized, run.sim_mrps,
                  (unsigned long long)run.output_records,
                  (unsigned long long)run.windows);
    if (q.throughput_mrps != run.sim_mrps
        || q.output_records != run.output_records
        || q.windows_externalized != run.windows
        || q.records_ingested != run.ingested) {
        rep.fail(std::string("fidelity: ") + buf);
    } else {
        rep.notes.push_back(std::string("fidelity ok: ") + buf);
    }
}

} // namespace sbhbm::perfbench
