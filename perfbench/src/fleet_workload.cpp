/**
 * @file
 * The serving workload (see fleet_workload.h).
 */

#include "fleet_workload.h"

#include <algorithm>

#include "obs/trace.h"
#include "serve/server.h"

namespace sbhbm::perfbench {

serve::FleetConfig
fleetConfig(uint64_t seed)
{
    // serve_report's shard-sweep point: 64 hot and 192 cold sessions,
    // 2k-record bundles, everyone arriving at once.
    serve::FleetConfig f;
    f.tenants = kFleetTenants;
    f.seed = seed;
    f.hot_records = 40'000;
    f.cold_records = 10'000;
    f.bundle_records = 2'000;
    f.hot_rate = 50e6;
    f.cold_rate = 10e6;
    f.hot_hbm_reserve = 8_MiB;
    f.cold_hbm_reserve = 2_MiB;
    f.arrival_span = 0;
    f.max_inflight_bundles = 8;
    return f;
}

std::vector<serve::TenantSpec>
fleetSpecs(uint64_t seed)
{
    std::vector<serve::TenantSpec> specs = serve::makeFleet(fleetConfig(seed));
    for (serve::TenantSpec &t : specs)
        t.logical_time = true;
    return specs;
}

serve::ServeConfig
fleetServeConfig(uint32_t shards)
{
    serve::ServeConfig cfg;
    cfg.engine.machine = sim::MachineConfig::knl();
    cfg.engine.cores = 16;
    cfg.engine.max_inflight_bundles = 1024;
    cfg.engine.host_threads = kFleetPoolWidth;
    // Logical event time puts a hot session's 40k records in 0.8 ms;
    // 100 us windows keep a window's bundles within the per-session
    // soft in-flight budget (5 of 8), so windows close while the
    // session is still back-pressured.
    cfg.window_ns = 100 * kNsPerUs;
    cfg.shards = shards;
    cfg.admission.max_active = kFleetTenants;
    cfg.admission.max_queued = kFleetTenants;
    return cfg;
}

namespace {

/**
 * Daemon event on the control-plane machine, every kPeriod of virtual
 * time. The co-simulation steps the globally earliest event, so when
 * it fires every shard has run all events before it. Each shard
 * engine counts one output delay per window's first result; the tick
 * turns new counts into host ms per externalized window.
 */
class WindowTick
{
  public:
    static constexpr SimTime kPeriod = 10 * kNsPerUs;

    WindowTick(serve::Server &srv, std::vector<double> &samples)
        : srv_(srv), samples_(samples)
    {
    }
    WindowTick(const WindowTick &) = delete;
    WindowTick &operator=(const WindowTick &) = delete;

    void
    arm()
    {
        srv_.engine(0).machine().after(kPeriod, [this] { fire(); }, true);
    }

  private:
    void
    fire()
    {
        uint64_t n = 0;
        for (uint32_t s = 0; s < srv_.shardCount(); ++s)
            n += srv_.engine(s).outputDelays().size();
        if (n != seen_) {
            const int64_t now = hostNs();
            if (last_ >= 0)
                addWindowSamples(samples_, now - last_, n - seen_);
            last_ = now;
            seen_ = n;
        }
        arm();
    }

    serve::Server &srv_;
    std::vector<double> &samples_;
    uint64_t seen_ = 0;
    int64_t last_ = -1;
};

} // namespace

double
measureFleetSetup(uint64_t seed, uint32_t shards)
{
    const int64_t t0 = hostNs();
    serve::Server server(fleetServeConfig(shards));
    server.submitFleet(fleetSpecs(seed));
    return static_cast<double>(hostNs() - t0) / 1e9;
}

FleetRun
runFleet(uint64_t seed, uint32_t shards, bool tick, const RunOptions &opt)
{
    FleetRun r;
    obs::Telemetry tele;
    ScopedSpan run_span(opt.spans, "fleet.run", opt.parent);

    const int32_t setup_span =
        opt.spans != nullptr ? opt.spans->begin("fleet.setup", run_span.id())
                             : -1;
    serve::ServeConfig cfg = fleetServeConfig(shards);
    if (opt.traced)
        cfg.telemetry = &tele;
    serve::Server server(cfg);
    server.submitFleet(fleetSpecs(seed));
    WindowTick ticker(server, r.window_ms);
    if (opt.spans != nullptr)
        opt.spans->end(setup_span);

    if (tick)
        ticker.arm();
    {
        ScopedSpan s(opt.spans, "serve.Server::run", run_span.id());
        const int64_t t0 = hostNs();
        server.run();
        r.host_s = static_cast<double>(hostNs() - t0) / 1e9;
    }

    r.sim_mrps = server.aggregateMrps();
    r.rejected = server.registry().rejected();
    r.shard_records.assign(server.shardCount(), 0);
    for (const serve::TenantReport &t : server.reports()) {
        r.offered += t.spec.total_records;
        if (t.admission != serve::Admission::kAdmitted || t.lost) {
            r.unserved += t.spec.total_records;
            continue;
        }
        ++r.admitted;
        r.ingested += t.records;
        r.shed += t.records_shed;
        if (t.records + t.records_shed
            != t.spec.total_records + t.records_replayed)
            r.unconserved += t.spec.total_records;
        r.migrations += t.migrations;
        r.windows += t.windows;
        r.output_records += t.output_records;
        r.ingest_wait_ns +=
            t.attribution_ns[static_cast<uint32_t>(serve::StallCause::kIngest)];
        r.tenant_offered[t.spec.id] = t.spec.total_records;
        r.records[t.spec.id] = t.window_records;
        r.checksums[t.spec.id] = t.window_checksums;
        r.shard_records[t.shard] += t.records;
    }
    for (uint32_t s = 0; s < server.shardCount(); ++s) {
        runtime::Engine &eng = server.engine(s);
        const runtime::Executor &ex = eng.exec();
        r.tasks += ex.completedTasks();
        r.shed_tasks += ex.shedTasks();
        for (const auto &[stream, st] : ex.allStreamStats())
            r.queue_wait_ns += st.queue_wait_ns;
        r.hbm_peak_bytes =
            std::max(r.hbm_peak_bytes, eng.monitor().hbmUsedStat().max());
        r.hbm_peak_bw =
            std::max(r.hbm_peak_bw, eng.monitor().hbmBwStat().max());
    }
    if (opt.traced)
        r.ops = taskTotals(tele);
    return r;
}

uint64_t
checkFleet(const FleetRun &run, const FleetRun &ref, const std::string &what,
           Report &rep)
{
    uint64_t failed = 0;
    for (const auto &[id, sums] : ref.checksums) {
        auto it = run.checksums.find(id);
        auto rit = run.records.find(id);
        if (it == run.checksums.end() || it->second != sums
            || rit == run.records.end() || rit->second != ref.records.at(id)) {
            failed += ref.tenant_offered.at(id);
            rep.fail("fleet tenant " + std::to_string(id)
                     + " output differs from " + what);
        }
    }
    if (run.checksums.size() != ref.checksums.size())
        rep.fail("fleet served " + std::to_string(run.checksums.size())
                 + " tenants, " + what + " served "
                 + std::to_string(ref.checksums.size()));
    return failed;
}

} // namespace sbhbm::perfbench
