/**
 * @file
 * The StreamBox-HBM engine runtime: one object owning the simulated
 * machine, hybrid memory, executor, balance knob and monitor.
 *
 * This is the composition root a pipeline runs against. The ablation
 * variants of Fig 9 are configurations of this one engine:
 *
 *   StreamBox-HBM          : kFlat  + use_kpa + knob
 *   StreamBox-HBM Caching  : kCache + use_kpa (placement moot)
 *   StreamBox-HBM DRAM     : kDramOnly + use_kpa
 *   Caching NoKPA          : kCache + !use_kpa (grouping moves full
 *                            records; cost charged accordingly)
 */

#ifndef SBHBM_RUNTIME_ENGINE_H
#define SBHBM_RUNTIME_ENGINE_H

#include <algorithm>
#include <map>
#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "kpa/kpa.h"
#include "mem/hybrid_memory.h"
#include "mem/placement_policy.h"
#include "mem/pressure_director.h"
#include "obs/trace.h"
#include "runtime/balance_knob.h"
#include "runtime/executor.h"
#include "runtime/impact_tag.h"
#include "runtime/resource_monitor.h"
#include "sim/machine.h"

namespace sbhbm::runtime {

/** Engine-level configuration. */
struct EngineConfig
{
    sim::MachineConfig machine = sim::MachineConfig::knl();
    sim::MemoryMode mode = sim::MemoryMode::kFlat;

    /** Core slots the executor uses (the x-axis of most figures). */
    unsigned cores = 64;

    /**
     * Host threads for kernels' wall-clock fork-join pool (0 = auto:
     * $SBHBM_HOST_THREADS or the hardware concurrency). Results and
     * CostLog output are bit-identical at every setting; this only
     * changes how fast the host gets there.
     */
    unsigned host_threads = 0;

    /**
     * When false, grouping operates on full records instead of
     * extracted KPAs (the "NoKPA" ablation): operators skip Extract
     * and charge full-record traffic for every grouping pass.
     */
    bool use_kpa = true;

    /** Enable the dynamic {k_low, k_high} placement knob. */
    bool use_knob = true;

    /**
     * Pressure-driven demotion of cold window-state KPAs (the memory
     * control plane's feedback loop). Disabled by default: the knob
     * alone reproduces the paper's placement behavior exactly.
     */
    mem::PressureConfig pressure{};

    /** Target output delay (paper: 1 second). */
    SimTime target_delay = kNsPerSec;

    /** Resource sampling period (paper: 10 ms). */
    SimTime monitor_period = 10 * kNsPerMs;

    uint64_t seed = 1;

    /**
     * Ingestion credit: maximum bundles in flight (ingested but not
     * fully processed) before the source stops pulling. This is the
     * back-pressure mechanism of paper §5.
     */
    uint32_t max_inflight_bundles = 512;
};

/** The engine runtime. */
class Engine
{
  public:
    explicit Engine(EngineConfig cfg)
        : cfg_(cfg), machine_(cfg.machine), hm_(machine_.config(), cfg.mode),
          exec_(machine_, cfg.cores), rng_(cfg.seed),
          knob_policy_(hm_, knob_, rng_, cfg.use_knob),
          director_(hm_, cfg.pressure),
          monitor_(machine_, hm_, knob_, [this] { return delayHeadroomOk(); },
                   cfg.monitor_period, &director_)
    {
        if (cfg.host_threads != 0)
            exec_.setHostThreads(cfg.host_threads);
    }

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    const EngineConfig &config() const { return cfg_; }
    sim::Machine &machine() { return machine_; }
    mem::HybridMemory &memory() { return hm_; }
    Executor &exec() { return exec_; }
    BalanceKnob &knob() { return knob_; }
    ResourceMonitor &monitor() { return monitor_; }
    Rng &rng() { return rng_; }
    bool useKpa() const { return cfg_.use_kpa; }

    /**
     * Install the telemetry plane on this engine and its executor and
     * monitor. @p shard labels every event this engine records (the
     * trace's pid track). Null uninstalls; the default — no telemetry
     * — keeps every hot path at a single pointer null check and the
     * simulation bit-identical to the uninstrumented build.
     */
    void
    setTelemetry(obs::Telemetry *t, uint32_t shard = 0)
    {
        tele_ = t;
        tele_shard_ = shard;
        exec_.setTelemetry(t, shard);
        monitor_.setTelemetry(t, shard);
    }

    /** The installed telemetry plane (null = disabled). */
    obs::Telemetry *telemetry() const { return tele_; }

    /** Shard id stamped on this engine's trace events. */
    uint32_t telemetryShard() const { return tele_shard_; }

    /**
     * Decide the placement of a new KPA for a task tagged @p tag on
     * @p stream, by consulting the KnobPlacementPolicy — the paper's
     * "single control knob" (§1): Urgent tasks always get HBM
     * (reserved pool); others flip the knob's weighted coin, falling
     * back to DRAM when HBM has no non-reserved room.
     */
    kpa::Placement
    placeKpa(ImpactTag tag, uint64_t bytes_hint, StreamId stream = 0)
    {
        const mem::KnobPlacementPolicy::Decision d =
            knob_policy_.place(tag, bytes_hint, stream);
        kpa::Placement p;
        p.tier = d.tier;
        p.urgent = d.urgent;
        p.stream = stream;
        return p;
    }

    /** Bias @p stream's placement (serving-layer SLA demotion). */
    void
    setStreamPlacementClass(StreamId stream, mem::PlacementClass c)
    {
        knob_policy_.setStreamClass(stream, c);
    }

    /** The pressure director (cold-state demotion control loop). */
    mem::PressureDirector &director() { return director_; }
    const mem::PressureDirector &director() const { return director_; }

    // ---------------------------------------------------------------
    // Graceful exhaustion (the fault-tolerant serving layer's opt-in).
    //
    // By default allocation exhaustion is fatal — the historical
    // behaviour every single-pipeline figure reproduces bit for bit.
    // A serving fleet instead wants to *degrade*: first try to free
    // capacity by relocating cold window state off the exhausted tier
    // (an emergency director sweep, charged DMA-style), and only if
    // that still leaves the allocation unsatisfiable, throw
    // mem::AllocFailure so the executor / ingest sheds the one task
    // or bundle instead of aborting the whole fleet. Each exhaustion
    // event opens a distress window the serving layer reads to turn
    // on SLA-aware load shedding.
    // ---------------------------------------------------------------

    /** Make exhaustion recoverable (see block comment above). */
    void
    enableGracefulExhaustion(SimTime distress_window = 100 * kNsPerMs)
    {
        distress_window_ = distress_window;
        hm_.setThrowOnExhaustion(true);
        hm_.setExhaustionHandler([this](mem::Tier t, uint64_t want) {
            noteMemoryDistress();
            sim::CostLog relief;
            const mem::DemoteResult r =
                director_.emergencySweep(t, want, relief);
            if (r.kpas == 0)
                return false;
            // Like the monitor's steady-state sweep: attribute the
            // copy time as memory stall to the streams whose state
            // moved, and record the emergency span.
            const SimTime t0 = machine_.now();
            auto shares = director_.takeLastSweepShares();
            const uint64_t kpas = r.kpas;
            machine_.execute(
                std::move(relief),
                [this, t0, kpas, shares = std::move(shares)] {
                    const SimTime dur = machine_.now() - t0;
                    director_.addSweepStallNs(shares, dur);
                    if (tele_ != nullptr) {
                        uint64_t bytes = 0;
                        for (const auto &[stream, b] : shares)
                            bytes += b;
                        tele_->trace.span(t0, dur, tele_shard_, 0,
                                          "pressure", "emergency_sweep",
                                          {{"charged_bytes", bytes},
                                           {"kpas", kpas}});
                    }
                });
            return true;
        });
    }

    /** Open (or extend) the memory-distress window. */
    void
    noteMemoryDistress()
    {
        distress_until_ = machine_.now() + distress_window_;
        ++distress_events_;
    }

    /** Inside the distress window following an exhaustion event? */
    bool inDistress() const { return machine_.now() < distress_until_; }

    /** Exhaustion events since boot (injected and genuine). */
    uint64_t distressEvents() const { return distress_events_; }

    /** Record one per-window output delay (drives knob headroom). */
    void
    reportOutputDelay(SimTime delay)
    {
        delays_.add(simToSeconds(delay));
        last_delay_ = delay;
    }

    /** @return true when the latest delay is >= 10% below target. */
    bool
    delayHeadroomOk() const
    {
        return static_cast<double>(last_delay_)
               <= 0.9 * static_cast<double>(cfg_.target_delay);
    }

    const SampleSet &outputDelays() const { return delays_; }

    // ---------------------------------------------------------------
    // Back-pressure (paper §5: the engine starts/stops pulling from
    // the data source according to resource utilization).
    //
    // Accounting is global (the engine-wide in-flight budget) plus
    // optionally per stream: the serving layer gives each tenant its
    // own smaller budget so one tenant's backlog throttles only that
    // tenant's ingestion, not the whole machine. Stream 0 with no
    // registered budget reproduces the original single-pipeline
    // behaviour bit for bit.
    // ---------------------------------------------------------------

    /** A bundle entered the pipeline. */
    void
    noteBundleIn(StreamId stream = 0)
    {
        ++inflight_bundles_;
        ++stream_flows_[stream].inflight;
    }

    /** A bundle's window was externalized / the bundle was freed. */
    void
    noteBundleOut(StreamId stream = 0)
    {
        sbhbm_assert(inflight_bundles_ > 0, "bundle accounting underflow");
        --inflight_bundles_;
        ++bundles_released_;
        auto it = stream_flows_.find(stream);
        sbhbm_assert(it != stream_flows_.end() && it->second.inflight > 0,
                     "stream %u bundle accounting underflow", stream);
        --it->second.inflight;
        ++it->second.released;
    }

    uint32_t inflightBundles() const { return inflight_bundles_; }

    /** In-flight bundles of one stream (tenant). */
    uint32_t
    inflightBundles(StreamId stream) const
    {
        auto it = stream_flows_.find(stream);
        return it == stream_flows_.end() ? 0 : it->second.inflight;
    }

    /** Total bundles ever fully processed and freed. */
    uint64_t bundlesReleased() const { return bundles_released_; }

    /**
     * Cap @p stream's in-flight bundles at @p max_inflight (0 removes
     * the cap). The engine-wide budget still applies on top.
     */
    void
    setStreamBudget(StreamId stream, uint32_t max_inflight)
    {
        stream_flows_[stream].cap = max_inflight;
    }

    /** Should the source pause pulling? */
    bool
    backpressured() const
    {
        return inflight_bundles_ >= cfg_.max_inflight_bundles;
    }

    /** Stream-aware hard back-pressure: global or per-stream cap hit. */
    bool
    backpressured(StreamId stream) const
    {
        if (backpressured())
            return true;
        auto it = stream_flows_.find(stream);
        return it != stream_flows_.end() && it->second.cap > 0
               && it->second.inflight >= it->second.cap;
    }

    /**
     * Soft back-pressure: enough backlog (about a window's worth)
     * that ingestion should pace itself to the service rate rather
     * than keep bursting at NIC speed.
     */
    bool
    softBackpressured() const
    {
        return inflight_bundles_ >= softThreshold();
    }

    /** Stream-aware soft back-pressure. */
    bool
    softBackpressured(StreamId stream) const
    {
        if (softBackpressured())
            return true;
        auto it = stream_flows_.find(stream);
        return it != stream_flows_.end() && it->second.cap > 0
               && it->second.inflight
                      >= std::max<uint32_t>(1, 2 * it->second.cap / 3);
    }

    /** The global soft back-pressure threshold, in bundles. */
    uint32_t
    softThreshold() const
    {
        return std::min(cfg_.max_inflight_bundles,
                        std::max(cfg_.cores + 8,
                                 cfg_.max_inflight_bundles / 3));
    }

  private:
    /** Per-stream back-pressure state. */
    struct StreamFlow
    {
        uint32_t inflight = 0;
        uint64_t released = 0;
        uint32_t cap = 0; //!< 0 = no per-stream cap
    };

    EngineConfig cfg_;
    sim::Machine machine_;
    mem::HybridMemory hm_;
    Executor exec_;
    BalanceKnob knob_;
    Rng rng_;
    mem::KnobPlacementPolicy knob_policy_;
    mem::PressureDirector director_;
    ResourceMonitor monitor_;
    obs::Telemetry *tele_ = nullptr;
    uint32_t tele_shard_ = 0;
    SampleSet delays_;
    SimTime last_delay_ = 0;
    SimTime distress_window_ = 100 * kNsPerMs;
    SimTime distress_until_ = 0;
    uint64_t distress_events_ = 0;
    uint32_t inflight_bundles_ = 0;
    uint64_t bundles_released_ = 0;
    std::map<StreamId, StreamFlow> stream_flows_;
};

} // namespace sbhbm::runtime

#endif // SBHBM_RUNTIME_ENGINE_H
