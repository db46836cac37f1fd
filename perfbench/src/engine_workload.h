/**
 * @file
 * The single-pipeline workloads (groupby, ysb, join): one
 * runtime::Engine running a queries::buildQueryPipeline graph fed by
 * ingest::Sources, driven step by step through Machine::step() so the
 * host time between window externalizations can be observed.
 */

#ifndef PERFBENCH_ENGINE_WORKLOAD_H
#define PERFBENCH_ENGINE_WORKLOAD_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "columnar/bundle.h"
#include "harness.h"
#include "ingest/generator.h"
#include "obs/trace.h"
#include "queries/query.h"
#include "runtime/engine.h"

namespace sbhbm::perfbench {

/** One of the engine workloads, fully sized. */
struct EngineWorkload
{
    std::string name;
    queries::QueryConfig query;

    /** Kernel pool width of the timed runs (EngineConfig::host_threads). */
    unsigned pool_width = 1;
};

/** The named workload with its inputs drawn from @p seed. */
EngineWorkload engineWorkload(const std::string &name, uint64_t seed);

/** Engine configuration runQuery() derives for a StreamBox-HBM run. */
runtime::EngineConfig engineConfigFor(const queries::QueryConfig &q);

/** One Generator call, as the Source made it. */
struct GenCall
{
    uint32_t n = 0;
    EventTime t0 = 0;
    EventTime t1 = 0;
    bool skip = false; //!< skipRecords(n) instead of fill()
};

/**
 * Generator wrapper owned by the benchmark: forwards to the query's
 * own generator, logs every call (so the reference can regenerate
 * exactly the records the engine saw) and, when given a span log,
 * times each fill() as an "ingest.fill" span.
 */
class RecordingGen : public ingest::Generator
{
  public:
    explicit RecordingGen(ingest::Generator &inner) : inner_(inner) {}

    /** Time fills as spans under @p parent (nullptr: untimed). */
    void
    timeInto(SpanLog *spans, int32_t parent)
    {
        spans_ = spans;
        parent_ = parent;
    }

    uint32_t cols() const override { return inner_.cols(); }
    columnar::ColumnId tsCol() const override { return inner_.tsCol(); }

    void
    fill(columnar::Bundle &b, uint32_t n, EventTime t0,
         EventTime t1) override
    {
        const int64_t s = spans_ != nullptr ? hostNs() : 0;
        inner_.fill(b, n, t0, t1);
        if (spans_ != nullptr)
            spans_->add("ingest.fill", s, hostNs(), parent_);
        calls_.push_back(GenCall{n, t0, t1, false});
    }

    void
    skipRecords(uint64_t n) override
    {
        inner_.skipRecords(n);
        calls_.push_back(GenCall{static_cast<uint32_t>(n), 0, 0, true});
    }

    const std::vector<GenCall> &calls() const { return calls_; }

  private:
    ingest::Generator &inner_;
    SpanLog *spans_ = nullptr;
    int32_t parent_ = -1;
    std::vector<GenCall> calls_;
};

/** Per-operator totals from the traced run's task spans. */
struct OpTotals
{
    uint64_t tasks = 0;
    double sim_busy_ms = 0;
};

/** How to drive one run. */
struct RunOptions
{
    unsigned pool_width = 1;

    /** Install obs::Telemetry and time generator fills. */
    bool traced = false;

    /** Host spans land here (nullptr: none recorded). */
    SpanLog *spans = nullptr;
    int32_t parent = -1;
};

/** Everything one engine run measured. */
struct EngineRun
{
    double host_s = 0; //!< first source start -> pipeline drained

    /** Host ms per externalized window (see addWindowSamples). */
    std::vector<double> window_ms;

    uint64_t steps = 0; //!< Machine::step() calls
    double sim_mrps = 0;

    uint64_t offered = 0;
    uint64_t ingested = 0;
    uint64_t shed = 0;
    uint64_t bundles = 0;
    uint64_t ingest_wait_ns = 0;

    uint64_t output_records = 0;
    uint64_t windows = 0;
    std::map<columnar::WindowId, uint64_t> window_records;
    std::map<columnar::WindowId, uint64_t> window_checksums;

    uint64_t tasks = 0;
    uint64_t queue_wait_ns = 0;
    uint64_t shed_tasks = 0;
    double hbm_peak_bytes = 0;
    double hbm_peak_bw = 0;

    /** Generator call logs of stream A and (two-stream queries) B. */
    std::vector<GenCall> calls_a;
    std::vector<GenCall> calls_b;

    /** Task spans by operator name (traced runs only). */
    std::map<std::string, OpTotals> ops;

    /** Span id of the step loop (when spans were recorded). */
    int32_t loop_span = -1;
};

/** Build, run to drain and measure one pipeline. */
EngineRun runEngine(const EngineWorkload &w, const RunOptions &opt);

/** Host seconds to construct one run's engine, pipeline and sources. */
double measureSetup(const EngineWorkload &w, unsigned pool_width);

/** Task spans per operator name ("task" = ingest) of a traced run. */
std::map<std::string, OpTotals> taskTotals(const obs::Telemetry &tele);

/**
 * Check @p run against the reference recomputed from its generator
 * call log. Returns the input records of windows whose output
 * mismatches (0 = all match); mismatches are also noted in @p rep.
 */
uint64_t checkAgainstReference(const EngineWorkload &w, const EngineRun &run,
                               Report &rep);

/**
 * Fidelity: run queries::runQuery on the same config and check that
 * this benchmark's drive loop reproduced its simulated result.
 */
void checkFidelity(const EngineWorkload &w, const EngineRun &run,
                   Report &rep);

/**
 * Regenerates one stream's bundles, in order, from its call log and a
 * fresh copy of the query's generator: exactly the records the
 * engine saw.
 */
class BundleCursor
{
  public:
    BundleCursor(ingest::Generator &gen, mem::HybridMemory &hm,
                 const std::vector<GenCall> &calls)
        : gen_(gen), hm_(hm), calls_(calls)
    {
    }

    /** Next fill call, or nullptr at the end (skips are applied). */
    const GenCall *
    peek()
    {
        while (i_ < calls_.size() && calls_[i_].skip)
            gen_.skipRecords(calls_[i_++].n);
        return i_ < calls_.size() ? &calls_[i_] : nullptr;
    }

    /** Generate the bundle of the call peek() returned. */
    columnar::BundleHandle
    take()
    {
        const GenCall &c = *peek();
        ++i_;
        auto b = columnar::BundleHandle::adopt(
            columnar::Bundle::create(hm_, gen_.cols(), c.n));
        gen_.fill(*b, c.n, c.t0, c.t1);
        return b;
    }

  private:
    ingest::Generator &gen_;
    mem::HybridMemory &hm_;
    const std::vector<GenCall> &calls_;
    size_t i_ = 0;
};

} // namespace sbhbm::perfbench

#endif // PERFBENCH_ENGINE_WORKLOAD_H
