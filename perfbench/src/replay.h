/**
 * @file
 * Kernel replay: the kpa layer's host cost, attributed by re-running
 * the kernels a workload's operators call (extract, keySwap,
 * partitionByRange, sortKpa, merge, selectFromBundle,
 * updateKeysViaTable, join) on that workload's own bundles, outside
 * the engine, each call timed as a span named "kpa.<kernel>".
 *
 * The engine's operators cannot be timed in place without
 * instrumenting the engine, so the replay is the kpa layer's
 * attribution; kpa.replay_coverage reports how much of the measured
 * host time it explains.
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <cstdint>

#include "engine_workload.h"
#include "harness.h"
#include "serve/load_driver.h"

namespace sbhbm::perfbench {

/** Work the replayed kernels did (their time is in the spans). */
struct ReplayCounts
{
    uint64_t extract_recs = 0;
    uint64_t partition_entries = 0;
    uint64_t sort_entries = 0;
    uint64_t merge_entries = 0; //!< output entries of every merge
    uint64_t select_recs = 0;
    uint64_t probe_keys = 0;
    uint64_t join_out_rows = 0;
};

/** Span names of the replayed kernels. */
inline constexpr const char *kReplayKernels[] = {
    "kpa.extract",        "kpa.keySwap",          "kpa.partitionByRange",
    "kpa.sortKpa",        "kpa.merge",            "kpa.selectFromBundle",
    "kpa.updateKeysViaTable", "kpa.writeBackKeys", "kpa.join",
};

/** Replay an engine workload's kernels on the bundles of @p run. */
ReplayCounts replayEngine(const EngineWorkload &w, const EngineRun &run,
                          SpanLog &spans, int32_t parent);

/** Replay the fleet sessions' kernels at their bundle size. */
ReplayCounts replayFleet(const std::vector<serve::TenantSpec> &fleet,
                         SimTime window_ns, SpanLog &spans, int32_t parent);

} // namespace sbhbm::perfbench

#endif // PERFBENCH_REPLAY_H
