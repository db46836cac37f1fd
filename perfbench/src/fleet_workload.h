/**
 * @file
 * The serving workload (fleet): serve::Server running a hot/cold
 * tenant fleet on sharded engines, arrivals open-loop with Poisson
 * bundle gaps. Server::run() owns its step loop, so progress is
 * observed from a daemon tick the benchmark schedules on the
 * control-plane shard's machine.
 */

#ifndef PERFBENCH_FLEET_WORKLOAD_H
#define PERFBENCH_FLEET_WORKLOAD_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine_workload.h"
#include "harness.h"
#include "serve/load_driver.h"

namespace sbhbm::perfbench {

/** Tenants, shards and per-shard kernel pool width of the fleet. */
constexpr uint32_t kFleetTenants = 256;
constexpr uint32_t kFleetShards = 4;
constexpr unsigned kFleetPoolWidth = 1;

/** The fleet's shape, drawn from @p seed. */
serve::FleetConfig fleetConfig(uint64_t seed);

/**
 * The fleet's sessions. Event time is logical (a pure function of
 * stream position), so each session's per-window output is the same
 * at any shard count and the 1-shard run is a reference.
 */
std::vector<serve::TenantSpec> fleetSpecs(uint64_t seed);

/** Serving configuration at @p shards shards. */
serve::ServeConfig fleetServeConfig(uint32_t shards);

/** Everything one fleet run measured. */
struct FleetRun
{
    double host_s = 0; //!< Server::run()

    /** Host ms per externalized window, fleet-wide (see the tick). */
    std::vector<double> window_ms;

    double sim_mrps = 0; //!< Server::aggregateMrps()

    uint64_t offered = 0;
    uint64_t ingested = 0;
    uint64_t shed = 0;
    uint64_t unserved = 0; //!< records of rejected or lost tenants
    uint64_t unconserved = 0; //!< records of tenants whose books do not close

    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t migrations = 0;
    uint64_t windows = 0;
    uint64_t output_records = 0;
    double ingest_wait_ns = 0; //!< SLA-attributed ingest wait, all tenants

    /** Records each admitted tenant was offered. */
    std::map<uint32_t, uint64_t> tenant_offered;

    /** Per-tenant exactly-once output: window -> records / checksum. */
    std::map<uint32_t, std::map<columnar::WindowId, uint64_t>> records;
    std::map<uint32_t, std::map<columnar::WindowId, uint64_t>> checksums;

    uint64_t tasks = 0;
    uint64_t queue_wait_ns = 0;
    uint64_t shed_tasks = 0;
    double hbm_peak_bytes = 0; //!< max over shards
    double hbm_peak_bw = 0;    //!< max over shards
    std::vector<uint64_t> shard_records;

    std::map<std::string, OpTotals> ops; //!< traced runs only
};

/**
 * One fleet run at @p shards shards. @p tick schedules the daemon
 * that samples fleet-wide window externalizations (off for the
 * uninstrumented fidelity run).
 */
FleetRun runFleet(uint64_t seed, uint32_t shards, bool tick,
                  const RunOptions &opt);

/** Host seconds to construct the server and generate the fleet. */
double measureFleetSetup(uint64_t seed, uint32_t shards);

/**
 * Reference and fidelity for the fleet: per-tenant window outputs of
 * @p run must equal those of @p ref (the same fleet on one shard, or
 * with no benchmark tick), and every tenant's books must close.
 * Returns the records of tenants whose outputs differ.
 */
uint64_t checkFleet(const FleetRun &run, const FleetRun &ref,
                    const std::string &what, Report &rep);

} // namespace sbhbm::perfbench

#endif // PERFBENCH_FLEET_WORKLOAD_H
