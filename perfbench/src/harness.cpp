/**
 * @file
 * Process probes for the benchmark (see harness.h).
 */

#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <thread>

namespace sbhbm::perfbench {

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

uint64_t
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_minflt);
}

unsigned
nprocs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

} // namespace sbhbm::perfbench
