/**
 * @file
 * Shared pieces of the host-time benchmark: the host clock, the
 * in-memory span log, order statistics, the metric set a run reports,
 * and small process probes (peak RSS, minor faults, nproc).
 *
 * Spans are recorded only from the benchmark's own code, around calls
 * into the engine's public functions; nothing inside the engine is
 * instrumented.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sbhbm::perfbench {

/** Host nanoseconds since an arbitrary process-wide epoch. */
inline int64_t
hostNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

/** One host-time span: [start, end) with the span that caused it. */
struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1; //!< index into the log, -1 = root
};

/** Append-only span recorder, written out when the benchmark ends. */
class SpanLog
{
  public:
    /** Open a span; close it with end(). */
    int32_t
    begin(std::string name, int32_t parent = -1)
    {
        spans_.push_back(Span{std::move(name), hostNs(), 0, parent});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    void
    end(int32_t id)
    {
        spans_[static_cast<size_t>(id)].end_ns = hostNs();
    }

    /** Record an already-timed span. */
    int32_t
    add(std::string name, int64_t start, int64_t end, int32_t parent)
    {
        spans_.push_back(Span{std::move(name), start, end, parent});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Total duration of spans named @p name (ns). */
    int64_t
    totalNs(const std::string &name) const
    {
        int64_t sum = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                sum += s.end_ns - s.start_ns;
        return sum;
    }

    /** Total duration of spans named @p name under @p parent (ns). */
    int64_t
    childNs(int32_t parent, const std::string &name) const
    {
        int64_t sum = 0;
        for (const Span &s : spans_)
            if (s.parent == parent && s.name == name)
                sum += s.end_ns - s.start_ns;
        return sum;
    }

  private:
    std::vector<Span> spans_;
};

/** RAII span: begins on construction, ends on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string name, int32_t parent = -1)
        : log_(log), id_(log != nullptr ? log->begin(std::move(name), parent)
                                        : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int32_t id() const { return id_; }

  private:
    SpanLog *log_;
    int32_t id_;
};

/**
 * Quantile with linear interpolation between closest ranks (the
 * numpy/Python "inclusive" default); @p q in [0, 1].
 */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Host time per externalized window: @p k windows externalized
 * @p host_ns after the previous externalization share that time
 * equally, so a step that closes several windows at once yields k
 * samples rather than one long gap and k - 1 zeros.
 */
inline void
addWindowSamples(std::vector<double> &ms, int64_t host_ns, uint64_t k)
{
    const double per = static_cast<double>(host_ns) / 1e6
                       / static_cast<double>(k);
    ms.insert(ms.end(), k, per);
}

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * What one invocation reports: the metrics (end-to-end or per-layer),
 * records offered and failed, whether every check passed, and notes
 * (why a metric is absent on this workload, what a check found).
 */
struct Report
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> notes;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }

    /** A metric that does not apply to this workload: 0 plus a note. */
    void
    absent(const std::string &name, const std::string &unit,
           const std::string &why)
    {
        metrics.push_back(Metric{name, 0.0, unit});
        notes.push_back(name + " absent: " + why);
    }

    /** Record a failed check; the invocation exits non-zero. */
    void
    fail(const std::string &what)
    {
        correct = false;
        if (++failed_checks <= kMaxFailureNotes)
            notes.push_back("CHECK FAILED: " + what);
        else if (failed_checks == kMaxFailureNotes + 1)
            notes.push_back("CHECK FAILED: (further failures not listed)");
    }

    static constexpr uint64_t kMaxFailureNotes = 10;
    uint64_t failed_checks = 0;
};

/** Process peak resident set size, MiB (getrusage ru_maxrss). */
double peakRssMb();

/** Minor page faults of this process so far. */
uint64_t minorFaults();

/** CPUs this process may run on (what `nproc` prints). */
unsigned nprocs();

} // namespace sbhbm::perfbench

#endif // PERFBENCH_HARNESS_H
