/**
 * @file
 * Keyed Aggregation operators (Table 1 / Fig 4a) and the aggregator
 * library backing benchmarks 1-6 of §6: TopK / Sum / Median / Average
 * / Count / UniqueCount / Percentile per key.
 *
 * An Aggregation visits each key run of the window's fully-sorted KPA
 * and appends output rows; the operator charges the Table 2 "Keyed"
 * reduction costs (sequential KPA scan, random value-column loads,
 * output emission).
 *
 * Memory control plane: the sorted runs a KeyedAggOp accumulates per
 * window are exactly the long-lived HBM state the pressure director
 * targets — the SortedRunsOp base exposes every run beyond the target
 * watermark's window through Operator::coldState(), so under HBM
 * capacity pressure cold aggregation state is demoted to DRAM while
 * the window about to close keeps its HBM residency.
 */

#ifndef SBHBM_PIPELINE_AGGREGATIONS_H
#define SBHBM_PIPELINE_AGGREGATIONS_H

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "pipeline/sorted_runs_op.h"

namespace sbhbm::pipeline {

/** Collects fixed-arity output rows before bundling them. */
class RowSink
{
  public:
    explicit RowSink(uint32_t cols) : cols_(cols) {}

    /** Append one row; @p row must have cols() values. */
    void
    push(std::initializer_list<uint64_t> row)
    {
        sbhbm_assert(row.size() == cols_, "row arity %zu vs %u",
                     row.size(), cols_);
        flat_.insert(flat_.end(), row.begin(), row.end());
    }

    uint32_t cols() const { return cols_; }
    uint64_t rows() const { return flat_.size() / cols_; }

    /** Materialize the rows as a DRAM bundle (empty -> null handle). */
    BundleHandle
    toBundle(mem::HybridMemory &hm) const
    {
        if (flat_.empty())
            return BundleHandle{};
        auto *b = columnar::Bundle::create(
            hm, cols_, static_cast<uint32_t>(rows()));
        for (size_t i = 0; i < flat_.size(); i += cols_)
            b->append(&flat_[i]);
        return BundleHandle::adopt(b);
    }

  private:
    uint32_t cols_;
    std::vector<uint64_t> flat_;
};

/** One keyed aggregation: schema plus per-key-run reduction. */
struct Aggregation
{
    /** Output columns (key is column 0). */
    uint32_t out_cols = 2;

    /** Does the reduction dereference record values? */
    bool touches_values = true;

    /** Extra scalar CPU per input value (e.g. per-key value sorts). */
    double extra_cpu_per_value = 0.0;

    /** Visit one key run; append output rows to the sink. */
    std::function<void(uint64_t key, const kpa::KpEntry *run, size_t n,
                       RowSink &sink)>
        per_key;
};

namespace aggs {

/** Gather the value column of a key run into @p out. */
inline void
gatherValues(const kpa::KpEntry *run, size_t n, columnar::ColumnId col,
             std::vector<uint64_t> &out)
{
    out.clear();
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(run[i].row[col]);
}

/** Windowed Sum Per Key (benchmark 2): emits (key, sum). */
inline Aggregation
sumPerKey(columnar::ColumnId value_col)
{
    Aggregation a;
    a.out_cols = 2;
    a.per_key = [value_col](uint64_t key, const kpa::KpEntry *run,
                            size_t n, RowSink &sink) {
        uint64_t sum = 0;
        for (size_t i = 0; i < n; ++i)
            sum += run[i].row[value_col];
        sink.push({key, sum});
    };
    return a;
}

/** Count Per Key: emits (key, count); touches no values. */
inline Aggregation
countPerKey()
{
    Aggregation a;
    a.out_cols = 2;
    a.touches_values = false;
    a.per_key = [](uint64_t key, const kpa::KpEntry *, size_t n,
                   RowSink &sink) { sink.push({key, n}); };
    return a;
}

/** Windowed Average Per Key (benchmark 4): emits (key, floor(avg)). */
inline Aggregation
avgPerKey(columnar::ColumnId value_col)
{
    Aggregation a;
    a.out_cols = 2;
    a.per_key = [value_col](uint64_t key, const kpa::KpEntry *run,
                            size_t n, RowSink &sink) {
        uint64_t sum = 0;
        for (size_t i = 0; i < n; ++i)
            sum += run[i].row[value_col];
        sink.push({key, n > 0 ? sum / n : 0});
    };
    return a;
}

/** Windowed Median Per Key (benchmark 3): emits (key, median). */
inline Aggregation
medianPerKey(columnar::ColumnId value_col)
{
    Aggregation a;
    a.out_cols = 2;
    a.extra_cpu_per_value = 800.0; // per-key nth_element, branchy scalar
    a.per_key = [value_col](uint64_t key, const kpa::KpEntry *run,
                            size_t n, RowSink &sink) {
        std::vector<uint64_t> vals;
        gatherValues(run, n, value_col, vals);
        const size_t mid = vals.size() / 2;
        std::nth_element(vals.begin(), vals.begin() + mid, vals.end());
        sink.push({key, vals[mid]});
    };
    return a;
}

/**
 * TopK Per Key (benchmark 1): emits (key, value) rows for the K
 * largest values of each key, descending.
 */
inline Aggregation
topKPerKey(columnar::ColumnId value_col, size_t k)
{
    Aggregation a;
    a.out_cols = 2;
    a.extra_cpu_per_value = 800.0; // per-key partial sort + K-fold output
    a.per_key = [value_col, k](uint64_t key, const kpa::KpEntry *run,
                               size_t n, RowSink &sink) {
        std::vector<uint64_t> vals;
        gatherValues(run, n, value_col, vals);
        const size_t keep = std::min(k, vals.size());
        std::partial_sort(vals.begin(), vals.begin() + keep, vals.end(),
                          std::greater<>());
        for (size_t i = 0; i < keep; ++i)
            sink.push({key, vals[i]});
    };
    return a;
}

/** Unique Count Per Key (benchmark 6): emits (key, distinct values). */
inline Aggregation
uniqueCountPerKey(columnar::ColumnId value_col)
{
    Aggregation a;
    a.out_cols = 2;
    a.extra_cpu_per_value = 100.0; // per-key value sort + unique
    a.per_key = [value_col](uint64_t key, const kpa::KpEntry *run,
                            size_t n, RowSink &sink) {
        std::vector<uint64_t> vals;
        gatherValues(run, n, value_col, vals);
        std::sort(vals.begin(), vals.end());
        const auto uniq = std::unique(vals.begin(), vals.end());
        sink.push({key,
                   static_cast<uint64_t>(uniq - vals.begin())});
    };
    return a;
}

/** PercentileByKey: emits (key, p-th percentile of values). */
inline Aggregation
percentilePerKey(columnar::ColumnId value_col, double p)
{
    Aggregation a;
    a.out_cols = 2;
    a.extra_cpu_per_value = 800.0;
    a.per_key = [value_col, p](uint64_t key, const kpa::KpEntry *run,
                               size_t n, RowSink &sink) {
        std::vector<uint64_t> vals;
        gatherValues(run, n, value_col, vals);
        const auto rank = static_cast<size_t>(
            p / 100.0 * static_cast<double>(vals.size() - 1) + 0.5);
        std::nth_element(vals.begin(), vals.begin() + rank, vals.end());
        sink.push({key, vals[rank]});
    };
    return a;
}

} // namespace aggs

/**
 * Keyed Aggregation operator: sorted-run accumulation (base class)
 * plus a per-key reduction at window close.
 */
class KeyedAggOp : public SortedRunsOp
{
  public:
    KeyedAggOp(Pipeline &pipe, std::string name,
               columnar::ColumnId key_col, Aggregation agg)
        : SortedRunsOp(pipe, std::move(name), key_col),
          agg_(std::move(agg))
    {
    }

  protected:
    void
    reduceWindow(columnar::WindowId w, const kpa::Kpa &merged,
                 uint32_t lo, uint32_t hi, sim::CostLog &log,
                 Emitter &em) override
    {
        auto ctx = makeCtx(log, merged.recordCols());
        RowSink sink(agg_.out_cols);
        kpa::forEachKeyRunRange(
            merged, lo, hi,
            [&](uint64_t key, const kpa::KpEntry *run, size_t n) {
                agg_.per_key(key, run, n, sink);
            });
        const uint64_t scanned = hi - lo;
        kpa::chargeKeyedReduceRange(ctx, merged, scanned,
                                    agg_.touches_values ? scanned : 0,
                                    sink.rows(), agg_.out_cols);
        log.cpu(agg_.extra_cpu_per_value * static_cast<double>(scanned));

        BundleHandle out = sink.toBundle(eng_.memory());
        if (out) {
            em.push(Msg::ofBundle(std::move(out),
                                  pipe_.windows().start(w))
                        .withWindow(w));
        }
    }

  private:
    Aggregation agg_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_AGGREGATIONS_H
