/**
 * @file
 * The KPA streaming primitives of Table 2.
 *
 * Every primitive does its work functionally on host data *and*
 * charges the simulated cost of the same work to a CostLog:
 *
 *   | primitive    | access pattern charged                        |
 *   |--------------|-----------------------------------------------|
 *   | Extract      | seq read bundle, seq write KPA                |
 *   | Materialize  | seq read KPA, random read records, seq write  |
 *   | KeySwap      | seq r/w KPA, random read records              |
 *   | Sort         | seq r/w KPA per merge pass                    |
 *   | Merge        | seq read both KPAs, seq write output          |
 *   | Join         | seq read both KPAs, random read matches, emit |
 *   | Select       | seq read input, seq write survivors           |
 *   | Partition    | seq read KPA, seq write partitions            |
 *   | Reduce keyed | seq read KPA, random read value columns, emit |
 *   | Reduce unkeyed | seq read bundle, emit                       |
 *
 * All primitives allocate outputs through HybridMemory so placement,
 * capacity pressure and memory-mode translation apply uniformly.
 */

#ifndef SBHBM_KPA_PRIMITIVES_H
#define SBHBM_KPA_PRIMITIVES_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "algo/hash_table.h"
#include "algo/sort.h"
#include "common/fast_divide.h"
#include "columnar/bundle.h"
#include "common/logging.h"
#include "common/worker_pool.h"
#include "kpa/kpa.h"
#include "mem/hybrid_memory.h"
#include "sim/cost_model.h"
#include "sim/traffic.h"

namespace sbhbm::kpa {

namespace cost = sim::cost;
using sim::AccessPattern;

/** Execution context every primitive charges against. */
struct Ctx
{
    mem::HybridMemory &hm;
    sim::CostLog &log;

    /**
     * Traffic multiplier applied to KPA-side bytes in grouping
     * primitives. 1.0 for real KPAs (16-byte pairs). The NoKPA
     * ablation (paper §7.3, "StreamBox-HBM Caching NoKPA") groups
     * full records instead: every sort/merge pass moves whole rows,
     * so the engine sets this to record_bytes / 16.
     */
    double group_scale = 1.0;

    /**
     * Host fork-join pool for the wall-clock of heavy kernels
     * (sortKpa's merge rounds, large merges). Optional: nullptr (or a
     * 1-thread pool) runs the serial code paths. Parallel and serial
     * paths produce bit-identical entries and identical charges, so
     * this never changes simulated results.
     */
    WorkerPool *pool = nullptr;

    /** Scale KPA-side traffic by group_scale. */
    uint64_t
    scaled(uint64_t kpa_bytes) const
    {
        return static_cast<uint64_t>(static_cast<double>(kpa_bytes)
                                     * group_scale);
    }

    /**
     * Charge grouping-kernel time: vectorized on 16-byte pairs; when
     * grouping full records (NoKPA) the kernels degrade to scalar
     * tuple moves, slower by the tuple width and the generic-tuple
     * factor.
     */
    void
    kernel(double vector_ns) const
    {
        if (group_scale == 1.0) {
            log.cpuVector(vector_ns);
        } else {
            log.cpu(vector_ns * group_scale
                    * cost::kGenericTupleFactor);
        }
    }

    /** Propagate the grouping-state scale into a placement. */
    Placement
    place(Placement p) const
    {
        p.entry_scale = group_scale;
        return p;
    }
};

/** Bytes a random access to one full record touches (>= one line). */
inline uint64_t
rowTouchBytes(uint32_t cols)
{
    return std::max<uint64_t>(cost::kLineBytes,
                              uint64_t{cols} * sizeof(uint64_t));
}

namespace detail {

/**
 * Entries the batched random-dereference loops look ahead (Cimple-style
 * software pipelining): far enough to overlap several DRAM round trips,
 * close enough that the prefetched lines survive in L1/L2.
 */
constexpr uint32_t kPrefetchAhead = 16;

/**
 * Entries below which partitionByRange's count/fill passes stay
 * serial: forking the host pool costs more than the passes save.
 */
constexpr uint32_t kPartitionParallelMin = 1u << 16;

/** Prefetch hint for a row about to be dereferenced (no-op elsewhere). */
inline void
prefetchRow(const uint64_t *row)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(row);
#else
    (void)row;
#endif
}

/** @return true when @p cols is a nonempty run c, c+1, c+2, ... */
inline bool
isContiguousRun(const std::vector<ColumnId> &cols)
{
    for (size_t i = 1; i < cols.size(); ++i)
        if (cols[i] != cols[i - 1] + 1)
            return false;
    return !cols.empty();
}

/**
 * Two-pointer scan over two sorted KPAs, shared by both join passes
 * so the counted match total and the emitted rows can never disagree.
 * Calls step(i, j) every iteration (prefetch hook) and
 * run(key, i, i_end, j, j_end) for every matching key run.
 */
template <typename StepFn, typename RunFn>
inline void
mergeScanKeyRuns(const KpEntry *le, uint32_t ln, const KpEntry *re,
                 uint32_t rn, StepFn &&step, RunFn &&run)
{
    for (uint32_t i = 0, j = 0; i < ln && j < rn;) {
        step(i, j);
        if (le[i].key < re[j].key) {
            ++i;
        } else if (re[j].key < le[i].key) {
            ++j;
        } else {
            const uint64_t key = le[i].key;
            uint32_t i_end = i + 1;
            while (i_end < ln && le[i_end].key == key)
                ++i_end;
            uint32_t j_end = j + 1;
            while (j_end < rn && re[j_end].key == key)
                ++j_end;
            run(key, i, i_end, j, j_end);
            i = i_end;
            j = j_end;
        }
    }
}

/**
 * Growable open-addressing map from a range id to a dense index in
 * first-appearance order. Backs the single hash pass of
 * partitionByRange; distinct ranges are few (windows), so this stays
 * a handful of cache lines.
 */
class RangeIndex
{
  public:
    RangeIndex() : slots_(64), mask_(63) {}

    /** @return dense index of @p rg, assigning the next one if new. */
    uint32_t
    findOrAssign(uint64_t rg)
    {
        for (;;) {
            size_t idx = algo::hashKey(rg) & mask_;
            while (slots_[idx].used) {
                if (slots_[idx].rg == rg)
                    return slots_[idx].index;
                idx = (idx + 1) & mask_;
            }
            if ((uint64_t{size_} + 1) * 8 > slots_.size() * 7) {
                grow();
                continue; // re-probe in the grown table
            }
            slots_[idx] = Slot{rg, size_, true};
            return size_++;
        }
    }

    uint32_t size() const { return size_; }

  private:
    struct Slot
    {
        uint64_t rg = 0;
        uint32_t index = 0;
        bool used = false;
    };

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        mask_ = slots_.size() - 1;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            size_t idx = algo::hashKey(s.rg) & mask_;
            while (slots_[idx].used)
                idx = (idx + 1) & mask_;
            slots_[idx] = s;
        }
    }

    std::vector<Slot> slots_;
    size_t mask_;
    uint32_t size_ = 0;
};

} // namespace detail

// -------------------------------------------------------------------
// Maintenance primitives
// -------------------------------------------------------------------

/**
 * Extract (Table 2): create a new KPA from a record bundle, copying
 * column @p key_col and synthesizing record pointers.
 */
inline KpaPtr
extract(Ctx ctx, Bundle &src, ColumnId key_col, Placement place)
{
    sbhbm_assert(key_col < src.cols(), "key column %u out of %u", key_col,
                 src.cols());
    const uint32_t n = src.size();
    const uint32_t cols = src.cols();
    KpaPtr out = Kpa::create(ctx.hm, n, ctx.place(place));
    // Single streaming pass: walk the row-major data directly instead
    // of paying row()'s bounds check and push()'s overflow branch per
    // record.
    KpEntry *dst = out->appendCursor();
    uint64_t *row = src.data();
    for (uint32_t r = 0; r < n; ++r, row += cols)
        dst[r] = KpEntry{row[key_col], row};
    out->commitAppend(n);
    out->setResidentColumn(key_col);
    out->setSorted(src.size() <= 1);
    out->addSource(&src);

    ctx.hm.charge(ctx.log, src.tier(), AccessPattern::kSequential,
                  src.dataBytes());
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  ctx.scaled(out->bytes()));
    ctx.kernel(cost::kExtractNsPerRec * src.size());
    return out;
}

/**
 * KeySwap (Table 2): replace the resident keys with nonresident
 * column @p new_col, dereferencing each record pointer (random).
 */
inline void
keySwap(Ctx ctx, Kpa &k, ColumnId new_col)
{
    if (k.residentColumn() == new_col)
        return;
    KpEntry *e = k.entries();
    const uint32_t n = k.size();
    // Batched pointer chasing: issue the random row loads well ahead
    // of their use so several DRAM misses are in flight at once.
    for (uint32_t i = 0; i < n; ++i) {
        if (i + detail::kPrefetchAhead < n)
            detail::prefetchRow(e[i + detail::kPrefetchAhead].row
                                + new_col);
        e[i].key = e[i].row[new_col];
    }
    k.setResidentColumn(new_col);
    k.setSorted(k.size() <= 1);

    const uint32_t cols = k.empty() ? 0 : k.recordCols();
    ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                  uint64_t{k.size()} * rowTouchBytes(cols));
    ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                  ctx.scaled(k.bytes()));
    ctx.kernel(cost::kSwapNsPerRec * k.size());
}

/**
 * Materialize (Table 2): emit a bundle of full records in KPA order.
 */
inline BundleHandle
materialize(Ctx ctx, const Kpa &k)
{
    sbhbm_assert(!k.empty(), "materializing an empty KPA");
    const uint32_t cols = k.recordCols();
    const uint32_t n = k.size();
    Bundle *out = Bundle::create(ctx.hm, cols, n);
    const KpEntry *e = k.entries();
    // Bulk-reserve the output once, then copy whole rows with the
    // random source reads prefetched a batch ahead.
    const uint64_t row_bytes = uint64_t{cols} * sizeof(uint64_t);
    uint64_t *dst = out->appendBlockRaw(n);
    for (uint32_t i = 0; i < n; ++i, dst += cols) {
        if (i + detail::kPrefetchAhead < n)
            detail::prefetchRow(e[i + detail::kPrefetchAhead].row);
        std::memcpy(dst, e[i].row, row_bytes);
    }

    ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                  k.bytes());
    ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                  uint64_t{k.size()} * rowTouchBytes(cols));
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  out->dataBytes());
    ctx.kernel(cost::kSwapNsPerRec * k.size());
    return BundleHandle::adopt(out);
}

/**
 * Rewrite resident keys in place (e.g. the external join of YSB maps
 * ad_id -> campaign_id without touching full records).
 */
template <typename KeyFn>
inline void
updateKeysInPlace(Ctx ctx, Kpa &k, KeyFn &&fn)
{
    KpEntry *e = k.entries();
    for (uint32_t i = 0; i < k.size(); ++i)
        e[i].key = fn(e[i].key);
    k.setResidentColumn(columnar::kNoColumn); // keys no longer mirror a column
    k.setSorted(k.size() <= 1);
    ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                  ctx.scaled(k.bytes()));
    ctx.kernel(cost::kSwapNsPerRec * k.size());
}

/**
 * updateKeysInPlace specialized to an external key-value table:
 * every resident key is replaced by table[key] (or kept when
 * absent).
 */
inline void
updateKeysViaTable(Ctx ctx, Kpa &k, algo::HashTable<uint64_t> &table)
{
    updateKeysInPlace(ctx, k, [&table](uint64_t key) {
        const uint64_t *v = table.find(key);
        return v != nullptr ? *v : key;
    });
}

/**
 * Write the (possibly dirty) resident keys back to record column
 * @p col (paper §4.3 optimization 2).
 */
inline void
writeBackKeys(Ctx ctx, Kpa &k, ColumnId col)
{
    KpEntry *e = k.entries();
    for (uint32_t i = 0; i < k.size(); ++i)
        e[i].row[col] = e[i].key;
    k.setResidentColumn(col);
    const uint32_t cols = k.empty() ? 0 : k.recordCols();
    ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                  uint64_t{k.size()} * rowTouchBytes(cols));
    ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                  ctx.scaled(k.bytes()));
    ctx.kernel(cost::kSwapNsPerRec * k.size());
}

// -------------------------------------------------------------------
// Grouping primitives
// -------------------------------------------------------------------

/**
 * Sort (Table 2): merge-sort the KPA by resident key in place.
 * Bitonic block sort plus bottom-up merge passes, all sequential.
 */
inline void
sortKpa(Ctx ctx, Kpa &k)
{
    if (k.sorted())
        return;
    const size_t n = k.size();
    if (n > 1) {
        // Skip the scratch allocation and the sort when the entries
        // are already ordered (timestamp-extracted KPAs from in-order
        // streams). The simulated machine still sorts — the charges
        // below depend only on n, never on the host path. This scan
        // is the only presorted check: the sort below skips its own.
        if (!algo::isSortedByKey(k.entries(), n)) {
            // Scratch lives on the same tier while the sort runs.
            mem::Block scratch =
                ctx.hm.alloc(n * sizeof(KpEntry), k.tier());
            if (ctx.pool != nullptr && ctx.pool->threads() > 1) {
                algo::sortRunParallel(
                    k.entries(), n,
                    static_cast<KpEntry *>(scratch.ptr), *ctx.pool,
                    /*precheck=*/false);
            } else {
                algo::sortRun(k.entries(), n,
                              static_cast<KpEntry *>(scratch.ptr),
                              /*precheck=*/false);
            }
            ctx.hm.free(scratch);
        }

        const int levels = algo::mergeLevels(n);
        // One block-sort pass plus one pass per merge level, each
        // streaming the KPA in and out (write-allocate included).
        ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                      ctx.scaled(uint64_t(1 + levels)
                                 * cost::kSortBytesPerElemLevel * n));
        ctx.kernel(cost::kBitonicStages * cost::kBitonicNsPerElemStage
                       * static_cast<double>(n)
                   + cost::kMergeNsPerElem * static_cast<double>(n)
                         * levels);
    }
    k.setSorted(true);
}

/**
 * Merge (Table 2): merge two sorted KPAs into a new sorted KPA.
 */
inline KpaPtr
merge(Ctx ctx, const Kpa &a, const Kpa &b, Placement place)
{
    sbhbm_assert(a.sorted() && b.sorted(), "merge requires sorted inputs");
    KpaPtr out = Kpa::create(ctx.hm, a.size() + b.size(),
                             ctx.place(place));
    if (ctx.pool != nullptr && ctx.pool->threads() > 1) {
        algo::mergeRunsParallel(a.entries(), a.size(), b.entries(),
                                b.size(), out->entries(), *ctx.pool);
    } else {
        algo::mergeRuns(a.entries(), a.size(), b.entries(), b.size(),
                        out->entries());
    }
    out->setSizeUnsafe(a.size() + b.size());
    out->setSorted(true);
    out->setResidentColumn(a.residentColumn() == b.residentColumn()
                               ? a.residentColumn()
                               : columnar::kNoColumn);
    out->adoptSourcesFrom(a);
    out->adoptSourcesFrom(b);

    ctx.hm.charge(ctx.log, a.tier(), AccessPattern::kSequential,
                  ctx.scaled(a.bytes()));
    ctx.hm.charge(ctx.log, b.tier(), AccessPattern::kSequential,
                  ctx.scaled(b.bytes()));
    // Output pays write-allocate: RFO read + writeback.
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  ctx.scaled(2 * out->bytes()));
    ctx.kernel(cost::kMergeNsPerElem
               * static_cast<double>(a.size() + b.size()));
    return out;
}

/**
 * Join (Table 2): sort-merge join two sorted KPAs by resident key.
 * Emits one record per key match: {key, l payload cols, r payload
 * cols}, reading payloads through the record pointers (random).
 */
inline BundleHandle
join(Ctx ctx, const Kpa &l, const Kpa &r,
     const std::vector<ColumnId> &l_cols,
     const std::vector<ColumnId> &r_cols)
{
    sbhbm_assert(l.sorted() && r.sorted(), "join requires sorted inputs");
    const uint32_t out_cols =
        1 + static_cast<uint32_t>(l_cols.size() + r_cols.size());
    const KpEntry *le = l.entries();
    const KpEntry *re = r.entries();
    const uint32_t ln = l.size();
    const uint32_t rn = r.size();

    // Pass 1: count matches — no intermediate match buffer.
    uint64_t m_wide = 0;
    detail::mergeScanKeyRuns(
        le, ln, re, rn, [](uint32_t, uint32_t) {},
        [&m_wide](uint64_t, uint32_t i, uint32_t i_end, uint32_t j,
                  uint32_t j_end) {
            m_wide += uint64_t{i_end - i} * (j_end - j);
        });
    sbhbm_assert(m_wide <= UINT32_MAX, "join output overflows a bundle");
    const auto m = static_cast<uint32_t>(m_wide);

    // Pass 2: stream rows straight into the exactly-sized bundle.
    Bundle *out = Bundle::create(ctx.hm, out_cols,
                                 std::max<uint32_t>(m, 1));
    if (m > 0) {
        const size_t nl = l_cols.size();
        const size_t nr = r_cols.size();
        const ColumnId *lc = l_cols.data();
        const ColumnId *rc = r_cols.data();
        const bool l_run = detail::isContiguousRun(l_cols);
        const bool r_run = detail::isContiguousRun(r_cols);
        const uint64_t prefix_bytes = (1 + nl) * sizeof(uint64_t);
        uint64_t *dst = out->appendBlockRaw(m);
        detail::mergeScanKeyRuns(
            le, ln, re, rn,
            [&](uint32_t i, uint32_t j) {
                // The payload rows this scan will dereference are
                // known from the sequential KPA entries: issue their
                // random loads a batch ahead so several misses
                // overlap.
                if (nl != 0 && i + detail::kPrefetchAhead < ln)
                    detail::prefetchRow(
                        le[i + detail::kPrefetchAhead].row);
                if (nr != 0 && j + detail::kPrefetchAhead < rn)
                    detail::prefetchRow(
                        re[j + detail::kPrefetchAhead].row);
            },
            [&](uint64_t key, uint32_t i, uint32_t i_end, uint32_t j,
                uint32_t j_end) {
                for (uint32_t x = i; x < i_end; ++x) {
                    // Same rolling batch for the left run's rows.
                    if (nl != 0 && x + detail::kPrefetchAhead < i_end)
                        detail::prefetchRow(
                            le[x + detail::kPrefetchAhead].row);
                    // The {key, left payload} prefix is invariant over
                    // the right run: build it once, then replicate it
                    // with one whole-row memcpy per emitted record.
                    const uint64_t *lrow = le[x].row;
                    const uint64_t *first = dst;
                    dst[0] = key;
                    if (l_run) {
                        std::memcpy(dst + 1, lrow + lc[0],
                                    nl * sizeof(uint64_t));
                    } else {
                        for (size_t c = 0; c < nl; ++c)
                            dst[1 + c] = lrow[lc[c]];
                    }
                    for (uint32_t y = j; y < j_end; ++y) {
                        // Probe-side batching inside long duplicate
                        // runs: the scan hook covers rows only up to
                        // kPrefetchAhead past the scan position, so
                        // the first sweep over a longer right run
                        // would miss serially. Keep a rolling batch
                        // of in-flight row loads during that first
                        // sweep; later sweeps re-touch cached lines.
                        if (x == i && nr != 0
                            && y + detail::kPrefetchAhead < j_end)
                            detail::prefetchRow(
                                re[y + detail::kPrefetchAhead].row);
                        if (dst != first)
                            std::memcpy(dst, first, prefix_bytes);
                        const uint64_t *rrow = re[y].row;
                        if (r_run) {
                            std::memcpy(dst + 1 + nl, rrow + rc[0],
                                        nr * sizeof(uint64_t));
                        } else {
                            for (size_t c = 0; c < nr; ++c)
                                dst[1 + nl + c] = rrow[rc[c]];
                        }
                        dst += out_cols;
                    }
                }
            });
    }

    ctx.hm.charge(ctx.log, l.tier(), AccessPattern::kSequential,
                  ctx.scaled(l.bytes()));
    ctx.hm.charge(ctx.log, r.tier(), AccessPattern::kSequential,
                  ctx.scaled(r.bytes()));
    if (m > 0) {
        const uint32_t lrec = l_cols.empty() ? 0 : l.recordCols();
        const uint32_t rrec = r_cols.empty() ? 0 : r.recordCols();
        uint64_t touch = 0;
        if (!l_cols.empty())
            touch += uint64_t{m} * rowTouchBytes(lrec);
        if (!r_cols.empty())
            touch += uint64_t{m} * rowTouchBytes(rrec);
        ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                      touch);
        ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                      out->dataBytes());
    }
    ctx.log.cpuVector(cost::kMergeNsPerElem
                      * static_cast<double>(l.size() + r.size()));
    ctx.log.cpu(cost::kEmitNsPerRec * m);
    return BundleHandle::adopt(out);
}

/**
 * Select (Table 2): subset a bundle as a KPA with surviving
 * key/pointer pairs, evaluating @p pred over full record rows.
 */
template <typename Pred>
inline KpaPtr
selectFromBundle(Ctx ctx, Bundle &src, ColumnId key_col, Pred &&pred,
                 Placement place)
{
    // Capacity clamps to 1 on empty bundles (matching selectFromKpa)
    // so the output KPA is always usable for later appends.
    const uint32_t n = src.size();
    const uint32_t cols = src.cols();
    KpaPtr out = Kpa::create(ctx.hm, std::max<uint32_t>(n, 1),
                             ctx.place(place));
    KpEntry *dst = out->appendCursor();
    uint32_t kept = 0;
    uint64_t *row = src.data();
    for (uint32_t r = 0; r < n; ++r, row += cols) {
        if (pred(row))
            dst[kept++] = KpEntry{row[key_col], row};
    }
    out->commitAppend(kept);
    out->setResidentColumn(key_col);
    out->setSorted(out->size() <= 1);
    out->addSource(&src);

    ctx.hm.charge(ctx.log, src.tier(), AccessPattern::kSequential,
                  src.dataBytes());
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  ctx.scaled(out->bytes()));
    ctx.kernel(cost::kSelectNsPerRec * src.size());
    return out;
}

/** Select over an existing KPA, filtering on the resident key. */
template <typename Pred>
inline KpaPtr
selectFromKpa(Ctx ctx, const Kpa &src, Pred &&pred, Placement place)
{
    const uint32_t n = src.size();
    KpaPtr out = Kpa::create(ctx.hm, std::max<uint32_t>(n, 1),
                             ctx.place(place));
    const KpEntry *e = src.entries();
    KpEntry *dst = out->appendCursor();
    uint32_t kept = 0;
    for (uint32_t i = 0; i < n; ++i)
        if (pred(e[i].key))
            dst[kept++] = e[i];
    out->commitAppend(kept);
    out->setResidentColumn(src.residentColumn());
    out->setSorted(src.sorted());
    out->adoptSourcesFrom(src);

    ctx.hm.charge(ctx.log, src.tier(), AccessPattern::kSequential,
                  ctx.scaled(src.bytes()));
    ctx.hm.charge(ctx.log, out->tier(), AccessPattern::kSequential,
                  ctx.scaled(out->bytes()));
    ctx.kernel(cost::kSelectNsPerRec * src.size());
    return out;
}

/** One output partition of partitionByRange. */
struct RangePartition
{
    uint64_t range = 0; //!< key / range_width
    KpaPtr part;
};

/**
 * Partition (Table 2): split a KPA by ranges of resident keys
 * (windowing uses the timestamp column as key and the window length
 * as range width). Outputs inherit the input's source links.
 */
inline std::vector<RangePartition>
partitionByRange(Ctx ctx, const Kpa &src, uint64_t range_width,
                 Placement place)
{
    sbhbm_assert(range_width > 0, "zero partition width");
    const KpEntry *e = src.entries();
    const uint32_t n = src.size();
    std::vector<RangePartition> out;

    auto makePartition = [&](uint64_t rg, uint32_t len) {
        RangePartition rp;
        rp.range = rg;
        rp.part = Kpa::create(ctx.hm, len, ctx.place(place));
        rp.part->setResidentColumn(src.residentColumn());
        rp.part->adoptSourcesFrom(src);
        out.push_back(std::move(rp));
        return out.back().part.get();
    };

    if (src.sorted() && n > 0) {
        // Sorted fast path: every range is one contiguous span.
        // Binary-search each range boundary, then bulk-copy the span.
        uint32_t i = 0;
        while (i < n) {
            const uint64_t rg = e[i].key / range_width;
            const KpEntry *end = std::upper_bound(
                e + i, e + n, rg,
                [range_width](uint64_t range, const KpEntry &x) {
                    return range < x.key / range_width;
                });
            const auto len = static_cast<uint32_t>(end - (e + i));
            Kpa *part = makePartition(rg, len);
            std::memcpy(part->appendCursor(), e + i,
                        uint64_t{len} * sizeof(KpEntry));
            part->commitAppend(len);
            i += len;
        }
    } else if (n > 0) {
        // Unsorted. A runtime 64-bit division is a per-element hot
        // cost, so divide by the invariant width via multiply-high
        // (FastDivider), compute every entry's range exactly once,
        // and memo its low 32 bits: when the span check below passes,
        // rg - min_rg < 2^32, so uint32 wrap-around arithmetic on the
        // low bits reproduces the exact span offset at half the memo
        // traffic of full ranges.
        //
        // The memo, count and fill passes shard across the host pool
        // on large inputs. Shards cover contiguous input slices; the
        // fill pass places shard t's elements of a range exactly
        // after shards 0..t-1's (exclusive prefix of per-shard
        // counts), so partitions, their order, and every entry
        // position are bit-identical to the serial passes at any
        // thread count — and the charges below depend only on sizes.
        const FastDivider by_width(range_width);
        const auto rg_lo = std::make_unique_for_overwrite<uint32_t[]>(n);
        uint64_t min_rg = ~uint64_t{0}, max_rg = 0;

        WorkerPool *pool = ctx.pool;
        const uint32_t shards =
            (pool != nullptr && pool->threads() > 1
             && n >= detail::kPartitionParallelMin)
                ? pool->threads()
                : 1;
        auto shard_lo = [n, shards](uint32_t s) {
            return static_cast<uint32_t>(uint64_t{n} * s / shards);
        };

        if (shards > 1) {
            std::vector<uint64_t> mins(shards, ~uint64_t{0});
            std::vector<uint64_t> maxs(shards, 0);
            pool->parallelFor(shards, [&](uint32_t s) {
                uint64_t mn = ~uint64_t{0}, mx = 0;
                const uint32_t hi = shard_lo(s + 1);
                for (uint32_t i = shard_lo(s); i < hi; ++i) {
                    const uint64_t rg = by_width.divide(e[i].key);
                    rg_lo[i] = static_cast<uint32_t>(rg);
                    mn = std::min(mn, rg);
                    mx = std::max(mx, rg);
                }
                mins[s] = mn;
                maxs[s] = mx;
            });
            for (uint32_t s = 0; s < shards; ++s) {
                min_rg = std::min(min_rg, mins[s]);
                max_rg = std::max(max_rg, maxs[s]);
            }
        } else {
            for (uint32_t i = 0; i < n; ++i) {
                const uint64_t rg = by_width.divide(e[i].key);
                rg_lo[i] = static_cast<uint32_t>(rg);
                min_rg = std::min(min_rg, rg);
                max_rg = std::max(max_rg, rg);
            }
        }
        // Gate on extent = span - 1 so the full-keyspace case
        // (max - min == 2^64 - 1) cannot wrap span to 0, and require
        // it to fit 32 bits: the memo only holds low bits, so distinct
        // ranges 2^32 apart would alias onto one partition.
        const uint64_t extent = max_rg - min_rg;
        if (extent <= uint64_t{n} + 1023 && extent < UINT32_MAX) {
            const uint64_t span = extent + 1;
            // Windowing ranges are a dense span: count and scatter
            // through direct-indexed cursor arrays — no hashing.
            const auto min_lo = static_cast<uint32_t>(min_rg);
            std::vector<uint32_t> count_by_rg(span, 0);
            std::vector<std::vector<uint32_t>> shard_counts;
            if (shards > 1) {
                shard_counts.assign(shards,
                                    std::vector<uint32_t>(span, 0));
                pool->parallelFor(shards, [&](uint32_t s) {
                    std::vector<uint32_t> &c = shard_counts[s];
                    const uint32_t hi = shard_lo(s + 1);
                    for (uint32_t i = shard_lo(s); i < hi; ++i)
                        ++c[rg_lo[i] - min_lo];
                });
                // Exclusive prefix across shards per range: shard t's
                // slice of range sp starts at the sum of earlier
                // shards' counts — the serial input order, sliced.
                for (uint64_t sp = 0; sp < span; ++sp) {
                    uint32_t sum = 0;
                    for (uint32_t s = 0; s < shards; ++s) {
                        const uint32_t c = shard_counts[s][sp];
                        shard_counts[s][sp] = sum;
                        sum += c;
                    }
                    count_by_rg[sp] = sum;
                }
            } else {
                for (uint32_t i = 0; i < n; ++i)
                    ++count_by_rg[rg_lo[i] - min_lo];
            }
            std::vector<KpEntry *> cursor(span, nullptr);
            for (uint64_t s = 0; s < span; ++s) {
                if (count_by_rg[s] == 0)
                    continue; // absent range: no partition, as before
                Kpa *part = makePartition(
                    min_rg + s, count_by_rg[s]); // ascending ranges
                cursor[s] = part->appendCursor();
            }
            if (shards > 1) {
                pool->parallelFor(shards, [&](uint32_t s) {
                    std::vector<KpEntry *> cur(span, nullptr);
                    const std::vector<uint32_t> &base = shard_counts[s];
                    for (uint64_t sp = 0; sp < span; ++sp) {
                        if (cursor[sp] != nullptr)
                            cur[sp] = cursor[sp] + base[sp];
                    }
                    const uint32_t hi = shard_lo(s + 1);
                    for (uint32_t i = shard_lo(s); i < hi; ++i)
                        *cur[rg_lo[i] - min_lo]++ = e[i];
                });
            } else {
                for (uint32_t i = 0; i < n; ++i)
                    *cursor[rg_lo[i] - min_lo]++ = e[i];
            }
            for (auto &rp : out)
                rp.part->commitAppend(count_by_rg[rp.range - min_rg]);
        } else {
            // Sparse ranges (rare: more distinct ranges than entries
            // plus slack): one hash pass for per-range counts,
            // overwriting the memo with each entry's dense id (< n,
            // so it fits) to spare the fill pass a divide + probe...
            detail::RangeIndex index;
            std::vector<std::pair<uint64_t, uint32_t>> counts;
            for (uint32_t i = 0; i < n; ++i) {
                const uint64_t rg = by_width.divide(e[i].key);
                const uint32_t d = index.findOrAssign(rg);
                if (d == counts.size())
                    counts.emplace_back(rg, 0);
                ++counts[d].second;
                rg_lo[i] = d;
            }
            // ...partitions in ascending range order, exactly sized...
            std::vector<uint32_t> order(counts.size());
            for (uint32_t d = 0; d < order.size(); ++d)
                order[d] = d;
            std::sort(order.begin(), order.end(),
                      [&counts](uint32_t a, uint32_t b) {
                          return counts[a].first < counts[b].first;
                      });
            std::vector<KpEntry *> cursor(counts.size());
            out.reserve(counts.size());
            for (uint32_t d : order) {
                Kpa *part =
                    makePartition(counts[d].first, counts[d].second);
                cursor[d] = part->appendCursor();
            }
            // ...then one dense-id-memoized fill pass (stable per
            // range).
            for (uint32_t i = 0; i < n; ++i)
                *cursor[rg_lo[i]]++ = e[i];
            for (size_t k = 0; k < out.size(); ++k)
                out[k].part->commitAppend(counts[order[k]].second);
        }
    }
    for (auto &rp : out)
        rp.part->setSorted(src.sorted());

    ctx.hm.charge(ctx.log, src.tier(), AccessPattern::kSequential,
                  ctx.scaled(src.bytes()));
    for (const auto &rp : out)
        ctx.hm.charge(ctx.log, rp.part->tier(), AccessPattern::kSequential,
                      ctx.scaled(rp.part->bytes()));
    ctx.kernel(cost::kPartitionNsPerRec * src.size());
    return out;
}

// -------------------------------------------------------------------
// Reduction primitives
// -------------------------------------------------------------------

/**
 * Iterate contiguous key runs of a sorted KPA:
 * fn(key, first_entry, run_length). Functional part of keyed
 * reduction; pair with chargeKeyedReduce.
 */
template <typename Fn>
inline void
forEachKeyRunRange(const Kpa &k, uint32_t lo, uint32_t hi, Fn &&fn)
{
    sbhbm_assert(k.sorted(), "keyed reduction requires a sorted KPA");
    sbhbm_assert(hi <= k.size() && lo <= hi, "bad key-run range");
    sbhbm_assert(lo == 0 || lo == hi
                     || k.entries()[lo].key != k.entries()[lo - 1].key,
                 "range start splits a key run");
    const KpEntry *e = k.entries();
    uint32_t i = lo;
    while (i < hi) {
        uint32_t j = i + 1;
        while (j < hi && e[j].key == e[i].key)
            ++j;
        fn(e[i].key, &e[i], j - i);
        i = j;
    }
}

template <typename Fn>
inline void
forEachKeyRun(const Kpa &k, Fn &&fn)
{
    forEachKeyRunRange(k, 0, k.size(), std::forward<Fn>(fn));
}

/**
 * Split [0, size) into at most @p want ranges whose boundaries fall
 * on key-run boundaries, so per-key reductions can run as parallel
 * shards (paper Fig 4a: "the implementation performs each step in
 * parallel with all available threads"). Returns the cut points,
 * starting with 0 and ending with size.
 */
inline std::vector<uint32_t>
keyRunCuts(const Kpa &k, uint32_t want)
{
    sbhbm_assert(k.sorted(), "cuts need a sorted KPA");
    sbhbm_assert(want >= 1, "need at least one shard");
    const KpEntry *e = k.entries();
    const uint32_t n = k.size();
    std::vector<uint32_t> cuts{0};
    for (uint32_t s = 1; s < want; ++s) {
        uint32_t pos = static_cast<uint32_t>(uint64_t{n} * s / want);
        while (pos < n && pos > 0 && e[pos].key == e[pos - 1].key)
            ++pos;
        if (pos > cuts.back() && pos < n)
            cuts.push_back(pos);
    }
    cuts.push_back(n);
    return cuts;
}

/**
 * Charge a keyed reduction (Table 2 "Keyed"): sequential KPA scan,
 * random dereference of value columns, and output emission.
 *
 * @param values_touched number of nonresident column dereferences
 *        (usually the KPA size; 0 when the reduction needs keys only).
 * @param out_records / out_cols shape of the emitted bundle.
 */
inline void
chargeKeyedReduceRange(Ctx ctx, const Kpa &k, uint64_t scanned,
                       uint64_t values_touched, uint64_t out_records,
                       uint32_t out_cols)
{
    ctx.hm.charge(ctx.log, k.tier(), AccessPattern::kSequential,
                  ctx.scaled(scanned * sizeof(KpEntry)));
    if (values_touched > 0) {
        const uint32_t cols = k.recordCols();
        ctx.hm.charge(ctx.log, mem::Tier::kDram, AccessPattern::kRandom,
                      values_touched * rowTouchBytes(cols));
    }
    if (out_records > 0) {
        ctx.hm.charge(ctx.log, mem::Tier::kDram,
                      AccessPattern::kSequential,
                      out_records * out_cols * sizeof(uint64_t));
    }
    ctx.log.cpu(cost::kReduceNsPerRec * static_cast<double>(scanned)
                + cost::kEmitNsPerRec * static_cast<double>(out_records));
}

inline void
chargeKeyedReduce(Ctx ctx, const Kpa &k, uint64_t values_touched,
                  uint64_t out_records, uint32_t out_cols)
{
    chargeKeyedReduceRange(ctx, k, k.size(), values_touched, out_records,
                           out_cols);
}

/**
 * Charge an unkeyed reduction over a full bundle (Table 2
 * "Unkeyed"): one sequential pass over the record data.
 */
inline void
chargeUnkeyedReduce(Ctx ctx, const Bundle &b, uint64_t out_records,
                    uint32_t out_cols)
{
    ctx.hm.charge(ctx.log, b.tier(), AccessPattern::kSequential,
                  b.dataBytes());
    if (out_records > 0) {
        ctx.hm.charge(ctx.log, mem::Tier::kDram,
                      AccessPattern::kSequential,
                      out_records * out_cols * sizeof(uint64_t));
    }
    ctx.log.cpu(cost::kReduceNsPerRec * b.size()
                + cost::kEmitNsPerRec * out_records);
}

} // namespace sbhbm::kpa

#endif // SBHBM_KPA_PRIMITIVES_H
