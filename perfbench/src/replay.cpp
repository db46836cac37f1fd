/**
 * @file
 * Kernel replay (see replay.h). Each workload's kernel sequence
 * follows its operators: ExtractOp / FilterOp -> ExternalJoinOp ->
 * WindowOp -> SortedRunsOp (sort per run, merge tree at close) or
 * TemporalJoinOp (sort, join against the other side, merge).
 */

#include "replay.h"

#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "kpa/primitives.h"
#include "runtime/engine.h"

namespace sbhbm::perfbench {

using columnar::BundleHandle;
using columnar::WindowId;
using ingest::KvGen;
using ingest::YsbGen;
using kpa::KpaPtr;

namespace {

/** Scratch engine memory plus a timer that records one span per call. */
class Replayer
{
  public:
    Replayer(const runtime::EngineConfig &cfg, SpanLog &spans, int32_t parent)
        : eng_(cfg), spans_(spans), parent_(parent)
    {
    }

    runtime::Engine &engine() { return eng_; }
    mem::HybridMemory &memory() { return eng_.memory(); }

    /** fn(ctx) timed as span @p name; kernels run serially (no pool). */
    template <typename Fn>
    auto
    timed(const char *name, Fn &&fn)
    {
        sim::CostLog log;
        kpa::Ctx ctx{eng_.memory(), log};
        const int64_t s = hostNs();
        if constexpr (std::is_void_v<decltype(fn(ctx))>) {
            fn(ctx);
            spans_.add(name, s, hostNs(), parent_);
        } else {
            auto r = fn(ctx);
            spans_.add(name, s, hostNs(), parent_);
            return r;
        }
    }

    /** Binary merge tree over sorted runs, as SortedRunsOp closes. */
    void
    mergeAll(std::vector<KpaPtr> runs, ReplayCounts &c)
    {
        while (runs.size() > 1) {
            std::vector<KpaPtr> next;
            for (size_t i = 0; i + 1 < runs.size(); i += 2) {
                next.push_back(timed("kpa.merge", [&](kpa::Ctx ctx) {
                    return kpa::merge(ctx, *runs[i], *runs[i + 1], place_);
                }));
                c.merge_entries += next.back()->size();
            }
            if (runs.size() % 2 == 1)
                next.push_back(std::move(runs.back()));
            runs = std::move(next);
        }
    }

    /** keySwap to @p key_col and sortKpa, as a grouping operator does. */
    void
    sortRun(kpa::Kpa &k, columnar::ColumnId key_col, ReplayCounts &c)
    {
        timed("kpa.keySwap",
              [&](kpa::Ctx ctx) { kpa::keySwap(ctx, k, key_col); });
        timed("kpa.sortKpa", [&](kpa::Ctx ctx) { kpa::sortKpa(ctx, k); });
        c.sort_entries += k.size();
    }

    /** WindowOp: keySwap to the timestamp, partition by window. */
    std::vector<kpa::RangePartition>
    window(kpa::Kpa &k, columnar::ColumnId ts_col, SimTime width,
           ReplayCounts &c)
    {
        timed("kpa.keySwap",
              [&](kpa::Ctx ctx) { kpa::keySwap(ctx, k, ts_col); });
        c.partition_entries += k.size();
        return timed("kpa.partitionByRange", [&](kpa::Ctx ctx) {
            return kpa::partitionByRange(ctx, k, width, place_);
        });
    }

    KpaPtr
    extract(columnar::Bundle &b, columnar::ColumnId key_col, ReplayCounts &c)
    {
        c.extract_recs += b.size();
        return timed("kpa.extract", [&](kpa::Ctx ctx) {
            return kpa::extract(ctx, b, key_col, place_);
        });
    }

    const kpa::Placement &place() const { return place_; }

  private:
    runtime::Engine eng_;
    SpanLog &spans_;
    int32_t parent_;
    kpa::Placement place_{};
};

/** Keyed aggregation (groupby, ysb): runs per window, merged at close. */
void
replayKeyedAgg(const EngineWorkload &w, Replayer &rp, BundleCursor &cur,
               ReplayCounts &c)
{
    const bool ysb = w.query.id == queries::QueryId::kYsb;
    const columnar::ColumnId key_col = ysb ? YsbGen::kAdCol : KvGen::kKeyCol;
    const columnar::ColumnId ts_col = ysb ? YsbGen::kTsCol : KvGen::kTsCol;
    const columnar::WindowSpec spec{w.query.window_ns};
    const auto table = YsbGen::campaignTable();
    std::map<WindowId, std::vector<KpaPtr>> open;

    while (const GenCall *next = cur.peek()) {
        // Windows no later bundle can reach close first.
        while (!open.empty() && spec.end(open.begin()->first) <= next->t0) {
            rp.mergeAll(std::move(open.begin()->second), c);
            open.erase(open.begin());
        }
        BundleHandle b = cur.take();
        KpaPtr k;
        if (ysb) {
            c.select_recs += b->size();
            k = rp.timed("kpa.selectFromBundle", [&](kpa::Ctx ctx) {
                return kpa::selectFromBundle(
                    ctx, *b, YsbGen::kAdCol,
                    [](const uint64_t *row) {
                        return row[YsbGen::kEventTypeCol]
                               == YsbGen::kViewEvent;
                    },
                    rp.place());
            });
            c.probe_keys += k->size();
            rp.timed("kpa.updateKeysViaTable", [&](kpa::Ctx ctx) {
                kpa::updateKeysViaTable(ctx, *k, *table);
            });
            rp.timed("kpa.writeBackKeys", [&](kpa::Ctx ctx) {
                kpa::writeBackKeys(ctx, *k, YsbGen::kAdCol);
            });
        } else {
            k = rp.extract(*b, key_col, c);
        }
        for (auto &part : rp.window(*k, ts_col, spec.width, c)) {
            rp.sortRun(*part.part, key_col, c);
            open[part.range].push_back(std::move(part.part));
        }
    }
    for (auto &[win, runs] : open)
        rp.mergeAll(std::move(runs), c);
}

/** Temporal join: each part joins the other side's state, then merges. */
void
replayJoin(const EngineWorkload &w, Replayer &rp, BundleCursor &cur_a,
           BundleCursor &cur_b, ReplayCounts &c)
{
    const columnar::WindowSpec spec{w.query.window_ns};
    struct Sides
    {
        KpaPtr side[2];
    };
    std::map<WindowId, Sides> state;
    BundleCursor *curs[2] = {&cur_a, &cur_b};
    for (;;) {
        const GenCall *na = cur_a.peek();
        const GenCall *nb = cur_b.peek();
        if (na == nullptr && nb == nullptr)
            break;
        const int side = nb == nullptr || (na != nullptr && na->t0 <= nb->t0)
                             ? 0
                             : 1;
        const EventTime t0 = side == 0 ? na->t0 : nb->t0;
        while (!state.empty() && spec.end(state.begin()->first) <= t0)
            state.erase(state.begin());

        BundleHandle b = curs[side]->take();
        KpaPtr k = rp.extract(*b, KvGen::kKeyCol, c);
        for (auto &part : rp.window(*k, KvGen::kTsCol, spec.width, c)) {
            rp.sortRun(*part.part, KvGen::kKeyCol, c);
            Sides &ws = state[part.range];
            KpaPtr &mine = ws.side[side];
            const KpaPtr &theirs = ws.side[1 - side];
            if (theirs != nullptr && !theirs->empty()) {
                BundleHandle out = rp.timed("kpa.join", [&](kpa::Ctx ctx) {
                    return kpa::join(ctx, *part.part, *theirs,
                                     {KvGen::kValueCol}, {KvGen::kValueCol});
                });
                c.join_out_rows += out->size();
            }
            if (mine == nullptr || mine->empty()) {
                mine = std::move(part.part);
            } else {
                mine = rp.timed("kpa.merge", [&](kpa::Ctx ctx) {
                    return kpa::merge(ctx, *mine, *part.part, rp.place());
                });
                c.merge_entries += mine->size();
            }
        }
    }
}

} // namespace

ReplayCounts
replayEngine(const EngineWorkload &w, const EngineRun &run, SpanLog &spans,
             int32_t parent)
{
    runtime::EngineConfig ecfg = engineConfigFor(w.query);
    ecfg.host_threads = 1;
    Replayer rp(ecfg, spans, parent);
    // Fresh generators, built exactly as the query builds them.
    pipeline::Pipeline pipe(rp.engine(),
                            columnar::WindowSpec{w.query.window_ns});
    queries::BuiltQuery built = queries::buildQueryPipeline(w.query, pipe);

    ReplayCounts c;
    BundleCursor cur_a(*built.gen_a, rp.memory(), run.calls_a);
    if (w.query.id == queries::QueryId::kTemporalJoin) {
        BundleCursor cur_b(*built.gen_b, rp.memory(), run.calls_b);
        replayJoin(w, rp, cur_a, cur_b, c);
    } else {
        replayKeyedAgg(w, rp, cur_a, c);
    }
    return c;
}

ReplayCounts
replayFleet(const std::vector<serve::TenantSpec> &fleet, SimTime window_ns,
            SpanLog &spans, int32_t parent)
{
    runtime::EngineConfig ecfg;
    ecfg.host_threads = 1;
    Replayer rp(ecfg, spans, parent);
    const columnar::WindowSpec spec{window_ns};
    ReplayCounts c;
    // Every fleet query is a keyed aggregation over KvGen records;
    // event time is logical, record i at i / offered_rate.
    for (const serve::TenantSpec &t : fleet) {
        KvGen gen(t.seed, t.key_range, t.value_range);
        std::map<WindowId, std::vector<KpaPtr>> open;
        for (uint64_t done = 0; done < t.total_records;) {
            const auto n = static_cast<uint32_t>(
                std::min<uint64_t>(t.bundle_records, t.total_records - done));
            const auto t0 = static_cast<EventTime>(
                static_cast<double>(done) * 1e9 / t.offered_rate);
            done += n;
            const auto t1 = static_cast<EventTime>(
                static_cast<double>(done) * 1e9 / t.offered_rate);
            auto b = BundleHandle::adopt(
                columnar::Bundle::create(rp.memory(), gen.cols(), n));
            gen.fill(*b, n, t0, t1);
            KpaPtr k = rp.extract(*b, KvGen::kKeyCol, c);
            for (auto &part : rp.window(*k, KvGen::kTsCol, spec.width, c)) {
                rp.sortRun(*part.part, KvGen::kKeyCol, c);
                open[part.range].push_back(std::move(part.part));
            }
        }
        for (auto &[win, runs] : open)
            rp.mergeAll(std::move(runs), c);
    }
    return c;
}

} // namespace sbhbm::perfbench
