/**
 * @file
 * Flink-like comparison engine (paper §7.1).
 *
 * A record-at-a-time engine with hash-based grouping and no KPA / no
 * explicit placement: every operator touches full records, state
 * lives in per-window hash tables, and each record pays the
 * interpretation overhead of a JVM-style dataflow (virtual dispatch,
 * (de)serialization between chained operators). It runs on
 * cache-mode memory — hardware manages the hybrid memory, as in the
 * paper's Flink-on-KNL configuration.
 *
 * The engine executes real hash aggregation (results are checked in
 * tests); only its costs differ from StreamBox-HBM's: random-access
 * traffic instead of sequential, full-record bytes instead of
 * key/pointer pairs, and a large per-record CPU constant.
 */

#ifndef SBHBM_BASELINE_HASH_ENGINE_H
#define SBHBM_BASELINE_HASH_ENGINE_H

#include <map>
#include <memory>
#include <utility>

#include "algo/hash_table.h"
#include "pipeline/aggregations.h"
#include "pipeline/egress.h"
#include "pipeline/operator.h"
#include "sim/cost_model.h"

namespace sbhbm::baseline {

using pipeline::Msg;
using pipeline::Operator;
using pipeline::Pipeline;

/**
 * Record-at-a-time hash aggregation: the whole YSB-style query
 * (filter -> key lookup -> window -> count per key) in one operator,
 * the way a chained Flink task executes it.
 */
class RecordAtATimeAggOp : public Operator
{
  public:
    struct Config
    {
        /** Filter: keep records with row[filter_col] == filter_value;
         *  set filter_col = kNoColumn to keep everything. */
        columnar::ColumnId filter_col = columnar::kNoColumn;
        uint64_t filter_value = 0;

        /** Grouping key column. */
        columnar::ColumnId key_col = 0;

        /** Timestamp column for windowing. */
        columnar::ColumnId ts_col = 2;

        /** Optional key remapping table (YSB ad -> campaign). */
        std::shared_ptr<algo::HashTable<uint64_t>> key_map;

        /** Chained operator stages the record passes through. */
        int pipeline_stages = 5;

        /** Expected distinct keys per window (table sizing). */
        size_t keys_hint = 1024;
    };

    RecordAtATimeAggOp(Pipeline &pipe, std::string name, Config cfg)
        : Operator(pipe, std::move(name)), cfg_(cfg)
    {
    }

  protected:
    void
    process(Msg msg, int) override
    {
        sbhbm_assert(msg.isBundle(),
                     "RecordAtATimeAggOp expects record bundles");
        const pipeline::ImpactTag tag = classify(msg.min_ts);
        const columnar::WindowSpec spec = pipe_.windows();
        spawnTracked(tag, [this, spec, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &) mutable {
            const columnar::Bundle &b = *msg.bundle;
            uint64_t grouped = 0;
            for (uint32_t r = 0; r < b.size(); ++r) {
                const uint64_t *row = b.row(r);
                if (cfg_.filter_col != columnar::kNoColumn
                    && row[cfg_.filter_col] != cfg_.filter_value) {
                    continue;
                }
                uint64_t key = row[cfg_.key_col];
                if (cfg_.key_map) {
                    if (const uint64_t *v = cfg_.key_map->find(key))
                        key = *v;
                }
                ++tableFor(spec.windowOf(row[cfg_.ts_col])).findOrInsert(key);
                ++grouped;
            }
            chargeBundle(log, b, grouped);
        });
    }

    void
    onWatermark(pipeline::Watermark wm) override
    {
        const columnar::WindowSpec spec = pipe_.windows();
        for (auto it = state_.begin(); it != state_.end();) {
            const columnar::WindowId w = it->first;
            if (spec.end(w) > wm.ts) {
                ++it;
                continue;
            }
            auto table = std::make_shared<algo::HashTable<uint64_t>>(
                std::move(it->second));
            it = state_.erase(it);
            spawnTracked(
                pipeline::ImpactTag::kUrgent,
                [this, w, table, spec](sim::CostLog &log, Emitter &em) {
                    pipeline::RowSink sink(2);
                    table->forEach([&](uint64_t key, const uint64_t &n) {
                        sink.push({key, n});
                    });
                    // Close scans the whole table (random layout).
                    eng_.memory().charge(log, mem::Tier::kDram,
                                         sim::AccessPattern::kSequential,
                                         table->footprintBytes());
                    log.cpu(sim::cost::kEmitNsPerRec
                            * static_cast<double>(sink.rows()));
                    auto out = sink.toBundle(eng_.memory());
                    if (out) {
                        em.push(Msg::ofBundle(std::move(out),
                                              spec.start(w))
                                    .withWindow(w));
                    }
                });
        }
    }

  private:
    algo::HashTable<uint64_t> &
    tableFor(columnar::WindowId w)
    {
        auto it = state_.find(w);
        if (it == state_.end()) {
            it = state_
                     .emplace(w,
                              algo::HashTable<uint64_t>(cfg_.keys_hint))
                     .first;
        }
        return it->second;
    }

    /** Per-bundle cost of the record-at-a-time execution. */
    void
    chargeBundle(sim::CostLog &log, const columnar::Bundle &b,
                 uint64_t grouped)
    {
        auto &hm = eng_.memory();
        // Every stage re-touches the full record (no columnar reuse).
        hm.charge(log, b.tier(), sim::AccessPattern::kSequential,
                  b.dataBytes() * 2);
        // Hash probe + insert: random lines (key map + window table).
        const uint64_t probes = cfg_.key_map ? 2 * grouped : grouped;
        hm.charge(log, mem::Tier::kDram, sim::AccessPattern::kRandom,
                  probes * sim::cost::kLineBytes);
        // Interpretation overhead: per record per chained stage.
        log.cpu(sim::cost::kRecordAtATimeNs * cfg_.pipeline_stages
                    * static_cast<double>(b.size())
                + (sim::cost::kHashComputeNs + sim::cost::kHashProbeNs)
                      * static_cast<double>(grouped));
    }

    Config cfg_;
    std::map<columnar::WindowId, algo::HashTable<uint64_t>> state_;
};

} // namespace sbhbm::baseline

#endif // SBHBM_BASELINE_HASH_ENGINE_H
