/**
 * @file
 * External join (YSB step 3, Fig 5): replace each resident key with a
 * value looked up in an external key-value table — a small hash table
 * resident in HBM (paper §4.3: "a small table in HBM").
 *
 * Mirrors the paper's YSB execution: the operator updates resident
 * keys in place, optionally writes the new keys back to a record
 * column, and optionally swaps in another column (the timestamp) for
 * the next grouping stage.
 */

#ifndef SBHBM_PIPELINE_EXTERNAL_JOIN_H
#define SBHBM_PIPELINE_EXTERNAL_JOIN_H

#include <memory>
#include <utility>

#include "algo/hash_table.h"
#include "pipeline/operator.h"
#include "sim/cost_model.h"

namespace sbhbm::pipeline {

/** KPA-in, KPA-out key-mapping join against an external KV table. */
class ExternalJoinOp : public Operator
{
  public:
    /**
     * @param table         key -> mapped-key store (shared; in HBM).
     * @param writeback_col write mapped keys to this record column
     *                      (columnar::kNoColumn to skip).
     * @param swap_col      afterwards swap this column in as resident
     *                      (columnar::kNoColumn to skip).
     */
    ExternalJoinOp(Pipeline &pipe, std::string name,
                   std::shared_ptr<algo::HashTable<uint64_t>> table,
                   columnar::ColumnId writeback_col,
                   columnar::ColumnId swap_col)
        : Operator(pipe, std::move(name)), table_(std::move(table)),
          writeback_col_(writeback_col), swap_col_(swap_col)
    {
        sbhbm_assert(table_ != nullptr, "external table required");
    }

  protected:
    void
    process(Msg msg, int) override
    {
        sbhbm_assert(msg.isKpa(), "ExternalJoinOp expects KPAs");
        const ImpactTag tag = classify(msg.min_ts);
        spawnTracked(tag, [this, msg = std::move(msg)](
                              sim::CostLog &log, Emitter &em) mutable {
            auto ctx = makeCtx(log, msg.kpa->recordCols());
            kpa::Kpa &k = *msg.kpa;

            kpa::updateKeysViaTable(ctx, k, *table_);
            // Table probes: one random line per record into the
            // (HBM-resident, when available) table.
            ctx.hm.charge(log, ctx.hm.smallStateTier(),
                          sim::AccessPattern::kRandom,
                          uint64_t{k.size()} * sim::cost::kLineBytes);
            log.cpu(sim::cost::kHashProbeNs * k.size());

            if (writeback_col_ != columnar::kNoColumn)
                kpa::writeBackKeys(ctx, k, writeback_col_);
            if (swap_col_ != columnar::kNoColumn)
                kpa::keySwap(ctx, k, swap_col_);

            Msg out = Msg::ofKpa(std::move(msg.kpa), msg.min_ts);
            if (msg.has_window)
                out = std::move(out).withWindow(msg.window);
            em.push(std::move(out));
        });
    }

  private:
    std::shared_ptr<algo::HashTable<uint64_t>> table_;
    columnar::ColumnId writeback_col_;
    columnar::ColumnId swap_col_;
};

} // namespace sbhbm::pipeline

#endif // SBHBM_PIPELINE_EXTERNAL_JOIN_H
