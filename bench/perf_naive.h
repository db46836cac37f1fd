/**
 * @file
 * Reference (pre-rewrite) kernels for the perf-regression harness:
 * the asymptotics and buffering the hot-path rewrite removed, kept so
 * every report carries its own baseline. Compiled in their own
 * translation unit so the optimizer cannot cross-specialize them
 * against the live kernels they are measured against. Do not "fix"
 * these — they are the yardstick.
 */

#ifndef SBHBM_BENCH_PERF_NAIVE_H
#define SBHBM_BENCH_PERF_NAIVE_H

#include <cstddef>
#include <vector>

#include "columnar/bundle.h"
#include "columnar/record.h"
#include "kpa/primitives.h"

namespace sbhbm::bench {

/** O(n * ranges) counting + O(n * ranges) scatter, as before. */
std::vector<kpa::RangePartition>
naivePartitionByRange(kpa::Ctx ctx, const kpa::Kpa &src,
                      uint64_t range_width, kpa::Placement place);

/** Buffers every match pair before emitting, as before. */
columnar::BundleHandle
naiveJoin(kpa::Ctx ctx, const kpa::Kpa &l, const kpa::Kpa &r,
          const std::vector<columnar::ColumnId> &l_cols,
          const std::vector<columnar::ColumnId> &r_cols);

/** Per-record row() + push() extract loop, as before. */
kpa::KpaPtr naiveExtract(kpa::Ctx ctx, columnar::Bundle &src,
                         columnar::ColumnId key_col,
                         kpa::Placement place);

/** Per-column append() materialize loop, as before. */
columnar::BundleHandle naiveMaterialize(kpa::Ctx ctx,
                                        const kpa::Kpa &k);

} // namespace sbhbm::bench

#endif // SBHBM_BENCH_PERF_NAIVE_H
