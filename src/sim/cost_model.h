/**
 * @file
 * Calibrated CPU-cost constants for the timing model.
 *
 * Every constant is the cost of one unit of work on ONE KNL core
 * (Xeon Phi 7210, 1.3 GHz); the Machine scales them by the config's
 * scalar_speed / vector_speed factors for other machines. Memory
 * traffic is charged separately through CostLog flows; these numbers
 * cover only the instruction stream.
 *
 * Calibration sources:
 *  - Fig 2 (GroupBy microbenchmark): sort kernel and hash probe costs
 *    tuned so the sort-vs-hash crossover on DRAM lands above 40 cores
 *    and sort-on-HBM leads hash-on-HBM by >50%.
 *  - Fig 11 (parsing): per-record parse costs reproduce the reported
 *    ratios vs the engine's YSB throughput (JSON 0.13x, protobuf
 *    4.4x, text 29x) and the 3-4x KNL-to-X56 scalar gap.
 */

#ifndef SBHBM_SIM_COST_MODEL_H
#define SBHBM_SIM_COST_MODEL_H

#include <cstdint>

namespace sbhbm::sim::cost {

/** Cache line size of the simulated machine, bytes. */
constexpr uint64_t kLineBytes = 64;

// -------------------------------------------------------------------
// Grouping kernels (vectorized; charge via CostLog::cpuVector).
// -------------------------------------------------------------------

/**
 * Bitonic block sort of 64 key/pointer pairs, per element per network
 * stage; an AVX-512 compare-exchange on 16-byte pairs at 1.3 GHz with
 * shuffle overheads lands near 0.8 ns/elem/stage. A 64-element block
 * has 21 stages.
 */
constexpr double kBitonicNsPerElemStage = 0.8;
constexpr int kBitonicBlock = 64;
constexpr int kBitonicStages = 21; // sum k(k+1)/2 for k=1..6

/**
 * Merge passes §4.2's sort makes over @p n entries above its
 * kBitonicBlock-entry block sort: one per doubling of the run width.
 */
constexpr int
mergeLevels(uint64_t n)
{
    int levels = 0;
    for (uint64_t width = kBitonicBlock; width < n; width <<= 1)
        ++levels;
    return levels;
}

/** Vectorized merge of two sorted runs, per element per level. */
constexpr double kMergeNsPerElem = 2.5;

/** Scalar fixup cost per element of a parallel merge (slicing etc.). */
constexpr double kMergeSliceNsPerChunk = 900.0;

/**
 * Kernel slowdown of grouping *full records* instead of key/pointer
 * pairs (the NoKPA ablation): arbitrary-width tuples cannot use the
 * hand-tuned 16-byte-pair AVX kernels (paper 4.1: "We optimize
 * grouping algorithms for a specific data type"), so sort/merge run
 * as scalar tuple moves.
 */
constexpr double kGenericTupleFactor = 5.0;

/**
 * Memory traffic of one merge level, bytes per element: stream the
 * element in (16 B) and out through a write-allocate cache (RFO read
 * + writeback, 32 B). Calibrated against Fig 2's right panel, where
 * sort on 100 M pairs moves ~1.5 kB per pair over ~27 levels.
 */
constexpr uint64_t kSortBytesPerElemLevel = 48;

// -------------------------------------------------------------------
// Hash grouping (baseline; mostly scalar, dependent accesses).
// -------------------------------------------------------------------

/** Hash computation + bucket arithmetic per record. */
constexpr double kHashComputeNs = 3.0;

/** Probe/insert instruction cost per record (excl. the cache miss). */
constexpr double kHashProbeNs = 5.0;

/**
 * Serially-dependent cache misses per insert: the probe walks the
 * bucket chain before the update can issue, so each insert stalls
 * for ~2 round trips regardless of bandwidth. This is what makes
 * hashing latency-bound and why HBM (with its ~20% *higher* latency)
 * barely helps it (Fig 2).
 */
constexpr double kHashChainMisses = 2.0;

/**
 * Random lines touched per insert (probe line, slot update, value
 * append, occasional displacement): calibrated so hash-on-DRAM
 * flattens at the DRAM random-bandwidth limit above ~40 cores.
 */
constexpr uint64_t kHashLinesPerRec = 5;

/** Sequential partitioning pass per record (hash-partition phase). */
constexpr double kHashPartitionNs = 2.0;

// -------------------------------------------------------------------
// KPA maintenance and reduction.
//
// These are *per record per pass* costs of the scalar bookkeeping
// around the vectorized kernels (bounds checks, pointer arithmetic,
// column addressing, per-batch state) on a 1.3 GHz in-order-leaning
// KNL core. They are calibrated against the throughput anchors of
// the evaluation: Windowed Average saturates 2.6 GB/s RDMA (~110 M
// rec/s) with ~16 cores => scan path ~110 ns/rec; keyed pipelines
// sustain ~1-1.5 M rec/s per core => grouped path ~700-1000 ns/rec;
// YSB saturates 10 GbE with ~5 cores => ~280 ns/rec with 1/3 of
// records surviving the filter.
// -------------------------------------------------------------------

/** Extract: gather key + synthesize pointer per record. */
constexpr double kExtractNsPerRec = 100.0;

/** KeySwap/Materialize/write-back bookkeeping per record. */
constexpr double kSwapNsPerRec = 120.0;

/** Per-record cost of a single-pass reduction (sum/avg/count). */
constexpr double kReduceNsPerRec = 100.0;

/** Per-record cost of emitting a new output record. */
constexpr double kEmitNsPerRec = 50.0;

/** Selection predicate evaluation per record. */
constexpr double kSelectNsPerRec = 80.0;

/** Range-partition scatter per record (windowing). */
constexpr double kPartitionNsPerRec = 120.0;

// -------------------------------------------------------------------
// Runtime overheads.
// -------------------------------------------------------------------

/** Fixed cost of creating + dispatching one task. */
constexpr double kTaskDispatchNs = 1500.0;

/** Per-bundle ingestion bookkeeping (pool mgmt, watermark checks). */
constexpr double kIngestNsPerBundle = 4000.0;

/**
 * Flink-like baseline: per-record per-stage interpretation overhead
 * of a record-at-a-time engine (virtual calls, (de)serialization
 * between chained operators, JVM-style object churn). Calibrated
 * against Fig 7: Flink on KNL cannot saturate 10 GbE (~22 M rec/s)
 * even with 64 cores, i.e. < 0.35 M rec/s per core for the 5-stage
 * YSB pipeline.
 */
constexpr double kRecordAtATimeNs = 800.0;

// -------------------------------------------------------------------
// Ingestion parsers (Fig 11), per YSB record (7 numeric columns).
// -------------------------------------------------------------------

// Calibrated against Fig 11's ratios to the engine's YSB rate
// (~46 M rec/s machine throughput over RDMA): JSON 0.13x => ~10.5 us
// per record (RapidJSON, 7 fields, weak scalar core), protobuf 4.4x
// => ~310 ns, text strings 29x => ~47 ns.
constexpr double kParseJsonNsPerRec = 10500.0;
constexpr double kParseProtoNsPerRec = 310.0;
constexpr double kParseTextNsPerRec = 47.0;

} // namespace sbhbm::sim::cost

#endif // SBHBM_SIM_COST_MODEL_H
