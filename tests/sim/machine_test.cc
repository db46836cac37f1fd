#include "sim/machine.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/cost_model.h"

namespace sbhbm::sim {
namespace {

MachineConfig
simpleConfig()
{
    // A machine with round numbers to make expectations readable.
    MachineConfig m;
    m.name = "test";
    m.cores = 4;
    m.scalar_speed = 1.0;
    m.vector_speed = 2.0;
    m.hbm = TierSpec{
        .capacity_bytes = 1_GiB,
        .peak_seq_bw = 100e9,
        .peak_rand_bw = 40e9,
        .latency_ns = 200.0,
        .per_core_seq_bw = 10e9,
        .random_mlp = 4.0,
    };
    m.dram = TierSpec{
        .capacity_bytes = 16_GiB,
        .peak_seq_bw = 20e9,
        .peak_rand_bw = 10e9,
        .latency_ns = 100.0,
        .per_core_seq_bw = 10e9,
        .random_mlp = 4.0,
    };
    return m;
}

TEST(Machine, CpuOnlyTaskTakesItsCpuTime)
{
    Machine m(simpleConfig());
    CostLog cost;
    cost.cpu(5000);
    SimTime done_at = 0;
    m.execute(std::move(cost), [&] { done_at = m.now(); });
    m.run();
    EXPECT_NEAR(static_cast<double>(done_at), 5000, 2);
}

TEST(Machine, VectorCpuScaledBySpeedFactor)
{
    Machine m(simpleConfig()); // vector_speed = 2.0
    CostLog cost;
    cost.cpuVector(8000);
    SimTime done_at = 0;
    m.execute(std::move(cost), [&] { done_at = m.now(); });
    m.run();
    EXPECT_NEAR(static_cast<double>(done_at), 4000, 2);
}

TEST(Machine, MemoryPhaseRunsAtPerFlowCap)
{
    Machine m(simpleConfig());
    CostLog cost;
    cost.seq(Tier::kHbm, 1000000000ull); // 1 GB at 10 GB/s cap
    SimTime done_at = 0;
    m.execute(std::move(cost), [&] { done_at = m.now(); });
    m.run();
    EXPECT_NEAR(static_cast<double>(done_at), 0.1e9, 1e4);
}

TEST(Machine, CpuAndMemoryOverlapRoofline)
{
    Machine m(simpleConfig());
    // 0.1 s of memory vs 0.3 s of CPU in one phase: phase takes the max.
    CostLog cost;
    cost.seq(Tier::kHbm, 1000000000ull);
    cost.cpu(0.3e9);
    SimTime done_at = 0;
    m.execute(std::move(cost), [&] { done_at = m.now(); });
    m.run();
    EXPECT_NEAR(static_cast<double>(done_at), 0.3e9, 1e4);
}

TEST(Machine, PhasesAreSerial)
{
    Machine m(simpleConfig());
    CostLog cost;
    cost.cpu(1000);
    cost.nextPhase();
    cost.cpu(2000);
    cost.nextPhase();
    cost.seq(Tier::kDram, 10000000ull); // 10 MB at 10 GB/s = 1 ms
    SimTime done_at = 0;
    m.execute(std::move(cost), [&] { done_at = m.now(); });
    m.run();
    EXPECT_NEAR(static_cast<double>(done_at), 1000 + 2000 + 1e6, 10);
}

TEST(Machine, EmptyCostCompletesImmediatelyButAsynchronously)
{
    Machine m(simpleConfig());
    bool done = false;
    m.execute(CostLog{}, [&] { done = true; });
    EXPECT_FALSE(done); // never synchronous
    m.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(m.now(), 0u);
}

TEST(Machine, ContendingTasksSlowEachOtherDown)
{
    Machine m(simpleConfig());
    // DRAM peak 20 GB/s, per-flow cap 10 GB/s. Four 1 GB streams
    // get 5 GB/s each => 0.2 s, twice the uncontended time.
    int done = 0;
    SimTime done_at = 0;
    for (int i = 0; i < 4; ++i) {
        CostLog cost;
        cost.seq(Tier::kDram, 1000000000ull);
        m.execute(std::move(cost), [&] {
            ++done;
            done_at = m.now();
        });
    }
    m.run();
    EXPECT_EQ(done, 4);
    EXPECT_NEAR(static_cast<double>(done_at), 0.2e9, 1e5);
}

TEST(Machine, HbmAndDramDoNotContend)
{
    Machine m(simpleConfig());
    SimTime hbm_done = 0, dram_done = 0;
    CostLog a;
    a.seq(Tier::kHbm, 1000000000ull);
    m.execute(std::move(a), [&] { hbm_done = m.now(); });
    CostLog b;
    b.seq(Tier::kDram, 1000000000ull);
    m.execute(std::move(b), [&] { dram_done = m.now(); });
    m.run();
    // Both run at their 10 GB/s per-flow cap: no cross-tier slowdown.
    EXPECT_NEAR(static_cast<double>(hbm_done), 0.1e9, 1e4);
    EXPECT_NEAR(static_cast<double>(dram_done), 0.1e9, 1e4);
}

TEST(Machine, RandomAccessIsLatencyBound)
{
    Machine m(simpleConfig());
    // HBM random: mlp 4 * 64B / 200ns = 1.28 GB/s per flow.
    CostLog cost;
    cost.rand(Tier::kHbm, 128000000ull); // 128 MB
    SimTime done_at = 0;
    m.execute(std::move(cost), [&] { done_at = m.now(); });
    m.run();
    EXPECT_NEAR(static_cast<double>(done_at), 0.1e9, 1e6);
}

TEST(Machine, TierRateObservableWhileFlowsActive)
{
    Machine m(simpleConfig());
    CostLog cost;
    cost.seq(Tier::kHbm, 1000000000ull);
    m.execute(std::move(cost), [] {});
    // Sample mid-flight.
    double rate_seen = 0;
    m.at(50 * kNsPerMs, [&] { rate_seen = m.tierRate(Tier::kHbm); });
    m.run();
    EXPECT_NEAR(rate_seen, 10e9, 1);
    EXPECT_NEAR(m.tierCumulativeBytes(Tier::kHbm), 1e9, 1e3);
}

TEST(Machine, LateArrivalSharesBandwidthFromItsStart)
{
    Machine m(simpleConfig());
    // Task A starts at t=0 with 1 GB on DRAM (cap 10 GB/s).
    SimTime a_done = 0, b_done = 0;
    CostLog a;
    a.seq(Tier::kDram, 1000000000ull);
    m.execute(std::move(a), [&] { a_done = m.now(); });
    // At t=50ms, tasks B+C join; 3 flows share 20 GB/s => 6.67 each.
    m.at(50 * kNsPerMs, [&] {
        for (int i = 0; i < 2; ++i) {
            CostLog c;
            c.seq(Tier::kDram, 1000000000ull);
            m.execute(std::move(c), [&] { b_done = m.now(); });
        }
    });
    m.run();
    // A: 0.5 GB done at t=50ms, then 0.5 GB at 6.67 GB/s => 75 ms more.
    EXPECT_NEAR(static_cast<double>(a_done), 0.125e9, 2e6);
    EXPECT_GT(b_done, a_done);
}

TEST(MachineDeath, FlowOnAbsentTierPanics)
{
    auto cfg = MachineConfig::x56(); // no HBM
    Machine m(cfg);
    CostLog cost;
    cost.seq(Tier::kHbm, 1000);
    EXPECT_DEATH(m.execute(std::move(cost), [] {}), "absent tier");
}

TEST(Machine, KnlConfigMatchesTable3)
{
    const auto knl = MachineConfig::knl();
    EXPECT_EQ(knl.cores, 64u);
    EXPECT_EQ(knl.hbm.capacity_bytes, 16_GiB);
    EXPECT_EQ(knl.dram.capacity_bytes, 96_GiB);
    EXPECT_NEAR(knl.hbm.peak_seq_bw, 375e9, 1);
    EXPECT_NEAR(knl.dram.peak_seq_bw, 80e9, 1);
    EXPECT_NEAR(knl.hbm.latency_ns, 172.0, 1e-9);
    EXPECT_NEAR(knl.dram.latency_ns, 143.0, 1e-9);
    // Effective payload rates: 40 Gb/s Infiniband delivers ~2.6 GB/s
    // of records after encoding/headers (the paper's 110 M rec/s x
    // 24 B ceiling); Ethernet is the raw 10 Gb/s link rate.
    EXPECT_NEAR(knl.nic_rdma_bw, 2.6e9, 1);
    EXPECT_NEAR(knl.nic_ethernet_bw, 1.25e9, 1);
}

TEST(MergeLevels, CountsPassesAboveBlockSort)
{
    EXPECT_EQ(cost::mergeLevels(64), 0);
    EXPECT_EQ(cost::mergeLevels(65), 1);
    EXPECT_EQ(cost::mergeLevels(128), 1);
    EXPECT_EQ(cost::mergeLevels(129), 2);
    EXPECT_EQ(cost::mergeLevels(64 * 1024), 10);
}

} // namespace
} // namespace sbhbm::sim
