/**
 * @file
 * Energy model tests: technology scaling, clock gating, leakage
 * behaviour across nodes, and breakdown consistency.
 */

#include <gtest/gtest.h>

#include "power/energy_model.hh"

namespace flywheel {
namespace {

EnergyEvents
typicalWindow()
{
    // A plausible 100k-cycle baseline window.
    EnergyEvents e;
    e.icacheAccesses = 50000;
    e.bpredLookups = 15000;
    e.btbLookups = 16000;
    e.decodedOps = 150000;
    e.renameOps = 150000;
    e.dispatchOps = 150000;
    e.iwBroadcasts = 110000;
    e.iwIssues = 150000;
    e.ratAccesses = 200000;
    e.rfReads = 250000;
    e.rfWrites = 110000;
    e.aluOps = 100000;
    e.mulOps = 5000;
    e.fpOps = 20000;
    e.resultBusOps = 110000;
    e.dcacheAccesses = 50000;
    e.l2Accesses = 2000;
    e.memAccesses = 100;
    e.lsqOps = 60000;
    e.robOps = 300000;
    e.totalTicks = 100000000;  // 100k cycles at 1ns
    e.feCycles = 100000;
    e.beCycles = 100000;
    e.iwActiveCycles = 100000;
    return e;
}

TEST(Energy, BreakdownTotalEqualsSumOfParts)
{
    EnergyBreakdown b =
        computeEnergy(typicalWindow(), TechNode::N130, {});
    double sum = b.frontEndPj + b.issuePj + b.execPj + b.memoryPj +
                 b.ecPj + b.clockPj + b.leakagePj;
    EXPECT_NEAR(b.totalPj(), sum, 1e-6);
}

TEST(Energy, DynamicEnergyShrinksWithNode)
{
    EnergyEvents e = typicalWindow();
    double e130 = computeEnergy(e, TechNode::N130, {}).frontEndPj;
    double e90 = computeEnergy(e, TechNode::N90, {}).frontEndPj;
    double e60 = computeEnergy(e, TechNode::N60, {}).frontEndPj;
    EXPECT_GT(e130, e90);
    EXPECT_GT(e90, e60);
    // C*Vdd^2 scaling: 90nm/130nm = (0.09/0.13)*(1.2/1.4)^2.
    EXPECT_NEAR(e90 / e130, (0.09 / 0.13) * (1.2 / 1.4) * (1.2 / 1.4),
                1e-6);
}

TEST(Energy, LeakageFractionGrowsAsNodesShrink)
{
    EnergyEvents e = typicalWindow();
    double frac130, frac90, frac60;
    auto frac = [&](TechNode n) {
        EnergyBreakdown b = computeEnergy(e, n, {});
        return b.leakagePj / b.totalPj();
    };
    frac130 = frac(TechNode::N130);
    frac90 = frac(TechNode::N90);
    frac60 = frac(TechNode::N60);
    EXPECT_LT(frac130, frac90);
    EXPECT_LT(frac90, frac60);
    // Paper's premise: leakage is a modest fraction at 0.13um and a
    // large one at 0.06um.
    EXPECT_LT(frac130, 0.2);
    EXPECT_GT(frac60, 0.25);
}

TEST(Energy, ClockIsMajorShareOfBaseline)
{
    EnergyBreakdown b =
        computeEnergy(typicalWindow(), TechNode::N130, {});
    double clock_share = b.clockPj / b.totalPj();
    EXPECT_GT(clock_share, 0.15);
    EXPECT_LT(clock_share, 0.45);
}

TEST(Energy, GatingFrontEndClockSavesEnergy)
{
    EnergyEvents on = typicalWindow();
    EnergyEvents gated = on;
    gated.feCycles = on.feCycles / 10;       // FE clock gated 90%
    gated.iwActiveCycles = on.beCycles / 10; // IW gated too
    double e_on = computeEnergy(on, TechNode::N130, {}).clockPj;
    double e_gated = computeEnergy(gated, TechNode::N130, {}).clockPj;
    EXPECT_LT(e_gated, e_on * 0.8);
}

TEST(Energy, ExecCacheAddsLeakingDevices)
{
    LeakageConfig base;
    LeakageConfig fly;
    fly.hasExecCache = true;
    fly.bigRegfile = true;
    double extra = leakageDeviceBits(fly) / leakageDeviceBits(base);
    // The 128K EC + 512-entry RF add a substantial leakage overhead
    // (this is what erodes the Flywheel's savings at 60nm, Fig 15).
    EXPECT_GT(extra, 1.2);
    EXPECT_LT(extra, 1.8);
}

TEST(Energy, LeakageScalesWithTimeNotActivity)
{
    EnergyEvents e = typicalWindow();
    EnergyEvents longer = e;
    longer.totalTicks = e.totalTicks * 2;
    double l1 = computeEnergy(e, TechNode::N90, {}).leakagePj;
    double l2 = computeEnergy(longer, TechNode::N90, {}).leakagePj;
    EXPECT_NEAR(l2 / l1, 2.0, 1e-9);
}

TEST(Energy, EventDifferenceIsElementwise)
{
    const EnergyEvents a = typicalWindow();
    EnergyEvents b = a;
    b.icacheAccesses *= 3;
    b.totalTicks *= 3;
    b.beCycles *= 3;
    const EnergyEvents d = b - a;
    EXPECT_EQ(d.icacheAccesses, 2 * a.icacheAccesses);
    EXPECT_EQ(d.totalTicks, 2 * a.totalTicks);
    EXPECT_EQ(d.beCycles, 2 * a.beCycles);
    EXPECT_EQ(d.rfReads, 0u);  // fields equal in both cancel
}

TEST(Energy, AverageWattsConsistent)
{
    EnergyBreakdown b =
        computeEnergy(typicalWindow(), TechNode::N130, {});
    double w = b.averageWatts(100000000);
    EXPECT_NEAR(w, b.totalPj() / 1e8, 1e-12);
    EXPECT_GT(w, 0.0);
}

} // namespace
} // namespace flywheel
