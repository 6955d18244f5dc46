/**
 * @file
 * Unit tests for the core pipeline structures: rename map, LSQ,
 * issue window and functional unit arbiter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "core/functional_units.hh"
#include "core/issue_window.hh"
#include "core/lsq.hh"
#include "core/rename_map.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {
namespace {

// ---------------------------------------------------------------------------
// RenameMap (R10000 style).
// ---------------------------------------------------------------------------

TEST(RenameMap, IdentityAtReset)
{
    Arena arena;
    RenameMap rm(arena, 192);
    for (unsigned r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(rm.lookup(static_cast<ArchReg>(r)), r);
    EXPECT_EQ(rm.freeCount(), 192u - kNumArchRegs);
}

TEST(RenameMap, AllocateUpdatesMappingAndReturnsOld)
{
    Arena arena;
    RenameMap rm(arena, 192);
    auto [fresh, old] = rm.allocate(5);
    EXPECT_EQ(old, 5u);
    EXPECT_EQ(rm.lookup(5), fresh);
    EXPECT_GE(fresh, kNumArchRegs);
}

TEST(RenameMap, ExhaustionAndRelease)
{
    Arena arena;
    RenameMap rm(arena, kNumArchRegs + 2);
    EXPECT_TRUE(rm.hasFree());
    auto [f1, o1] = rm.allocate(0);
    auto [f2, o2] = rm.allocate(0);
    (void)f1; (void)f2; (void)o2;
    EXPECT_FALSE(rm.hasFree());
    rm.release(o1);
    EXPECT_TRUE(rm.hasFree());
}

TEST(RenameMap, ChainedAllocationsFreeCorrectRegisters)
{
    Arena arena;
    RenameMap rm(arena, kNumArchRegs + 4);
    // Three writes to r7: releasing each old mapping in retire order
    // must return exactly the previous physical registers.
    auto [p1, o1] = rm.allocate(7);
    auto [p2, o2] = rm.allocate(7);
    auto [p3, o3] = rm.allocate(7);
    EXPECT_EQ(o1, 7u);
    EXPECT_EQ(o2, p1);
    EXPECT_EQ(o3, p2);
    EXPECT_EQ(rm.lookup(7), p3);
}

// ---------------------------------------------------------------------------
// LSQ.
// ---------------------------------------------------------------------------

TEST(Lsq, LoadBlockedByUnknownStoreAddress)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, true, 0x100);   // store, address unknown until issue
    lsq.insert(2, false, 0x200);  // load
    EXPECT_FALSE(lsq.loadMayIssue(2));
    lsq.storeIssued(1);
    EXPECT_TRUE(lsq.loadMayIssue(2));
}

TEST(Lsq, LoadUnaffectedByYoungerStore)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, false, 0x200);  // load
    lsq.insert(2, true, 0x100);   // younger store
    EXPECT_TRUE(lsq.loadMayIssue(1));
}

TEST(Lsq, ForwardingMatchesWordAddress)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, true, 0x100);
    lsq.storeIssued(1);
    lsq.insert(2, false, 0x104);  // same 8-byte word
    lsq.insert(3, false, 0x108);  // different word
    EXPECT_TRUE(lsq.loadForwards(2, 0x104));
    EXPECT_FALSE(lsq.loadForwards(3, 0x108));
}

TEST(Lsq, CoIssuedStoreSatisfiesDisambiguation)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, true, 0x100);
    lsq.insert(2, false, 0x200);
    EXPECT_FALSE(lsq.loadMayIssue(2));
    EXPECT_TRUE(lsq.loadMayIssue(2, {1}));
}

TEST(Lsq, RetireInOrder)
{
    Arena arena;
    Lsq lsq(arena, 4);
    lsq.insert(1, false, 0x0);
    lsq.insert(2, true, 0x8);
    EXPECT_EQ(lsq.size(), 2u);
    lsq.retire(1);
    lsq.storeIssued(2);
    lsq.retire(2);
    EXPECT_EQ(lsq.size(), 0u);
}

TEST(Lsq, SquashDropsYoungEntries)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, false, 0x0);
    lsq.insert(2, true, 0x8);
    lsq.insert(3, false, 0x10);
    lsq.squashFrom(2);
    EXPECT_EQ(lsq.size(), 1u);
    EXPECT_TRUE(lsq.loadMayIssue(99));  // no unknown stores remain
}

TEST(Lsq, CapacityEnforced)
{
    Arena arena;
    Lsq lsq(arena, 2);
    lsq.insert(1, false, 0x0);
    EXPECT_FALSE(lsq.full());
    lsq.insert(2, false, 0x8);
    EXPECT_TRUE(lsq.full());
}

// ---------------------------------------------------------------------------
// IssueWindow.
// ---------------------------------------------------------------------------

/** The window's ready set at @p now, oldest first. */
std::vector<InFlightInst *>
readySet(IssueWindow &iw, Tick now)
{
    std::vector<InFlightInst *> out;
    for (InFlightInst *p = iw.firstReady(now); p != nullptr;
         p = iw.nextReady(p, false))
        out.push_back(p);
    return out;
}

/** A scoreboard of @p regs registers, all ready at tick 0. */
ArenaVector<Tick>
scoreboard(Arena &arena, unsigned regs)
{
    ArenaVector<Tick> ready(arena);
    ready.assign(regs, 0);
    return ready;
}

TEST(IssueWindow, InsertRemoveOccupancy)
{
    Arena arena;
    const ArenaVector<Tick> ready = scoreboard(arena, 4);
    IssueWindow iw(arena, 4, ready, 4);
    InFlightInst a, b;
    a.arch.seq = 1;
    a.iwVisible = 0;
    b.arch.seq = 2;
    b.iwVisible = 0;
    iw.insert(&a);
    iw.insert(&b);
    EXPECT_EQ(iw.occupancy(), 2u);
    EXPECT_TRUE(a.inIw);
    ASSERT_EQ(iw.firstReady(0), &a);
    iw.remove(&a);
    EXPECT_EQ(iw.occupancy(), 1u);
    EXPECT_FALSE(a.inIw);
    EXPECT_EQ(iw.nextReady(&a, false), &b);
}

TEST(IssueWindow, VisibilityRespectsTicks)
{
    Arena arena;
    const ArenaVector<Tick> ready = scoreboard(arena, 4);
    IssueWindow iw(arena, 4, ready, 4);
    InFlightInst a, b;
    a.arch.seq = 1;
    a.iwVisible = 100;
    b.arch.seq = 2;
    b.iwVisible = 50;
    iw.insert(&a);
    iw.insert(&b);
    std::vector<InFlightInst *> out = readySet(iw, 60);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], &b);
    out = readySet(iw, 100);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], &a);  // oldest first despite later visibility
}

TEST(IssueWindow, FullDetection)
{
    Arena arena;
    const ArenaVector<Tick> ready = scoreboard(arena, 4);
    IssueWindow iw(arena, 2, ready, 4);
    InFlightInst a, b;
    a.arch.seq = 1;
    b.arch.seq = 2;
    iw.insert(&a);
    EXPECT_FALSE(iw.full());
    iw.insert(&b);
    EXPECT_TRUE(iw.full());
}

TEST(IssueWindow, WakeFollowsBothSources)
{
    Arena arena;
    ArenaVector<Tick> ready = scoreboard(arena, 4);
    IssueWindow iw(arena, 4, ready, 4);
    ready[1] = kTickMax;
    ready[2] = kTickMax;
    InFlightInst c;
    c.arch.seq = 1;
    c.iwVisible = 10;
    c.src1Phys = 1;
    c.src2Phys = 2;
    iw.insert(&c);
    EXPECT_TRUE(readySet(iw, 15).empty());
    ready[2] = 20;  // the second source's producer issues first
    iw.wake(2);
    EXPECT_TRUE(readySet(iw, 25).empty());
    ready[1] = 30;
    iw.wake(1);
    EXPECT_TRUE(readySet(iw, 29).empty());
    EXPECT_EQ(readySet(iw, 30), std::vector<InFlightInst *>{&c});
}

TEST(IssueWindow, ReadySetMatchesBruteForce)
{
    // A seeded stream of dispatches and producer issues, checked every
    // cycle against the definition of readiness: visible, and both
    // operands' scoreboard ticks passed, in sequence order.  Every
    // instruction gets a fresh destination register, so scoreboard
    // entries only ever go from not-ready to a known tick while read.
    constexpr unsigned kInsts = 3000;
    constexpr unsigned kRegs = 8 + kInsts;
    constexpr Tick kPeriod = 1000;
    Arena arena;
    ArenaVector<Tick> ready = scoreboard(arena, kRegs);
    std::deque<InFlightInst> insts;  // stable addresses, never popped
    std::vector<InFlightInst *> in_window;
    auto iw = std::make_unique<IssueWindow>(arena, 16, ready, kRegs);

    auto brute_force = [&](Tick now) {
        std::vector<InFlightInst *> out;
        for (InFlightInst *p : in_window) {
            const bool ok = p->iwVisible <= now &&
                (p->src1Phys == kNoPhysReg || ready[p->src1Phys] <= now) &&
                (p->src2Phys == kNoPhysReg || ready[p->src2Phys] <= now);
            if (ok)
                out.push_back(p);
        }
        return out;
    };
    // A source: a recently dispatched producer (issued or not), an
    // always-ready register, or none.
    Pcg32 rng(7);
    auto pick_src = [&]() -> PhysReg {
        switch (rng.below(4)) {
          case 0:
            return kNoPhysReg;
          case 1:
            return static_cast<PhysReg>(rng.below(8));
          default:
            if (insts.empty())
                return kNoPhysReg;
            const std::uint32_t back = rng.below(static_cast<std::uint32_t>(
                std::min<std::size_t>(insts.size(), 12)));
            return insts[insts.size() - 1 - back].destPhys;
        }
    };

    unsigned compactions = 0;
    bool restored = false;
    Tick now = 0;
    for (unsigned cycle = 0; insts.size() < kInsts || !in_window.empty();
         ++cycle, now += kPeriod) {
        ASSERT_LT(cycle, 100000u) << "window wedged";
        ASSERT_EQ(readySet(*iw, now), brute_force(now)) << "cycle " << cycle;

        // Select: issue some ready entries; skipped ones model a busy
        // unit or a blocked load and stay ready.
        unsigned issued = 0;
        for (InFlightInst *p = iw->firstReady(now); p != nullptr && issued < 4;
             p = iw->nextReady(p, false)) {
            if (rng.chance(0.3))
                continue;
            iw->remove(p);
            in_window.erase(
                std::find(in_window.begin(), in_window.end(), p));
            ++issued;
            // Zero latency included: a younger consumer woken at
            // `now` is still reachable by this walk.
            ready[p->destPhys] = now + rng.below(6) * kPeriod;
            iw->wake(p->destPhys);
        }
        ASSERT_EQ(readySet(*iw, now), brute_force(now)) << "cycle " << cycle;

        // Dispatch a few instructions behind a visibility delay.
        const unsigned dispatch = rng.below(5);
        for (unsigned d = 0; d < dispatch && !iw->full() &&
                             insts.size() < kInsts;
             ++d) {
            InFlightInst inst;
            inst.arch.seq = insts.size() + 1;
            inst.src1Phys = pick_src();
            inst.src2Phys = pick_src();
            inst.destPhys = static_cast<PhysReg>(8 + insts.size());
            inst.iwVisible = now + (1 + rng.below(3)) * kPeriod;
            ready[inst.destPhys] = kTickMax;
            insts.push_back(inst);
            InFlightInst *p = &insts.back();
            const std::uint32_t before =
                in_window.empty() ? 0 : in_window.back()->iwPos;
            iw->insert(p);
            if (!in_window.empty() && in_window.back()->iwPos < before)
                ++compactions;
            in_window.push_back(p);
        }

        if (!restored && insts.size() >= kInsts / 2) {
            // Round-trip through a snapshot into a fresh window.
            restored = true;
            BinWriter w;
            iw->save(w, [](const InFlightInst *p) {
                return std::uint64_t(p->arch.seq - 1);  // index in insts
            });
            const std::string bytes = w.take();
            iw = std::make_unique<IssueWindow>(arena, 16, ready, kRegs);
            BinReader r(bytes);
            iw->restore(r, [&](std::uint64_t idx) { return &insts[idx]; });
            EXPECT_EQ(iw->occupancy(), in_window.size());
        }
    }
    EXPECT_TRUE(restored);
    EXPECT_GE(compactions, 3u);
}

// ---------------------------------------------------------------------------
// FunctionalUnits.
// ---------------------------------------------------------------------------

TEST(FunctionalUnits, PerCycleWidthLimits)
{
    FuParams fus;  // 4 int ALUs
    Arena arena;
    FunctionalUnits fu(arena, fus, {});
    fu.beginCycle(0);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(fu.tryIssue(OpClass::IntAlu, 0, 1000.0));
    EXPECT_FALSE(fu.tryIssue(OpClass::IntAlu, 0, 1000.0));
    fu.beginCycle(1000);
    EXPECT_TRUE(fu.tryIssue(OpClass::IntAlu, 1000, 1000.0));
}

TEST(FunctionalUnits, MemoryPortsShared)
{
    Arena arena;
    FunctionalUnits fu(arena, {}, {});
    fu.beginCycle(0);
    EXPECT_TRUE(fu.tryIssue(OpClass::Load, 0, 1000.0));
    EXPECT_TRUE(fu.tryIssue(OpClass::Store, 0, 1000.0));
    EXPECT_FALSE(fu.tryIssue(OpClass::Load, 0, 1000.0));
}

TEST(FunctionalUnits, UnpipelinedDivideHoldsUnit)
{
    FuParams fus;
    fus.fpMulDiv = 1;
    FuLatencies lat;
    lat.fpDiv = 12;
    Arena arena;
    FunctionalUnits fu(arena, fus, lat);
    fu.beginCycle(0);
    EXPECT_TRUE(fu.tryIssue(OpClass::FpDiv, 0, 1000.0));
    // Unit busy for 12 cycles; pipelined muls cannot slip in.
    fu.beginCycle(1000);
    EXPECT_FALSE(fu.tryIssue(OpClass::FpMul, 1000, 1000.0));
    fu.beginCycle(12000);
    EXPECT_TRUE(fu.tryIssue(OpClass::FpMul, 12000, 1000.0));
}

TEST(FunctionalUnits, PipelinedMultiplyAcceptsBackToBack)
{
    Arena arena;
    FunctionalUnits fu(arena, {}, {});
    fu.beginCycle(0);
    EXPECT_TRUE(fu.tryIssue(OpClass::IntMul, 0, 1000.0));
    fu.beginCycle(1000);
    EXPECT_TRUE(fu.tryIssue(OpClass::IntMul, 1000, 1000.0));
}

TEST(FunctionalUnits, SaveRestoreUndoesClaims)
{
    Arena arena;
    FunctionalUnits fu(arena, {}, {});
    fu.beginCycle(0);
    FunctionalUnits::State snap;
    fu.save(snap);
    EXPECT_TRUE(fu.tryIssue(OpClass::Load, 0, 1000.0));
    EXPECT_TRUE(fu.tryIssue(OpClass::Store, 0, 1000.0));
    EXPECT_FALSE(fu.canIssue(OpClass::Load, 0, 0));
    fu.restore(snap);
    EXPECT_TRUE(fu.canIssue(OpClass::Load, 0, 0));
    EXPECT_TRUE(fu.tryIssue(OpClass::Load, 0, 1000.0));
}

TEST(FunctionalUnits, CanIssueCountsPriorClaims)
{
    Arena arena;
    FunctionalUnits fu(arena, {}, {});
    fu.beginCycle(0);
    EXPECT_TRUE(fu.canIssue(OpClass::Load, 0, 0));
    EXPECT_TRUE(fu.canIssue(OpClass::Load, 0, 1));
    EXPECT_FALSE(fu.canIssue(OpClass::Load, 0, 2));  // 2 mem ports
}

} // namespace
} // namespace flywheel
