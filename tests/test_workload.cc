/**
 * @file
 * Tests of the synthetic workload substrate: static program
 * invariants and dynamic stream semantics, swept across every paper
 * benchmark profile, and the snapshot record codec that derives an
 * instruction's static fields from the program.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "snapshot/bincodec.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace flywheel {
namespace {

class ProgramInvariants : public ::testing::TestWithParam<std::string>
{
  protected:
    const BenchProfile &profile() { return benchmarkByName(GetParam()); }
};

TEST_P(ProgramInvariants, AllBranchTargetsValid)
{
    StaticProgram prog(profile());
    const auto &blocks = prog.blocks();
    for (const auto &b : blocks) {
        if (b.term.kind != TermKind::None) {
            ASSERT_LT(b.term.target, blocks.size());
        }
        ASSERT_LT(b.fallthrough, blocks.size());
    }
}

TEST_P(ProgramInvariants, AddressesAreContiguousAndOrdered)
{
    StaticProgram prog(profile());
    Addr expected = StaticProgram::codeBase();
    for (const auto &b : prog.blocks()) {
        ASSERT_EQ(b.pc, expected);
        expected += static_cast<Addr>(b.size()) * kInstBytes;
    }
}

TEST_P(ProgramInvariants, BuildIsDeterministic)
{
    StaticProgram a(profile());
    StaticProgram b(profile());
    ASSERT_EQ(a.blocks().size(), b.blocks().size());
    for (std::size_t i = 0; i < a.blocks().size(); ++i) {
        ASSERT_EQ(a.blocks()[i].pc, b.blocks()[i].pc);
        ASSERT_EQ(a.blocks()[i].ops.size(), b.blocks()[i].ops.size());
        ASSERT_EQ(int(a.blocks()[i].term.kind),
                  int(b.blocks()[i].term.kind));
    }
}

TEST_P(ProgramInvariants, DataObjectsDoNotOverlap)
{
    StaticProgram prog(profile());
    const auto &objs = prog.objects();
    for (std::size_t i = 1; i < objs.size(); ++i) {
        ASSERT_GE(objs[i].base, objs[i - 1].base + objs[i - 1].size)
            << "object " << i << " overlaps its predecessor";
    }
}

TEST_P(ProgramInvariants, LoopsBranchBackward)
{
    StaticProgram prog(profile());
    for (std::size_t i = 0; i < prog.blocks().size(); ++i) {
        const auto &b = prog.blocks()[i];
        if (b.term.kind == TermKind::Loop) {
            ASSERT_LE(b.term.target, i) << "loop target not backward";
        }
    }
}

TEST_P(ProgramInvariants, BlockSizesWithinCaps)
{
    StaticProgram prog(profile());
    for (const auto &b : prog.blocks()) {
        ASSERT_GE(b.ops.size(), 1u);
        ASSERT_LE(b.ops.size(), 16u);
    }
}

TEST_P(ProgramInvariants, DecodeAtRefusesPcsOutsideTheCode)
{
    StaticProgram prog(profile());
    const BasicBlock &last = prog.blocks().back();
    const Addr end = last.pc + last.size() * kInstBytes;
    DynInst d;
    EXPECT_TRUE(prog.decodeAt(StaticProgram::codeBase(), &d));
    EXPECT_TRUE(prog.decodeAt(end - kInstBytes, &d));
    EXPECT_FALSE(prog.decodeAt(0, &d));
    EXPECT_FALSE(prog.decodeAt(StaticProgram::codeBase() - kInstBytes, &d));
    EXPECT_FALSE(prog.decodeAt(end, &d));
    EXPECT_FALSE(prog.decodeAt(StaticProgram::dataBase(), &d));
    EXPECT_FALSE(prog.decodeAt(StaticProgram::codeBase() + 2, &d));
    EXPECT_FALSE(prog.decodeAt(end - 1, &d));
}

TEST_P(ProgramInvariants, DecodeAtHintNeverChangesTheAnswer)
{
    StaticProgram prog(profile());
    const std::size_t blocks = prog.blocks().size();
    const BasicBlock &last = prog.blocks().back();
    const Addr end = last.pc + last.size() * kInstBytes;
    auto same = [](const DynInst &a, const DynInst &b) {
        return a.op == b.op && a.dest == b.dest && a.src1 == b.src1 &&
               a.src2 == b.src2 && a.isCondBranch == b.isCondBranch &&
               a.target == b.target;
    };
    // Walk every instruction and the PCs just outside the code, with
    // a running hint and with stale or out-of-range ones.
    std::size_t running = 0;
    for (Addr pc = StaticProgram::codeBase() - kInstBytes;
         pc <= end; pc += kInstBytes) {
        DynInst want;
        const bool found = prog.decodeAt(pc, &want);
        for (std::size_t stale : {std::size_t(0), blocks - 1, blocks}) {
            DynInst got;
            ASSERT_EQ(prog.decodeAt(pc, &got, &stale), found) << pc;
            EXPECT_TRUE(!found || same(got, want)) << pc;
        }
        DynInst got;
        ASSERT_EQ(prog.decodeAt(pc, &got, &running), found) << pc;
        if (!found)
            continue;
        EXPECT_TRUE(same(got, want)) << pc;
        const BasicBlock &b = prog.blocks()[running];
        EXPECT_TRUE(pc >= b.pc && pc < b.pc + b.size() * kInstBytes);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ProgramInvariants,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto &param_info) { return param_info.param; });

class StreamInvariants : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StreamInvariants, SequenceNumbersAreContiguous)
{
    StaticProgram prog(benchmarkByName(GetParam()));
    WorkloadStream s(prog);
    InstSeqNum expected = 1;
    for (int i = 0; i < 30000; ++i) {
        const DynInst &d = s.next();
        ASSERT_EQ(d.seq, expected) << "hole in sequence numbering";
        ++expected;
    }
}

TEST_P(StreamInvariants, ControlFlowIsWellFormed)
{
    StaticProgram prog(benchmarkByName(GetParam()));
    WorkloadStream s(prog);
    Addr prev_next = 0;
    bool have_prev = false;
    for (int i = 0; i < 30000; ++i) {
        const DynInst &d = s.next();
        if (have_prev) {
            ASSERT_EQ(d.pc, prev_next) << "PC does not follow nextPc()";
        }
        prev_next = d.nextPc();
        have_prev = true;
    }
}

TEST_P(StreamInvariants, PeekMatchesNext)
{
    StaticProgram prog(benchmarkByName(GetParam()));
    WorkloadStream s1(prog), s2(prog);
    // Peek far ahead on s1, then verify next() yields the same insts.
    std::vector<DynInst> ahead;
    for (int k = 0; k < 500; ++k)
        ahead.push_back(s1.peek(k));
    for (int k = 0; k < 500; ++k) {
        const DynInst &d = s2.next();
        ASSERT_EQ(d.pc, ahead[k].pc);
        ASSERT_EQ(d.seq, ahead[k].seq);
        ASSERT_EQ(d.taken, ahead[k].taken);
    }
}

TEST_P(StreamInvariants, MemoryAccessesStayInsideObjects)
{
    StaticProgram prog(benchmarkByName(GetParam()));
    WorkloadStream s(prog);
    Addr lo = StaticProgram::dataBase();
    Addr hi = prog.objects().back().base + prog.objects().back().size;
    for (int i = 0; i < 30000; ++i) {
        const DynInst &d = s.next();
        if (isMemOp(d.op)) {
            ASSERT_GE(d.effAddr, lo);
            ASSERT_LT(d.effAddr, hi);
        }
    }
}

TEST_P(StreamInvariants, StreamIsDeterministic)
{
    StaticProgram prog(benchmarkByName(GetParam()));
    WorkloadStream a(prog), b(prog);
    for (int i = 0; i < 20000; ++i) {
        const DynInst &x = a.next();
        const DynInst &y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.effAddr, y.effAddr);
    }
}

TEST_P(StreamInvariants, OpMixRoughlyMatchesProfile)
{
    const BenchProfile &p = benchmarkByName(GetParam());
    StaticProgram prog(p);
    WorkloadStream s(prog);
    std::map<OpClass, int> counts;
    const int n = 60000;
    for (int i = 0; i < n; ++i)
        counts[s.next().op]++;
    double load_frac = double(counts[OpClass::Load]) / n;
    double fp_frac = double(counts[OpClass::FpAdd] +
                            counts[OpClass::FpMul] +
                            counts[OpClass::FpDiv]) / n;
    // Branches dilute the straight-line fractions; allow a wide band.
    EXPECT_NEAR(load_frac, p.loadFrac * 0.88, 0.08);
    if (p.fpFrac > 0.0)
        EXPECT_NEAR(fp_frac, p.fpFrac * 0.88, 0.10);
    else
        EXPECT_EQ(fp_frac, 0.0);
}

TEST_P(StreamInvariants, BranchesHaveCondSources)
{
    StaticProgram prog(benchmarkByName(GetParam()));
    WorkloadStream s(prog);
    for (int i = 0; i < 20000; ++i) {
        const DynInst &d = s.next();
        if (d.isBranch() && d.isCondBranch) {
            ASSERT_NE(d.src1, kNoArchReg);
        }
    }
}

TEST_P(StreamInvariants, DecodeAtMatchesEveryStreamedInstruction)
{
    StaticProgram prog(benchmarkByName(GetParam()));
    WorkloadStream s(prog);
    for (int i = 0; i < 200000; ++i) {
        const DynInst &d = s.next();
        DynInst e;
        ASSERT_TRUE(prog.decodeAt(d.pc, &e)) << d.toString();
        ASSERT_EQ(e.op, d.op) << d.toString();
        ASSERT_EQ(e.dest, d.dest) << d.toString();
        ASSERT_EQ(e.src1, d.src1) << d.toString();
        ASSERT_EQ(e.src2, d.src2) << d.toString();
        ASSERT_EQ(e.isCondBranch, d.isCondBranch) << d.toString();
        ASSERT_EQ(e.target, d.target) << d.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, StreamInvariants,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto &param_info) { return param_info.param; });

bool
sameInst(const DynInst &a, const DynInst &b)
{
    return a.seq == b.seq && a.pc == b.pc && a.op == b.op &&
           a.dest == b.dest && a.src1 == b.src1 && a.src2 == b.src2 &&
           a.isCondBranch == b.isCondBranch && a.taken == b.taken &&
           a.target == b.target && a.effAddr == b.effAddr;
}

class StreamLookahead : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(StreamLookahead, PeekThenNextEquivalence)
{
    // Whatever peek(k) showed must be exactly what the next k+1
    // next() calls deliver, at any seed and at any buffer fill level.
    StaticProgram prog(benchmarkByName("parser"));
    WorkloadStream s(prog, GetParam());
    Pcg32 rng(GetParam() ^ 0xabcdef);
    for (int round = 0; round < 200; ++round) {
        const std::size_t k = rng.below(40);
        std::vector<DynInst> ahead;
        for (std::size_t i = 0; i <= k; ++i)
            ahead.push_back(s.peek(i));
        for (std::size_t i = 0; i <= k; ++i) {
            const DynInst &d = s.next();
            ASSERT_TRUE(sameInst(d, ahead[i]))
                << "round " << round << " offset " << i << ": peeked {"
                << ahead[i].toString() << "} got {" << d.toString()
                << "}";
        }
    }
}

TEST_P(StreamLookahead, PeekDoesNotPerturbTheStream)
{
    // A stream hammered with lookahead yields the identical dynamic
    // instruction sequence as an undisturbed twin.
    StaticProgram prog(benchmarkByName("vpr"));
    WorkloadStream peeky(prog, GetParam());
    WorkloadStream plain(prog, GetParam());
    Pcg32 rng(GetParam() + 17);
    for (int i = 0; i < 5000; ++i) {
        // Random redundant lookahead before every consume.
        peeky.peek(rng.below(24));
        if (rng.chance(0.2))
            peeky.peek(rng.below(64));
        const DynInst &a = peeky.next();
        const DynInst &b = plain.next();
        ASSERT_TRUE(sameInst(a, b))
            << "diverged at " << i << ": {" << a.toString()
            << "} vs {" << b.toString() << "}";
    }
    EXPECT_EQ(peeky.consumed(), plain.consumed());
}

TEST_P(StreamLookahead, PeekIsIdempotent)
{
    StaticProgram prog(benchmarkByName("gzip"));
    WorkloadStream s(prog, GetParam());
    for (std::size_t k : {0u, 3u, 17u, 63u}) {
        const DynInst first = s.peek(k);
        const DynInst again = s.peek(k);
        ASSERT_TRUE(sameInst(first, again)) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StreamLookahead,
    ::testing::Values(0ULL, 1ULL, 0xfeedULL, 0xdeadbeefULL,
                      0x123456789abcdefULL),
    [](const auto &param_info) {
        return "seed" + std::to_string(param_info.index);
    });

TEST(StreamLookahead, DifferentStreamSeedsDiverge)
{
    // The stream seed is a real axis: same program, different seeds
    // must produce different dynamic behaviour somewhere.
    StaticProgram prog(benchmarkByName("vpr"));
    WorkloadStream a(prog, 1), b(prog, 2);
    bool diverged = false;
    for (int i = 0; i < 20000 && !diverged; ++i) {
        const DynInst &x = a.next();
        const DynInst &y = b.next();
        diverged = !sameInst(x, y);
    }
    EXPECT_TRUE(diverged);
}

TEST(WorkloadProfilesDeathTest, UnknownNameListsValidNames)
{
    EXPECT_EXIT(benchmarkByName("no-such-bench"),
                ::testing::ExitedWithCode(1),
                "unknown benchmark 'no-such-bench'.*valid names: "
                "ijpeg, gcc, gzip, vpr, mesa, equake, parser, vortex, "
                "bzip2, turb3d");
}

TEST(WorkloadProfiles, TenPaperBenchmarks)
{
    EXPECT_EQ(paperBenchmarks().size(), 10u);
    EXPECT_EQ(benchmarkNames().front(), "ijpeg");
    EXPECT_EQ(benchmarkNames().back(), "turb3d");
}

TEST(WorkloadProfiles, VortexHasLargestCodeFootprint)
{
    const auto &all = paperBenchmarks();
    unsigned vortex_blocks = benchmarkByName("vortex").staticBlocks;
    for (const auto &p : all) {
        if (std::string(p.name) != "vortex") {
            EXPECT_LT(p.staticBlocks, vortex_blocks);
        }
    }
}

TEST(InstRecordCodec, RoundTripsCorrectPathWrongPathAndDefaultRecords)
{
    StaticProgram prog(benchmarkByName("gcc"));
    WorkloadStream s(prog);
    // Correct-path records: a stretch of the stream with a load, a
    // store and a taken branch in it.
    std::vector<DynInst> list;
    bool load = false, store = false, taken = false;
    while (!(load && store && taken) || list.size() < 16) {
        const DynInst &d = s.next();
        load |= d.isLoad();
        store |= d.isStore();
        taken |= d.isBranch() && d.taken;
        list.push_back(d);
    }
    const std::size_t correct = list.size();
    // Wrong-path replay entries: a branch with target 0, and an op
    // whose destination was dropped.
    auto first = [&list](bool (DynInst::*has)() const) {
        return *std::find_if(list.begin(), list.end(),
                             [has](const DynInst &d) { return (d.*has)(); });
    };
    DynInst wrong_branch = first(&DynInst::isBranch);
    wrong_branch.target = 0;
    DynInst wrong_dest = first(&DynInst::hasDest);
    wrong_dest.dest = kNoArchReg;
    list.push_back(wrong_branch);
    list.push_back(wrong_dest);
    list.push_back(DynInst{});

    BinWriter w;
    InstRecordCodec writer(prog);
    std::vector<std::size_t> sizes;
    for (const DynInst &d : list) {
        const std::size_t before = w.size();
        writer.put(w, d);
        sizes.push_back(w.size() - before);
    }
    BinReader r(w.bytes());
    InstRecordCodec reader(prog);
    for (std::size_t i = 0; i < list.size(); ++i) {
        const DynInst d = reader.get(r);
        EXPECT_TRUE(sameInst(d, list[i]))
            << i << ": " << d.toString() << " vs " << list[i].toString();
    }
    EXPECT_EQ(r.remaining(), 0u);

    // A correct-path record derives its static fields: a non-memory
    // one is its flags and two one-byte deltas.  A record that differs
    // from the program carries them.
    for (std::size_t i = 1; i < correct; ++i) {
        if (!isMemOp(list[i].op)) {
            EXPECT_EQ(sizes[i], InstRecordCodec::kMinBytes) << i;
        }
    }
    EXPECT_GT(sizes[correct], InstRecordCodec::kMinBytes);
    EXPECT_GT(sizes[correct + 1], InstRecordCodec::kMinBytes);
}

TEST(Workload, LoopTripsRoughlyMatchMean)
{
    BenchProfile p = benchmarkByName("gzip");
    StaticProgram prog(p);
    WorkloadStream s(prog);
    // Count taken-runs of one specific loop branch.
    std::map<Addr, std::pair<long, long>> taken_not;  // per branch pc
    for (int i = 0; i < 200000; ++i) {
        const DynInst &d = s.next();
        if (d.isBranch() && d.isCondBranch) {
            auto &tn = taken_not[d.pc];
            (d.taken ? tn.first : tn.second)++;
        }
    }
    // At least one heavily-taken backward branch (a loop-back) should
    // show a taken/not-taken ratio near the profile's mean trip count.
    bool found = false;
    for (auto &[pc, tn] : taken_not) {
        if (tn.second >= 5 && tn.first > tn.second) {
            double trips = double(tn.first + tn.second) / tn.second;
            if (trips > p.loopTripMean / 4.0 &&
                trips < p.loopTripMean * 4.0) {
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace flywheel
