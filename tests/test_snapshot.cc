/**
 * @file
 * Tests for the state snapshot subsystem (src/snapshot/): bit-exact
 * save/restore round-trips across every core kind — through a full
 * serialize/deserialize cycle, standing in for a fresh process image
 * — file-level hardening (corrupt / truncated / version-mismatched
 * snapshots rejected with clear errors), the Checkpointer's
 * compute-once and disk-reuse semantics, runSim's restore through a
 * Checkpointer, checkpoint-key canonicalization, the pinned container
 * content hash, the CoreStats window-delta operator, the varint codec
 * and its bounds, and that caches, the BTB and the Execution Cache
 * save their replacement order, not their timestamps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.hh"
#include "branch/btb.hh"
#include "common/random.hh"
#include "core/report.hh"
#include "core/sim_driver.hh"
#include "flywheel/exec_cache.hh"
#include "mem/cache.hh"
#include "snapshot/checkpointer.hh"
#include "snapshot/snapshot.hh"
#include "sweep/sweep.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace flywheel {
namespace {

RunConfig
smallConfig(const char *bench, CoreKind kind)
{
    RunConfig c;
    c.profile = benchmarkByName(bench);
    c.kind = kind;
    c.warmupInstrs = 10000;
    c.measureInstrs = 15000;
    return c;
}

std::string
coreStateDump(const CoreBase &core)
{
    return toJson(core.stats()).dump() + toJson(core.events()).dump();
}

/** Round-trip the snapshot through its serialized byte form. */
Snapshot
throughBytes(const Snapshot &snap)
{
    Snapshot back;
    std::string error;
    EXPECT_TRUE(Snapshot::deserialize(snap.serialize(), &back, &error))
        << error;
    return back;
}

/** Every section's name and raw bytes, in order. */
std::vector<std::pair<std::string, std::string>>
sectionsOf(const Snapshot &snap)
{
    std::vector<std::pair<std::string, std::string>> sections;
    for (std::size_t i = 0; i < snap.sectionCount(); ++i)
        sections.emplace_back(snap.sectionName(i), snap.sectionData(i));
    return sections;
}

/** A factory for @p key's one-section snapshot that counts its runs. */
Checkpointer::Factory
countingFactory(const std::string &key, std::atomic<unsigned> *runs,
                std::chrono::milliseconds delay =
                    std::chrono::milliseconds(0))
{
    return [key, runs, delay] {
        ++*runs;
        std::this_thread::sleep_for(delay);
        auto s = std::make_shared<Snapshot>();
        s->setKey(key);
        BinWriter w;
        for (std::uint64_t j = 0; j < 512; ++j)
            w.u64(j * 0x9e3779b97f4a7c15ULL);
        s->addSection("payload", w.take());
        return std::shared_ptr<const Snapshot>(std::move(s));
    };
}

TEST(SnapshotRoundTrip, BitIdenticalForEveryCoreKindAndBenchmark)
{
    for (CoreKind kind : {CoreKind::Baseline,
                          CoreKind::RegisterAllocation,
                          CoreKind::Flywheel}) {
        for (const char *bench : {"gcc", "vortex"}) {
            SCOPED_TRACE(std::string(coreKindName(kind)) + "/" + bench);
            const RunConfig config = smallConfig(bench, kind);

            // Uninterrupted reference run.
            StaticProgram program(config.profile);
            WorkloadStream stream_a(program);
            auto core_a = makeCore(config, stream_a);
            core_a->run(config.warmupInstrs);
            core_a->run(config.measureInstrs);

            // Twin: snapshot at the warmup boundary, serialize,
            // deserialize, restore into freshly built objects (a
            // stand-in for a new process), then measure.
            WorkloadStream stream_b(program);
            auto core_b = makeCore(config, stream_b);
            core_b->run(config.warmupInstrs);
            Snapshot snap;
            core_b->save(snap);
            const Snapshot back = throughBytes(snap);

            StaticProgram program_c(config.profile);
            WorkloadStream stream_c(program_c);
            auto core_c = makeCore(config, stream_c);
            core_c->restore(back);
            core_c->run(config.measureInstrs);

            EXPECT_EQ(coreStateDump(*core_a), coreStateDump(*core_c));
            EXPECT_EQ(core_a->elapsedPs(), core_c->elapsedPs());
        }
    }
}

TEST(SnapshotRoundTrip, MidRunSnapshotContinuesBitIdentically)
{
    // Not at the warmup boundary: an arbitrary retire count, which
    // for the Flywheel lands mid-replay / mid-trace-build.
    const RunConfig config = smallConfig("gcc", CoreKind::Flywheel);
    StaticProgram program(config.profile);

    WorkloadStream stream_a(program);
    auto core_a = makeCore(config, stream_a);
    core_a->run(7321);
    Snapshot snap;
    core_a->save(snap);
    core_a->run(9000);

    StaticProgram program_b(config.profile);
    WorkloadStream stream_b(program_b);
    auto core_b = makeCore(config, stream_b);
    core_b->restore(throughBytes(snap));
    core_b->run(9000);

    EXPECT_EQ(coreStateDump(*core_a), coreStateDump(*core_b));
}

TEST(SnapshotRoundTrip, RunSimRestoresCheckpointsBitIdentically)
{
    const std::string dir = ::testing::TempDir() + "fw_snap_ckpt";
    const RunConfig config = smallConfig("gzip", CoreKind::Flywheel);

    // Start from an empty store.
    Checkpointer cold(dir);
    const std::string path = cold.pathFor(checkpointKey(config));
    std::remove(path.c_str());

    const RunResult reference = runSim(config);

    // The first checkpointed run simulates the warmup and saves...
    const RunResult first = runSim(config, &cold);
    EXPECT_EQ(cold.computes(), 1u);
    std::ifstream saved(path);
    EXPECT_TRUE(saved.good()) << path;
    // ...and a fresh store over the same directory restores it.
    Checkpointer warm(dir);
    const RunResult second = runSim(config, &warm);
    EXPECT_EQ(warm.diskHits(), 1u);
    EXPECT_TRUE(second.telemetry.warmupRestored);

    EXPECT_EQ(toJson(reference).dump(), toJson(first).dump());
    EXPECT_EQ(toJson(reference).dump(), toJson(second).dump());
}

/** A populated snapshot of @p kind's full simulator state. */
Snapshot
snapshotOf(CoreKind kind)
{
    const RunConfig config = smallConfig("gcc", kind);
    StaticProgram program(config.profile);
    WorkloadStream stream(program);
    auto core = makeCore(config, stream);
    core->run(2000);
    Snapshot snap;
    snap.setKey("test-key");
    core->save(snap);
    return snap;
}

TEST(SnapshotFile, BinaryRejectsTruncationCorruptionAndVersionMismatch)
{
    // Every snapshot kind: the container hardening must not depend on
    // which core's sections happen to be inside.
    for (CoreKind kind : {CoreKind::Baseline,
                          CoreKind::RegisterAllocation,
                          CoreKind::Flywheel}) {
        SCOPED_TRACE(coreKindName(kind));
        const Snapshot snap = snapshotOf(kind);
        const std::string bytes = snap.serialize();

        Snapshot out;
        std::string error;

        // Intact bytes parse (the baseline for the mutations below).
        EXPECT_TRUE(Snapshot::deserialize(bytes, &out, &error))
            << error;

        // Truncation at several depths: header, section table, and
        // mid-payload.
        for (std::size_t keep :
             {std::size_t(4), std::size_t(20), bytes.size() / 2,
              bytes.size() - 1}) {
            EXPECT_FALSE(Snapshot::deserialize(bytes.substr(0, keep),
                                               &out, &error))
                << "kept " << keep << " of " << bytes.size();
        }

        // Corruption: flip one payload byte near the end (inside
        // section data, past the header).  Either the LZSS stream
        // breaks or the content hash no longer matches; both must
        // reject with a "corrupt"-class error.
        std::string corrupt = bytes;
        corrupt[corrupt.size() - 3] =
            static_cast<char>(corrupt[corrupt.size() - 3] ^ 0x5A);
        EXPECT_FALSE(Snapshot::deserialize(corrupt, &out, &error));
        EXPECT_NE(error.find("corrupt"), std::string::npos) << error;

        // Version bump: clear error naming both versions.  The u32
        // version field sits right after the magic bytes.
        std::string versioned = bytes;
        versioned[18] = 99;
        EXPECT_FALSE(Snapshot::deserialize(versioned, &out, &error));
        EXPECT_NE(error.find("version 99"), std::string::npos)
            << error;
        EXPECT_NE(error.find(std::to_string(Snapshot::kFormatVersion)),
                  std::string::npos)
            << error;

        // Wrong magic: not a snapshot at all.
        std::string magic = bytes;
        magic.replace(0, 8, "deadbeef");
        EXPECT_FALSE(Snapshot::deserialize(magic, &out, &error));
        EXPECT_NE(error.find("magic"), std::string::npos) << error;

        // Trailing garbage after the payload.
        EXPECT_FALSE(
            Snapshot::deserialize(bytes + "extra", &out, &error));
        EXPECT_NE(error.find("trailing"), std::string::npos) << error;
    }

    // readFile: missing file reports the path.
    Snapshot out;
    std::string error;
    EXPECT_FALSE(Snapshot::readFile("/nonexistent/snap.fws", &out,
                                    &error));
    EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

/** Container header up to (not including) the section count. */
BinWriter
headerWriter()
{
    BinWriter w;
    // The magic tag is stored with its NUL terminator.
    w.raw(std::string(Snapshot::kMagic, std::strlen(Snapshot::kMagic) + 1));
    w.u32(static_cast<std::uint32_t>(Snapshot::kFormatVersion));
    w.u64(0);  // content hash; never reached
    w.str("test-key");
    return w;
}

TEST(SnapshotFile, ContentHashIsPinned)
{
    // Every .fws header carries this hash.  Its offset basis is not
    // fnv1a64's, and changing it would invalidate every stored
    // checkpoint, so the value of one fixed snapshot is pinned.
    Snapshot snap;
    snap.setKey("pinned");
    BinWriter w;
    w.u64(0x0123456789ABCDEFULL);
    w.str("flywheel");
    snap.addSection("payload", w.take());
    EXPECT_EQ(snap.contentHash(), 0x1a84ca978718f499ULL);

    Snapshot back;
    std::string error;
    ASSERT_TRUE(Snapshot::deserialize(snap.serialize(), &back, &error))
        << error;
    EXPECT_EQ(back.contentHash(), 0x1a84ca978718f499ULL);
}

TEST(SnapshotFile, RejectsSectionCountBeyondFileSize)
{
    // A hostile u32 section count must be rejected from the bytes
    // actually present, not reserved (which threw std::bad_alloc).
    BinWriter w = headerWriter();
    w.u32(0xFFFFFFFFu);
    Snapshot out;
    std::string error;
    bool ok = true;
    EXPECT_NO_THROW(ok = Snapshot::deserialize(w.take(), &out, &error));
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("section count"), std::string::npos) << error;
}

TEST(SnapshotFile, RejectsRawSizeBeyondCompressedExpansion)
{
    // A compressed section whose u64 raw size no LZSS stream of its
    // stored size can expand to (reserving it threw
    // std::length_error).
    BinWriter w = headerWriter();
    w.u32(1);
    w.str("payload");
    w.u8(1);  // compressed
    w.u64(std::uint64_t(1) << 62);
    w.u64(4);
    w.raw(std::string("\0abc", 4));
    Snapshot out;
    std::string error;
    bool ok = true;
    EXPECT_NO_THROW(ok = Snapshot::deserialize(w.take(), &out, &error));
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
}

/** The program whose code the Execution Cache tests' traces lie in. */
const StaticProgram &
traceProgram()
{
    static const StaticProgram program(benchmarkByName("gcc"));
    return program;
}

TEST(SnapshotCodec, VarintsRoundTripAtTheirEdges)
{
    const std::uint64_t unsigned_values[] = {
        0, 1, 127, 128, 16383, 16384, 0xFFFFFFFFULL,
        std::uint64_t(1) << 63, ~std::uint64_t(0)};
    const std::int64_t signed_values[] = {
        0, -1, 1, -64, 64, -65, INT64_MIN, INT64_MAX};
    // Ticks around a base, with kTickMax its own value.
    const Tick base = 123456789;
    const Tick ticks[] = {base, base + 1, base - 1, 0, kTickMax,
                          kTickMax - 1};
    BinWriter w;
    for (std::uint64_t v : unsigned_values)
        w.uvar(v);
    for (std::int64_t v : signed_values)
        w.svar(v);
    for (Tick t : ticks)
        tickToBin(w, base, t);
    BinReader r(w.bytes());
    for (std::uint64_t v : unsigned_values)
        EXPECT_EQ(r.uvar(), v);
    for (std::int64_t v : signed_values)
        EXPECT_EQ(r.svar(), v);
    for (Tick t : ticks)
        EXPECT_EQ(tickFromBin(r, base), t);
    EXPECT_EQ(r.remaining(), 0u);

    // Seven bits per byte, small magnitudes in one byte.
    BinWriter sizes;
    sizes.uvar(127);
    sizes.svar(-64);
    sizes.svar(63);
    EXPECT_EQ(sizes.size(), 3u);
    sizes.uvar(~std::uint64_t(0));
    EXPECT_EQ(sizes.size(), 13u);
}

TEST(SnapshotCodecDeathTest, MalformedVarintsAndCountsDieOnTheOverrunCheck)
{
    // Eleven continuation bytes: longer than any 64-bit varint.
    const std::string too_long(11, '\x80');
    EXPECT_DEATH(BinReader(too_long).uvar(), "snapshot section overrun");
    // Ten bytes whose last carries bits past bit 63.
    const std::string overflow = std::string(9, '\xFF') + '\x02';
    EXPECT_DEATH(BinReader(overflow).uvar(), "snapshot section overrun");
    // A cut varint is a short read like any other.
    EXPECT_DEATH(BinReader(std::string(1, '\x80')).uvar(),
                 "snapshot section overrun");

    // A podArray count of 2^61 (whose byte size wraps to 0) behind the
    // Execution Cache's pin list.
    const StaticProgram &program = traceProgram();
    BinWriter pins;
    pins.uvar(0);  // no traces
    pins.u64(std::uint64_t(1) << 61);
    EXPECT_DEATH(
        {
            ExecCache ec(64, 8, 16);
            BinReader r(pins.bytes());
            ec.restore(r, program);
        },
        "snapshot section overrun");

    // A trace slot count of 2^40, which reserve() would try to
    // allocate.
    const Addr code = StaticProgram::codeBase();
    BinWriter slots;
    slots.uvar(std::uint64_t(1) << 40);
    slots.u64(0);
    EXPECT_DEATH(
        {
            std::vector<TraceSlot> s;
            std::vector<IssueUnit> u;
            BinReader r(slots.bytes());
            traceBodyFromBin(r, program, code, &s, &u);
        },
        "snapshot section overrun");

    // A slot one instruction below the code, whose fields the program
    // cannot supply.
    BinWriter stray;
    stray.uvar(1);
    stray.svar(-1);  // pc delta
    stray.svar(0);   // rank
    stray.uvar(1);   // one unit of one slot
    stray.uvar(1);
    EXPECT_DEATH(
        {
            std::vector<TraceSlot> s;
            std::vector<IssueUnit> u;
            BinReader r(stray.bytes());
            traceBodyFromBin(r, program, code, &s, &u);
        },
        "trace slot at pc 0xffc is not an instruction of program gcc");

    // A record flagged as the program's instruction at pc 0.
    BinWriter record;
    record.u8(0x02);  // derived from the program
    record.svar(1);   // sequence number
    record.svar(0);   // pc 0
    EXPECT_DEATH(
        {
            BinReader r(record.bytes());
            InstRecordCodec(program).get(r);
        },
        "snapshot record at pc 0x0 is not an instruction of program gcc");
}

/** Bytes @p component saves. */
template <typename T>
std::string
savedBytes(const T &component)
{
    BinWriter w;
    component.save(w);
    return w.take();
}

std::string
savedBytes(const ExecCache &ec)
{
    BinWriter w;
    ec.save(w, traceProgram());
    return w.take();
}

/**
 * A trace at @p offset bytes into traceProgram()'s code of @p n
 * slots issued in reverse program order, in one unit: each slot is
 * the program's instruction at its PC, and memory slots carry an
 * address.
 */
std::unique_ptr<Trace>
makeTrace(Addr offset, std::uint32_t n)
{
    auto t = std::make_unique<Trace>();
    t->startPc = StaticProgram::codeBase() + offset;
    for (std::uint32_t i = 0; i < n; ++i) {
        TraceSlot s;
        s.rank = n - 1 - i;
        s.pc = t->startPc + kInstBytes * s.rank;
        DynInst d;
        EXPECT_TRUE(traceProgram().decodeAt(s.pc, &d));
        s.op = d.op;
        s.dest = d.dest;
        s.src1 = d.src1;
        s.src2 = d.src2;
        s.isCondBranch = d.isCondBranch;
        s.recordedEffAddr = isMemOp(d.op) ? 0x10000000 + 8 * s.pc : 0;
        t->slots.push_back(s);
    }
    t->units.push_back(IssueUnit{0, n});
    t->indexRanks();
    return t;
}

const CacheParams kTinyCache{"tiny", 256, 2, 32, 2, 1};  // 4 sets
const BtbParams kTinyBtb{8, 2};                          // 4 sets

TEST(SnapshotOrder, SameRecencyOrderSavesTheSameBytes)
{
    // Two histories that leave each set with the same lines in the
    // same order but stamp them differently.  Set 0 holds 0x000 then
    // 0x100; set 1 holds 0x020.
    Arena arena;
    Cache a(arena, kTinyCache);
    Cache b(arena, kTinyCache);
    for (Addr addr : {0x000, 0x100, 0x020})
        a.access(addr, false);
    for (Addr addr : {0x020, 0x000, 0x100})
        b.access(addr, false);
    EXPECT_EQ(savedBytes(a), savedBytes(b));

    Btb btb_a(arena, kTinyBtb);
    Btb btb_b(arena, kTinyBtb);
    btb_a.update(0x1000, 0x2000);  // set 0
    btb_a.update(0x1010, 0x0F00);  // set 0
    btb_a.update(0x1004, 0x1100);  // set 1
    btb_b.update(0x1004, 0x1100);
    btb_b.update(0x1000, 0x2000);
    btb_b.update(0x1010, 0x0F00);
    EXPECT_EQ(savedBytes(btb_a), savedBytes(btb_b));

    // The EC orders all its traces: 0x100 before 0x200 in both, but
    // b's touch of 0x100 moved both of its stamps.
    const Addr code = StaticProgram::codeBase();
    ExecCache ec_a(64, 8, 16);
    ExecCache ec_b(64, 8, 16);
    ec_a.insert(makeTrace(0x100, 5));
    ec_a.insert(makeTrace(0x200, 9));
    ec_b.insert(makeTrace(0x100, 5));
    ASSERT_NE(ec_b.lookup(code + 0x100), nullptr);
    ec_b.insert(makeTrace(0x200, 9));
    EXPECT_EQ(savedBytes(ec_a), savedBytes(ec_b));
}

TEST(SnapshotOrder, RestoredComponentsEvictTheSameVictims)
{
    // Each component runs a seeded sequence; halfway a copy is saved
    // and restored into a fresh twin, and both run the rest.  Every
    // outcome (hit, target, residency, eviction count) and the final
    // saved bytes must agree.
    constexpr unsigned kSteps = 4000;
    Pcg32 rng(0xF1A5);

    Arena arena;
    Cache cache(arena, kTinyCache);
    Cache cache_twin(arena, kTinyCache);
    for (unsigned i = 0; i < kSteps; ++i) {
        if (i == kSteps / 2) {
            const std::string bytes = savedBytes(cache);
            BinReader r(bytes);
            cache_twin.restore(r);
        }
        const Addr addr = Addr(rng.below(24)) * 32;
        const bool write = rng.chance(0.3);
        const bool hit = cache.access(addr, write);
        if (i >= kSteps / 2) {
            ASSERT_EQ(cache_twin.access(addr, write), hit) << "step " << i;
        }
    }
    EXPECT_EQ(savedBytes(cache), savedBytes(cache_twin));

    Btb btb(arena, kTinyBtb);
    Btb btb_twin(arena, kTinyBtb);
    for (unsigned i = 0; i < kSteps; ++i) {
        if (i == kSteps / 2) {
            const std::string bytes = savedBytes(btb);
            BinReader r(bytes);
            btb_twin.restore(r);
        }
        const Addr pc = 0x4000 + Addr(rng.below(24)) * kInstBytes;
        const Addr target = 0x4000 + Addr(rng.below(64)) * kInstBytes;
        if (rng.chance(0.5)) {
            btb.update(pc, target);
            if (i >= kSteps / 2)
                btb_twin.update(pc, target);
        } else {
            const std::optional<Addr> got = btb.lookup(pc);
            if (i >= kSteps / 2) {
                ASSERT_EQ(btb_twin.lookup(pc), got) << "step " << i;
            }
        }
    }
    EXPECT_EQ(savedBytes(btb), savedBytes(btb_twin));

    ExecCache ec(16, 4, 8);
    ExecCache ec_twin(16, 4, 8);
    for (unsigned i = 0; i < kSteps; ++i) {
        if (i == kSteps / 2) {
            const std::string bytes = savedBytes(ec);
            BinReader r(bytes);
            ec_twin.restore(r, traceProgram());
        }
        const Addr offset = Addr(rng.below(20)) * 64;
        const Addr pc = StaticProgram::codeBase() + offset;
        if (rng.chance(0.4)) {
            const std::uint32_t n = 1 + rng.below(10);
            const bool stored = ec.insert(makeTrace(offset, n));
            if (i >= kSteps / 2) {
                ASSERT_EQ(ec_twin.insert(makeTrace(offset, n)), stored);
            }
        } else {
            const bool hit = ec.lookup(pc) != nullptr;
            if (i >= kSteps / 2) {
                ASSERT_EQ(ec_twin.lookup(pc) != nullptr, hit)
                    << "step " << i;
            }
        }
        if (i >= kSteps / 2) {
            ASSERT_EQ(ec_twin.tracePcs(), ec.tracePcs()) << "step " << i;
            ASSERT_EQ(ec_twin.evictions(), ec.evictions());
        }
    }
    EXPECT_GT(ec.evictions(), 0u);
    EXPECT_EQ(savedBytes(ec), savedBytes(ec_twin));
}

TEST(SnapshotOrder, SaveRestoreSaveIsByteIdenticalPerSection)
{
    for (CoreKind kind : {CoreKind::Baseline,
                          CoreKind::RegisterAllocation,
                          CoreKind::Flywheel}) {
        SCOPED_TRACE(coreKindName(kind));
        const RunConfig config = smallConfig("gcc", kind);
        StaticProgram program(config.profile);
        WorkloadStream stream(program);
        auto core = makeCore(config, stream);
        core->run(7321);
        Snapshot first;
        core->save(first);

        StaticProgram program_b(config.profile);
        WorkloadStream stream_b(program_b);
        auto restored = makeCore(config, stream_b);
        restored->restore(throughBytes(first));
        Snapshot second;
        restored->save(second);
        EXPECT_EQ(sectionsOf(first), sectionsOf(second));
    }
}

TEST(SnapshotOrder, RestoredRunSavesWhatTheStraightRunSaves)
{
    // The restored core's stamps restart at the saved ranks, the
    // straight core's keep counting; at the same later retire count
    // both must save the same sections.
    for (CoreKind kind : {CoreKind::Baseline,
                          CoreKind::RegisterAllocation,
                          CoreKind::Flywheel}) {
        SCOPED_TRACE(coreKindName(kind));
        const RunConfig config = smallConfig("vortex", kind);
        StaticProgram program(config.profile);
        WorkloadStream stream(program);
        auto straight = makeCore(config, stream);
        straight->run(6007);
        Snapshot mid;
        straight->save(mid);
        straight->run(9000);
        Snapshot straight_end;
        straight->save(straight_end);

        StaticProgram program_b(config.profile);
        WorkloadStream stream_b(program_b);
        auto restored = makeCore(config, stream_b);
        restored->restore(throughBytes(mid));
        restored->run(9000);
        Snapshot restored_end;
        restored->save(restored_end);
        EXPECT_EQ(sectionsOf(straight_end), sectionsOf(restored_end));
    }
}

TEST(SnapshotSize, StoredCheckpointBytesArePinned)
{
    // The file a store keeps for a gcc warmup at smallConfig's
    // lengths.  A format change that grows checkpoints moves these
    // numbers; update them only with such a change.
    const std::string dir = ::testing::TempDir() + "fw_snap_size";
    const std::pair<CoreKind, std::uintmax_t> pins[] = {
        {CoreKind::Flywheel, 9258}, {CoreKind::Baseline, 6740}};
    for (const auto &[kind, bytes] : pins) {
        SCOPED_TRACE(coreKindName(kind));
        const RunConfig config = smallConfig("gcc", kind);
        Checkpointer store(dir);
        const std::string path = store.pathFor(checkpointKey(config));
        std::remove(path.c_str());
        runSim(config, &store);
        ASSERT_EQ(store.computes(), 1u);
        EXPECT_EQ(std::filesystem::file_size(path), bytes);
    }
}

TEST(CheckpointerTest, ComputesOncePerKeyAndReloadsFromDisk)
{
    const std::string dir = ::testing::TempDir() + "fw_ckpt_store";
    const std::string key = "ckptv=1;test;unit=1;";

    Checkpointer store(dir);
    std::remove(store.pathFor(key).c_str());

    unsigned factory_runs = 0;
    auto factory = [&] {
        ++factory_runs;
        auto s = std::make_shared<Snapshot>();
        s->setKey(key);
        BinWriter w;
        w.u64(42);
        s->addSection("payload", w.take());
        return std::shared_ptr<const Snapshot>(std::move(s));
    };

    bool created = false;
    auto first = store.acquire(key, factory, &created);
    EXPECT_TRUE(created);
    EXPECT_EQ(factory_runs, 1u);

    // The store kept no copy: the second acquire reads the file.
    auto second = store.acquire(key, factory, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(factory_runs, 1u);
    EXPECT_EQ(sectionsOf(*first), sectionsOf(*second));
    EXPECT_EQ(store.memoryHits(), 0u);
    EXPECT_EQ(store.diskHits(), 1u);

    // A fresh store instance (new process image) loads from disk.
    Checkpointer reopened(dir);
    auto third = reopened.acquire(key, factory, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(factory_runs, 1u);
    EXPECT_EQ(reopened.diskHits(), 1u);
    BinReader payload = third->section("payload");
    EXPECT_EQ(payload.u64(), 42u);

    // Memory-only stores never touch the filesystem.
    Checkpointer memory(Checkpointer::kMemoryOnly);
    EXPECT_FALSE(memory.onDisk());
    EXPECT_EQ(memory.pathFor(key), "");
}

TEST(CheckpointerTest, DiskStoreKeepsNoSnapshotAfterAcquire)
{
    // A disk-backed store hands a made snapshot to its caller and
    // keeps no copy, so memory does not grow with the warm states a
    // process has seen; a memory-only store keeps every snapshot.
    const std::string dir = ::testing::TempDir() + "fw_ckpt_unkept";
    const std::string key = "ckptv=2;unkept;unit=1;";
    std::atomic<unsigned> runs{0};
    const Checkpointer::Factory factory = countingFactory(key, &runs);

    Checkpointer disk(dir);
    std::remove(disk.pathFor(key).c_str());
    Checkpointer memory(Checkpointer::kMemoryOnly);

    bool created = false;
    auto made = disk.acquire(key, factory, &created);
    ASSERT_TRUE(created);
    const auto made_sections = sectionsOf(*made);
    std::weak_ptr<const Snapshot> disk_weak = made;
    made.reset();
    EXPECT_TRUE(disk_weak.expired());

    auto kept = memory.acquire(key, factory, &created);
    ASSERT_TRUE(created);
    std::weak_ptr<const Snapshot> memory_weak = kept;
    kept.reset();
    EXPECT_FALSE(memory_weak.expired());

    // A loaded snapshot is not kept either.
    auto loaded = disk.acquire(key, factory, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(disk.diskHits(), 1u);
    EXPECT_EQ(disk.memoryHits(), 0u);
    EXPECT_EQ(sectionsOf(*loaded), made_sections);
    disk_weak = loaded;
    loaded.reset();
    EXPECT_TRUE(disk_weak.expired());
    EXPECT_EQ(runs.load(), 2u);
}

TEST(CheckpointerTest, ConcurrentAcquiresOfOneKeyComputeOnce)
{
    // Eight cells with one checkpoint key start together; the factory
    // is slow enough that the others arrive while it runs and wait on
    // the key lock.  The warmup is paid once on either store kind.
    constexpr unsigned kThreads = 8;
    const std::string dir = ::testing::TempDir() + "fw_ckpt_stampede";
    const std::string key = "ckptv=2;stampede;unit=1;";

    for (const std::string &where :
         {dir, std::string(Checkpointer::kMemoryOnly)}) {
        SCOPED_TRACE(where);
        Checkpointer store(where);
        if (store.onDisk())
            std::remove(store.pathFor(key).c_str());
        std::atomic<unsigned> runs{0};
        const Checkpointer::Factory factory =
            countingFactory(key, &runs, std::chrono::milliseconds(20));

        std::mutex mutex;
        std::condition_variable ready;
        unsigned waiting = 0;
        std::vector<std::vector<std::pair<std::string, std::string>>>
            got(kThreads);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    if (++waiting == kThreads)
                        ready.notify_all();
                    ready.wait(lock, [&] { return waiting == kThreads; });
                }
                got[t] = sectionsOf(*store.acquire(key, factory));
            });
        }
        for (std::thread &t : threads)
            t.join();

        EXPECT_EQ(runs.load(), 1u);
        for (unsigned t = 1; t < kThreads; ++t)
            EXPECT_EQ(got[t], got[0]) << "thread " << t;
        EXPECT_EQ(store.computes(), 1u);
        if (store.onDisk()) {
            EXPECT_EQ(store.memoryHits(), 0u);
            EXPECT_EQ(store.diskHits(), kThreads - 1);
        } else {
            EXPECT_EQ(store.memoryHits(), kThreads - 1);
            EXPECT_EQ(store.diskHits(), 0u);
        }
    }
}

TEST(CheckpointerTest, CreatesNestedStoreDirectories)
{
    // A single-level ::mkdir used to fail for --checkpoint-dir a/b/c,
    // silently dropping every persist.  The store now creates the
    // whole parent chain.
    const std::string dir =
        ::testing::TempDir() + "fw_ckpt_nested/a/b/c";
    const std::string key = "ckptv=2;nested;unit=1;";

    Checkpointer store(dir);
    auto factory = [&] {
        auto s = std::make_shared<Snapshot>();
        s->setKey(key);
        BinWriter w;
        w.u64(7);
        s->addSection("payload", w.take());
        return std::shared_ptr<const Snapshot>(std::move(s));
    };
    store.acquire(key, factory);
    EXPECT_EQ(store.persistFailures(), 0u);

    std::ifstream saved(store.pathFor(key),
                        std::ios::binary);
    EXPECT_TRUE(saved.good()) << store.pathFor(key);

    Checkpointer reopened(dir);
    bool created = true;
    reopened.acquire(key, factory, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(reopened.diskHits(), 1u);
}

TEST(CheckpointerTest, PersistFailuresAreCountedNotFatal)
{
    // Point the store at a path that is an existing *file*: every
    // persist fails, but acquire still serves from memory and the
    // failure is counted for the session summary.
    const std::string dir = ::testing::TempDir() + "fw_ckpt_blocked";
    { std::ofstream(dir) << "not a directory"; }

    Checkpointer store(dir);
    const std::string key = "ckptv=2;blocked;unit=1;";
    unsigned factory_runs = 0;
    auto factory = [&] {
        ++factory_runs;
        auto s = std::make_shared<Snapshot>();
        s->setKey(key);
        BinWriter w;
        w.u64(1);
        s->addSection("payload", w.take());
        return std::shared_ptr<const Snapshot>(std::move(s));
    };

    bool created = false;
    auto snap = store.acquire(key, factory, &created);
    EXPECT_TRUE(created);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(store.persistFailures(), 1u);

    // The memory tier still works despite the dead disk tier.
    store.acquire(key, factory, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(factory_runs, 1u);
    EXPECT_NE(store.summaryLine().find("persist failure"),
              std::string::npos);
    std::remove(dir.c_str());
}

TEST(CheckpointKeyTest, CanonicalizesResultNeutralAxes)
{
    const RunConfig base = smallConfig("gcc", CoreKind::Flywheel);
    const std::string key = checkpointKey(base);

    // Energy-model node/gating and the measurement length do not
    // shape warm state.
    RunConfig node = base;
    node.node = TechNode::N90;
    node.frontEndPowerGating = true;
    node.measureInstrs = 999999;
    EXPECT_EQ(checkpointKey(node), key);

    // Warmup length, workload and kind all do.
    RunConfig warm = base;
    warm.warmupInstrs += 1;
    EXPECT_NE(checkpointKey(warm), key);
    RunConfig bench = base;
    bench.profile = benchmarkByName("vortex");
    EXPECT_NE(checkpointKey(bench), key);
    RunConfig kind = base;
    kind.kind = CoreKind::RegisterAllocation;
    EXPECT_NE(checkpointKey(kind), key);

    // The Flywheel's warm state depends on its clock plan...
    RunConfig clocked = base;
    clocked.params = clockedParams(0.5, 0.5);
    EXPECT_NE(checkpointKey(clocked), key);

    // ...the baseline core never reads it, so every clock point of a
    // baseline sweep shares one warmup checkpoint.
    RunConfig base_b = smallConfig("gcc", CoreKind::Baseline);
    RunConfig clocked_b = base_b;
    clocked_b.params = clockedParams(0.5, 0.5);
    EXPECT_EQ(checkpointKey(clocked_b), checkpointKey(base_b));
}

TEST(CoreStatsDelta, OperatorsCoverEveryField)
{
    // Any field the hand-written X-macro list misses would come back
    // zero from (a - 0) and break the byte comparison; a field added
    // to the struct but not the list trips the header static_assert.
    std::uint64_t raw[kCoreStatsFieldCount];
    for (std::size_t i = 0; i < kCoreStatsFieldCount; ++i)
        raw[i] = i * 1000 + 7;
    CoreStats a;
    static_assert(sizeof(a) == sizeof(raw),
                  "CoreStats layout diverged from its field count");
    std::memcpy(&a, raw, sizeof(a));

    const CoreStats zero{};
    const CoreStats diff = a - zero;
    EXPECT_EQ(std::memcmp(&diff, &a, sizeof(a)), 0);

    const CoreStats self = a - a;
    EXPECT_EQ(std::memcmp(&self, &zero, sizeof(zero)), 0);
}

TEST(SweepCheckpointSharing, CellsShareOneWarmupAndStayBitIdentical)
{
    // Two cells differing only in measurement length share a
    // checkpoint key but not a simulation; the second cell restores
    // the first's warmup — from memory in a memory-only store, from
    // the file the first wrote in a disk-backed one — and results must
    // equal the uncheckpointed session's.  (Cells differing only in
    // tech node would share the simulation itself: the second would be
    // derived, never reaching the checkpoint store.)
    auto points = [] {
        std::vector<SweepPoint> pts;
        for (std::uint64_t measure : {10000u, 12000u}) {
            pts.push_back(
                makePoint("gzip", CoreKind::Flywheel, {0.0, 0.0}));
            pts.back().config.warmupInstrs = 8000;
            pts.back().config.measureInstrs = measure;
        }
        return pts;
    }();

    SessionOptions plain_opts;
    plain_opts.jobs = 1;
    Session plain(plain_opts);
    const SweepTable reference = plain.run(points);

    const std::string dir = ::testing::TempDir() + "fw_ckpt_sharing";
    std::filesystem::remove_all(dir);  // start from an empty store
    for (const std::string &where :
         {std::string(Checkpointer::kMemoryOnly), dir}) {
        SCOPED_TRACE(where);
        SessionOptions ckpt_opts;
        ckpt_opts.jobs = 1;
        ckpt_opts.checkpointDir = where;
        Session checkpointed(ckpt_opts);
        const SweepTable shared = checkpointed.run(points);

        const Checkpointer *store = checkpointed.checkpointer();
        ASSERT_NE(store, nullptr);
        EXPECT_EQ(store->computes(), 1u);
        EXPECT_EQ(store->onDisk() ? store->diskHits()
                                  : store->memoryHits(),
                  1u);

        ASSERT_EQ(reference.size(), shared.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(toJson(reference.at(i).result).dump(),
                      toJson(shared.at(i).result).dump());
        }
    }
}

} // namespace
} // namespace flywheel
