/**
 * @file
 * Tests for the state snapshot subsystem (src/snapshot/): bit-exact
 * save/restore round-trips across every core kind — through a full
 * serialize/deserialize cycle, standing in for a fresh process image
 * — file-level hardening (corrupt / truncated / version-mismatched
 * snapshots rejected with clear errors), the Checkpointer's
 * compute-once and disk-reuse semantics, checkpoint-key
 * canonicalization, the ResultCache-key sampling regression, interval
 * sampling, and the CoreStats window-delta operators.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <utime.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/report.hh"
#include "core/sim_driver.hh"
#include "snapshot/checkpointer.hh"
#include "snapshot/snapshot.hh"
#include "sweep/result_cache.hh"
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

    RunConfig config = smallConfig("gzip", CoreKind::Flywheel);
    config.snapshot.mode = SnapshotPolicy::Mode::Reuse;
    config.snapshot.dir = dir;

    // Start from an empty store.
    Checkpointer probe(dir);
    const std::string path = probe.pathFor(checkpointKey(config));
    std::remove(path.c_str());

    RunConfig plain = config;
    plain.snapshot = SnapshotPolicy{};
    const RunResult reference = runSim(plain);

    // First checkpointed run simulates the warmup and saves...
    const RunResult cold = runSim(config);
    std::ifstream saved(path);
    EXPECT_TRUE(saved.good()) << path;
    // ...the second restores from disk in a fresh Checkpointer.
    const RunResult warm = runSim(config);

    EXPECT_EQ(toJson(reference).dump(), toJson(cold).dump());
    EXPECT_EQ(toJson(reference).dump(), toJson(warm).dump());
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
    auto first = store.acquire(key, factory, false, &created);
    EXPECT_TRUE(created);
    EXPECT_EQ(factory_runs, 1u);

    auto second = store.acquire(key, factory, false, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(factory_runs, 1u);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(store.memoryHits(), 1u);

    // A fresh store instance (new process image) loads from disk.
    Checkpointer reopened(dir);
    auto third = reopened.acquire(key, factory, false, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(factory_runs, 1u);
    EXPECT_EQ(reopened.diskHits(), 1u);
    BinReader payload = third->section("payload");
    EXPECT_EQ(payload.u64(), 42u);

    // refresh recomputes and overwrites even though both tiers hit.
    auto fourth = reopened.acquire(key, factory, true, &created);
    EXPECT_TRUE(created);
    EXPECT_EQ(factory_runs, 2u);

    // Memory-only stores never touch the filesystem.
    Checkpointer memory(Checkpointer::kMemoryOnly);
    EXPECT_FALSE(memory.onDisk());
    EXPECT_EQ(memory.pathFor(key), "");
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
    reopened.acquire(key, factory, false, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(reopened.diskHits(), 1u);
}

TEST(CheckpointerTest, SizeCapPrunesOldestCheckpointsFirst)
{
    const std::string dir = ::testing::TempDir() + "fw_ckpt_cap";
    Checkpointer::pruneStore(dir, 0);  // start from an empty store

    // Three checkpoints with distinct, explicit mtimes (the LRU
    // ordering key), oldest first.
    Checkpointer seed(dir);
    std::vector<std::string> paths;
    std::vector<std::uint64_t> sizes;
    for (int i = 0; i < 3; ++i) {
        const std::string key = "ckptv=2;cap;unit=" +
                                std::to_string(i) + ";";
        auto factory = [&] {
            auto s = std::make_shared<Snapshot>();
            s->setKey(key);
            BinWriter w;
            for (int j = 0; j < 64; ++j)
                w.u64(std::uint64_t(i) * 64 + j);
            s->addSection("payload", w.take());
            return std::shared_ptr<const Snapshot>(std::move(s));
        };
        seed.acquire(key, factory);
        paths.push_back(seed.pathFor(key));
        struct ::stat st;
        ASSERT_EQ(::stat(paths.back().c_str(), &st), 0);
        sizes.push_back(std::uint64_t(st.st_size));
        struct ::utimbuf times;
        times.actime = times.modtime = 1000000 + i;
        ASSERT_EQ(::utime(paths.back().c_str(), &times), 0);
    }

    // Cap at the two newest files' worth: exactly the oldest goes.
    const std::uint64_t cap = sizes[1] + sizes[2];
    std::uint64_t bytes_removed = 0;
    const std::size_t removed =
        Checkpointer::pruneStore(dir, cap, &bytes_removed);
    EXPECT_EQ(removed, 1u);
    EXPECT_EQ(bytes_removed, sizes[0]);
    struct ::stat st;
    EXPECT_NE(::stat(paths[0].c_str(), &st), 0);  // oldest pruned
    EXPECT_EQ(::stat(paths[1].c_str(), &st), 0);
    EXPECT_EQ(::stat(paths[2].c_str(), &st), 0);

    // A capped store prunes as part of persist and counts evictions.
    Checkpointer::Options opts;
    opts.capBytes = cap;
    Checkpointer capped(dir, opts);
    const std::string key = "ckptv=2;cap;unit=9;";
    auto factory = [&] {
        auto s = std::make_shared<Snapshot>();
        s->setKey(key);
        BinWriter w;
        for (int j = 0; j < 64; ++j)
            w.u64(std::uint64_t(j));
        s->addSection("payload", w.take());
        return std::shared_ptr<const Snapshot>(std::move(s));
    };
    capped.acquire(key, factory);
    EXPECT_GE(capped.evictions(), 1u);
    EXPECT_EQ(capped.persistFailures(), 0u);
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
    auto snap = store.acquire(key, factory, false, &created);
    EXPECT_TRUE(created);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(store.persistFailures(), 1u);

    // The memory tier still works despite the dead disk tier.
    store.acquire(key, factory, false, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(factory_runs, 1u);
    EXPECT_NE(store.summaryLine().find("persist failure"),
              std::string::npos);
    std::remove(dir.c_str());
}

TEST(CheckpointerTest, ParseCapMegabytesIsStrict)
{
    std::uint64_t bytes = 123;
    EXPECT_TRUE(Checkpointer::parseCapMegabytes("0", &bytes));
    EXPECT_EQ(bytes, 0u);
    EXPECT_TRUE(Checkpointer::parseCapMegabytes("512", &bytes));
    EXPECT_EQ(bytes, 512ull << 20);

    // Garbage, signs, trailing text, and overflow are rejected.
    for (const char *bad :
         {"", "-1", "+4", "12q", "4 ", "abc", "0x10",
          "18446744073709551615", "99999999999999999999"})
        EXPECT_FALSE(Checkpointer::parseCapMegabytes(bad, &bytes))
            << bad;
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

    // The snapshot policy itself never splits checkpoints.
    RunConfig sampled = base;
    sampled.snapshot.mode = SnapshotPolicy::Mode::Sample;
    sampled.snapshot.sampleWindows = 8;
    EXPECT_EQ(checkpointKey(sampled), key);

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

TEST(ResultCacheKey, SampledRunsNeverAliasFullRuns)
{
    const RunConfig full = smallConfig("gcc", CoreKind::Flywheel);

    RunConfig sampled = full;
    sampled.snapshot.mode = SnapshotPolicy::Mode::Sample;
    sampled.snapshot.sampleWindows = 4;
    EXPECT_NE(configKey(sampled), configKey(full));

    // Different sampling geometries never alias each other either.
    RunConfig other = sampled;
    other.snapshot.sampleWindows = 8;
    EXPECT_NE(configKey(other), configKey(sampled));
    RunConfig gap = sampled;
    gap.snapshot.sampleFastForward = 5000;
    EXPECT_NE(configKey(gap), configKey(sampled));
    RunConfig rewarm = sampled;
    rewarm.snapshot.sampleWarmup = 1000;
    EXPECT_NE(configKey(rewarm), configKey(sampled));

    // Save/Reuse checkpointing is bit-identical to a plain run, so
    // both must populate (and hit) the same cache entry.
    RunConfig reuse = full;
    reuse.snapshot.mode = SnapshotPolicy::Mode::Reuse;
    reuse.snapshot.dir = "/tmp/anywhere";
    EXPECT_EQ(configKey(reuse), configKey(full));
    RunConfig save = full;
    save.snapshot.mode = SnapshotPolicy::Mode::Save;
    EXPECT_EQ(configKey(save), configKey(full));
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

    CoreStats sum{};
    sum += a;
    EXPECT_EQ(std::memcmp(&sum, &a, sizeof(a)), 0);

    const CoreStats self = a - a;
    EXPECT_EQ(std::memcmp(&self, &zero, sizeof(zero)), 0);
}

TEST(IntervalSampling, MeasuresTheBudgetDeterministically)
{
    RunConfig config = smallConfig("gcc", CoreKind::Flywheel);
    config.snapshot.mode = SnapshotPolicy::Mode::Sample;
    config.snapshot.sampleWindows = 4;

    const RunResult a = runSim(config);
    const RunResult b = runSim(config);
    EXPECT_EQ(toJson(a).dump(), toJson(b).dump());

    // The detailed budget is fully measured across the windows (each
    // window may overshoot by up to a retire group).
    EXPECT_GE(a.instructions, config.measureInstrs);
    EXPECT_LT(a.instructions,
              config.measureInstrs +
                  4 * config.snapshot.sampleWindows);
    EXPECT_GT(a.timePs, 0u);

    // And the sampled estimate is a different measurement than the
    // contiguous run (the stream advanced past the gaps).
    RunConfig full = config;
    full.snapshot = SnapshotPolicy{};
    const RunResult contiguous = runSim(full);
    EXPECT_NE(toJson(a).dump(), toJson(contiguous).dump());
}

TEST(SweepCheckpointSharing, CellsShareOneWarmupAndStayBitIdentical)
{
    // Two cells differing only in tech node share a checkpoint key;
    // with an in-memory store the second cell restores the first's
    // warmup, and results must equal the uncheckpointed runner's.
    auto points = [] {
        std::vector<SweepPoint> pts;
        pts.push_back(makePoint("gzip", CoreKind::Flywheel, {0.0, 0.0},
                                TechNode::N130));
        pts.push_back(makePoint("gzip", CoreKind::Flywheel, {0.0, 0.0},
                                TechNode::N90));
        for (SweepPoint &pt : pts) {
            pt.config.warmupInstrs = 8000;
            pt.config.measureInstrs = 10000;
        }
        return pts;
    }();

    SweepOptions plain_opts;
    plain_opts.jobs = 1;
    SweepRunner plain(plain_opts);
    const SweepTable reference = plain.run(points);

    SweepOptions ckpt_opts;
    ckpt_opts.jobs = 1;
    ckpt_opts.checkpointDir = Checkpointer::kMemoryOnly;
    SweepRunner checkpointed(ckpt_opts);
    const SweepTable shared = checkpointed.run(points);

    ASSERT_NE(checkpointed.checkpointer(), nullptr);
    EXPECT_EQ(checkpointed.checkpointer()->computes(), 1u);
    EXPECT_EQ(checkpointed.checkpointer()->memoryHits(), 1u);

    ASSERT_EQ(reference.size(), shared.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(toJson(reference.at(i).result).dump(),
                  toJson(shared.at(i).result).dump());
    }
}

} // namespace
} // namespace flywheel
