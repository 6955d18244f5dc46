/**
 * @file
 * Atomic disk persists: concurrent writers sharing a store must never
 * publish a torn file.  The first test demonstrates the failure mode
 * of a fixed ".tmp" temp name shared by every writer, and the rest
 * pin the unique-temp + rename() behavior of common/atomic_file.hh
 * and its users (ResultStore, Snapshot).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hh"
#include "snapshot/bincodec.hh"
#include "snapshot/snapshot.hh"
#include "sweep/result_store.hh"

namespace {

namespace fs = std::filesystem;
using flywheel::atomicWriteFile;

struct TempDir
{
    fs::path dir;
    TempDir()
    {
        dir = fs::temp_directory_path() /
              ("flywheel_atomic_" +
               std::to_string(long(::getpid())) + "_" +
               std::to_string(reinterpret_cast<std::uintptr_t>(this)));
        fs::create_directories(dir);
    }
    ~TempDir() { fs::remove_all(dir); }
    std::string file(const std::string &name) const
    {
        return (dir / name).string();
    }
};

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// The bug the helper exists to fix: with a fixed temp name, two
// writers interleaving open/write/rename produce a hybrid of both
// payloads.  This test documents the torn result that a shared
// path + ".tmp" scheme allows.
TEST(AtomicPersist, FixedTempNameTearsUnderInterleaving)
{
    TempDir td;
    const std::string target = td.file("store.json");
    const std::string shared_tmp = target + ".tmp";

    const std::string payload_a(4096, 'a');
    const std::string payload_b(6144, 'b');

    std::ofstream a(shared_tmp, std::ios::binary);
    ASSERT_TRUE(a.is_open());
    a.write(payload_a.data(), 2048);  // writer A: first half
    a.flush();

    // Writer B arrives, truncates the SAME temp file, writes fully.
    {
        std::ofstream b(shared_tmp,
                        std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(b.is_open());
        b.write(payload_b.data(),
                static_cast<std::streamsize>(payload_b.size()));
    }

    // Writer A resumes at its own offset, scribbling mid-file, then
    // "publishes".
    a.write(payload_a.data() + 2048, 2048);
    a.close();
    ASSERT_EQ(std::rename(shared_tmp.c_str(), target.c_str()), 0);

    const std::string published = readAll(target);
    EXPECT_NE(published, payload_a);
    EXPECT_NE(published, payload_b);  // torn: neither writer's file
}

TEST(AtomicPersist, AtomicWriteFilePublishesWholePayloads)
{
    TempDir td;
    const std::string target = td.file("store.bin");
    const std::string payload_a(4096, 'a');
    const std::string payload_b(6144, 'b');

    // Hammer the same target from two threads; after every round the
    // published file must be exactly one writer's payload.
    for (int round = 0; round < 50; ++round) {
        std::thread ta([&] { atomicWriteFile(target, payload_a); });
        std::thread tb([&] { atomicWriteFile(target, payload_b); });
        ta.join();
        tb.join();
        const std::string got = readAll(target);
        EXPECT_TRUE(got == payload_a || got == payload_b)
            << "torn file in round " << round << " (size "
            << got.size() << ")";
    }

    // No temp-file litter left behind.
    std::size_t files = 0;
    for (const auto &e : fs::directory_iterator(td.dir)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(AtomicPersist, AtomicWriteFileReportsUnwritablePath)
{
    std::string error;
    EXPECT_FALSE(atomicWriteFile("/nonexistent-dir/x/y", "data",
                                 &error));
    EXPECT_FALSE(error.empty());
}

// End-to-end: two ResultStores on one directory (as two sweep
// processes would be) saving disjoint key sets concurrently must
// leave every key loadable — one file per key, so neither saver's
// set replaces the other's.
TEST(AtomicPersist, ConcurrentResultStoreSavesKeepEveryKey)
{
    TempDir td;
    const std::string dir = td.file("results");

    flywheel::ResultStore a(dir);
    flywheel::ResultStore b(dir);
    const flywheel::RunResult r{};
    auto saveAll = [&r](flywheel::ResultStore &store,
                        const std::string &prefix) {
        for (int i = 0; i < 16; ++i)
            EXPECT_TRUE(store.save(prefix + std::to_string(i), r));
    };
    std::thread ta([&] { saveAll(a, "a-key-"); });
    std::thread tb([&] { saveAll(b, "b-key-"); });
    ta.join();
    tb.join();

    flywheel::ResultStore fresh(dir);
    flywheel::RunResult out;
    for (const char *prefix : {"a-key-", "b-key-"})
        for (int i = 0; i < 16; ++i)
            EXPECT_TRUE(fresh.lookup(prefix + std::to_string(i), &out))
                << prefix << i;
    EXPECT_EQ(fresh.hits(), 32u);
}

// Snapshot::writeFile goes through the same helper; a quick
// round-trip guards the refactor.
TEST(AtomicPersist, SnapshotWriteFileRoundTrips)
{
    TempDir td;
    const std::string path = td.file("snap.bin");

    flywheel::Snapshot snap;
    snap.setKey("atomic-test");
    flywheel::BinWriter w;
    w.u64(0xDEADBEEFCAFEF00DULL);
    snap.addSection("payload", w.take());

    std::string error;
    ASSERT_TRUE(snap.writeFile(path, &error)) << error;

    flywheel::Snapshot back;
    ASSERT_TRUE(flywheel::Snapshot::readFile(path, &back, &error))
        << error;
    EXPECT_EQ(back.key(), "atomic-test");
    auto r = back.section("payload");
    EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEF00DULL);
}

} // namespace
