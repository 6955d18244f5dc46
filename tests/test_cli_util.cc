/**
 * @file
 * Unit tests for the shared CLI helper header (tools/cli_util.hh):
 * list splitting, strict number parsing (including the fatal paths),
 * the output-file plumbing, the checkpoint dump verb, and the
 * repeat-median / host-metadata helpers every tool shares.
 */

#include "tools/cli_util.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "sweep/sweep.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace flywheel;

TEST(SplitList, BasicAndEmptyItems)
{
    EXPECT_EQ(cli::splitList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(cli::splitList("a,,b,"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(cli::splitList(""), std::vector<std::string>{});
    EXPECT_EQ(cli::splitList("solo"),
              std::vector<std::string>{"solo"});
}

TEST(ParseDoubles, ParsesList)
{
    std::vector<double> v = cli::parseDoubles("0,0.5,1.0", "--fe");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[1], 0.5);
    EXPECT_DOUBLE_EQ(v[2], 1.0);
}

TEST(ParseDoublesDeathTest, RejectsGarbage)
{
    EXPECT_EXIT(cli::parseDoubles("0.5,zebra", "--fe"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(cli::parseDoubles(",", "--fe"),
                ::testing::ExitedWithCode(1), "empty list");
}

TEST(ParseU64, ParsesPlainDecimals)
{
    EXPECT_EQ(cli::parseU64("0", "--n"), 0u);
    EXPECT_EQ(cli::parseU64("300000", "--n"), 300000u);
}

TEST(ParseU64DeathTest, RejectsSignsAndGarbage)
{
    EXPECT_EXIT(cli::parseU64("-1", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(cli::parseU64("12x", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(cli::parseU64("", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
}

TEST(ParseJobs, AcceptsSameRangeAsEnvVar)
{
    EXPECT_EQ(cli::parseJobs("1", "--jobs"), 1u);
    EXPECT_EQ(cli::parseJobs("8", "--jobs"), 8u);
}

TEST(ParseJobsDeathTest, RejectsZeroAndGarbage)
{
    EXPECT_EXIT(cli::parseJobs("0", "--jobs"),
                ::testing::ExitedWithCode(1), "expected an integer");
    EXPECT_EXIT(cli::parseJobs("many", "--jobs"),
                ::testing::ExitedWithCode(1), "expected an integer");
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(cli::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(cli::median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(cli::median({7.5}), 7.5);
    EXPECT_DOUBLE_EQ(cli::median({}), 0.0);
}

TEST(Median, DoesNotMutateCallerOrder)
{
    // Takes its argument by value: a caller's rep_seconds list keeps
    // its chronological order for the report.
    std::vector<double> reps{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(cli::median(reps), 2.0);
    EXPECT_EQ(reps, (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(Geomean, PositiveValuesAndEdgeCases)
{
    EXPECT_NEAR(cli::geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(cli::geomean({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(cli::geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(cli::geomean({1.0, 0.0}), 0.0);
}

TEST(HostMeta, CollectsNonEmptyIdentity)
{
    cli::HostInfo h = cli::collectHostInfo();
    EXPECT_FALSE(h.hostname.empty());
    EXPECT_FALSE(h.cpu.empty());
    EXPECT_GE(h.hwThreads, 1u);
    EXPECT_FALSE(h.compiler.empty());
    EXPECT_TRUE(h.build == "release" || h.build == "debug");
}

TEST(OpenOut, DashMeansStdout)
{
    std::ofstream file;
    std::ostream &os = cli::openOut("-", file);
    EXPECT_EQ(&os, &std::cout);
    EXPECT_FALSE(file.is_open());
}

TEST(OpenOut, WritesNamedFile)
{
    const std::string path = ::testing::TempDir() + "cli_util_out.txt";
    {
        std::ofstream file;
        std::ostream &os = cli::openOut(path, file);
        os << "hello\n";
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "hello");
    std::remove(path.c_str());
}

TEST(RequireValue, ReturnsNextArgAndAdvances)
{
    const char *argv_c[] = {"prog", "--flag", "value"};
    char **argv = const_cast<char **>(argv_c);
    int i = 1;
    EXPECT_EQ(cli::requireValue(3, argv, &i, "--flag"), "value");
    EXPECT_EQ(i, 2);
}

TEST(RequireValueDeathTest, MissingValueIsFatal)
{
    const char *argv_c[] = {"prog", "--flag"};
    char **argv = const_cast<char **>(argv_c);
    int i = 1;
    EXPECT_EXIT(cli::requireValue(2, argv, &i, "--flag"),
                ::testing::ExitedWithCode(1), "requires a value");
}

TEST(FormatEta, ClampsHugeEstimatesAndGuardsBadInput)
{
    EXPECT_EQ(cli::formatEta(5.0), " eta 5s");
    EXPECT_EQ(cli::formatEta(5.4), " eta 5s");
    EXPECT_EQ(cli::formatEta(90.0), " eta 1m30s");
    EXPECT_EQ(cli::formatEta(3600.0), " eta 60m00s");
    EXPECT_EQ(cli::formatEta(99.0 * 3600.0), " eta 5940m00s");

    // Early in a run the rate extrapolation can produce absurd
    // estimates; int(left) on those is UB.  Clamp the display
    // instead of casting.
    EXPECT_EQ(cli::formatEta(99.0 * 3600.0 + 1.0), " eta >99h");
    EXPECT_EQ(cli::formatEta(1e18), " eta >99h");
    EXPECT_EQ(cli::formatEta(std::numeric_limits<double>::infinity()),
              " eta >99h");

    // No estimate at all beats a bogus one.
    EXPECT_EQ(cli::formatEta(-1.0), "");
    EXPECT_EQ(cli::formatEta(std::numeric_limits<double>::quiet_NaN()),
              "");
}

TEST(StderrProgress, MatchesSweepProgressSignature)
{
    // The shared printer must stay assignable to the sweep/session
    // progress slot (the compile is the real assertion).
    SweepOptions opts;
    opts.progress = cli::stderrProgress;
    EXPECT_TRUE(static_cast<bool>(opts.progress));
}

TEST(UnknownFlag, MessageNamesTheFlag)
{
    // Every CLI funnels unrecognized options through this one
    // message, so no tool can silently ignore a typo'd flag.
    EXPECT_EQ(cli::unknownFlagMessage("--frobnicate"),
              "unknown option: --frobnicate");
}

TEST(UnknownFlagDeathTest, RejectExitsWithUsageStatus)
{
    static auto usage = [](const char *) {
        std::fprintf(stderr, "usage: prog\n");
    };
    EXPECT_EXIT(cli::rejectUnknownFlag("prog", "--zorp", usage),
                ::testing::ExitedWithCode(2), "unknown option: --zorp");
}

TEST(SnapshotFlags, ParsesTheSharedFlagSet)
{
    const char *argv_c[] = {"prog", "--checkpoint-dir", "/tmp/ck",
                            "--sample", "8", "--no-checkpoints"};
    char **argv = const_cast<char **>(argv_c);

    cli::SnapshotFlags flags;
    flags.dir.clear();  // isolate from FLYWHEEL_CHECKPOINTS
    int i = 1;
    EXPECT_TRUE(flags.tryParse(argv[i], 6, argv, &i));
    EXPECT_EQ(flags.dir, "/tmp/ck");
    EXPECT_EQ(flags.checkpointDir(), "/tmp/ck");
    ++i;
    EXPECT_TRUE(flags.tryParse(argv[i], 6, argv, &i));
    EXPECT_EQ(flags.sampleWindows, 8u);
    ++i;
    EXPECT_TRUE(flags.tryParse(argv[i], 6, argv, &i));
    // --no-checkpoints wins over any configured directory.
    EXPECT_EQ(flags.checkpointDir(), "");

    int j = 0;
    cli::SnapshotFlags other;
    EXPECT_FALSE(other.tryParse("--jobs", 6, argv, &j));
    EXPECT_EQ(j, 0);
}

TEST(SnapshotFlags, ParsesCapFlag)
{
    const char *argv_c[] = {"prog", "--checkpoint-cap-mb", "256"};
    char **argv = const_cast<char **>(argv_c);

    cli::SnapshotFlags flags;
    flags.dir = "/tmp/store";
    flags.capBytes = 0;  // isolate from FLYWHEEL_CHECKPOINT_CAP_MB
    int i = 1;
    EXPECT_TRUE(flags.tryParse(argv[i], 3, argv, &i));
    EXPECT_EQ(flags.capBytes, 256ull << 20);

    // apply() stamps both store knobs onto any options struct with
    // the shared field names.
    SweepOptions opts;
    flags.apply(&opts);
    EXPECT_EQ(opts.checkpointDir, "/tmp/store");
    EXPECT_EQ(opts.checkpointCapBytes, 256ull << 20);
}

TEST(DumpCheckpoint, ListsEverySectionWithItsRawSize)
{
    // A real checkpoint: a warmed Flywheel core's full state.
    RunConfig config;
    config.profile = benchmarkByName("gcc");
    config.kind = CoreKind::Flywheel;
    StaticProgram program(config.profile);
    WorkloadStream stream(program);
    auto core = makeCore(config, stream);
    core->run(2000);
    Snapshot snap;
    snap.setKey("dump-test-key");
    core->save(snap);
    const std::string path = ::testing::TempDir() + "fw_dump_ckpt.fws";
    std::string error;
    ASSERT_TRUE(snap.writeFile(path, &error)) << error;

    std::ostringstream out, err;
    ASSERT_EQ(cli::dumpCheckpoint(path, out, err), 0) << err.str();
    Json doc;
    ASSERT_TRUE(Json::parse(out.str(), doc, &error)) << error;
    EXPECT_EQ(doc["key"].asString(), "dump-test-key");
    EXPECT_EQ(doc["version"].asU64(),
              std::uint64_t(Snapshot::kFormatVersion));
    EXPECT_EQ(doc["hash"].asString().size(), 16u);
    const Json &sections = doc["sections"];
    ASSERT_EQ(sections.size(), snap.sectionCount());
    ASSERT_GT(snap.sectionCount(), 0u);
    for (std::size_t i = 0; i < snap.sectionCount(); ++i) {
        EXPECT_EQ(sections.at(i)["name"].asString(), snap.sectionName(i));
        EXPECT_EQ(sections.at(i)["bytes"].asU64(),
                  snap.sectionData(i).size());
        EXPECT_EQ(sections.at(i)["fnv1a"].asString().size(), 16u);
    }

    // A truncated file exits non-zero with the decoder's error.
    const std::string bytes = snap.serialize();
    const std::string cut = ::testing::TempDir() + "fw_dump_cut.fws";
    {
        std::ofstream f(cut, std::ios::binary);
        f << bytes.substr(0, bytes.size() / 2);
    }
    Snapshot unused;
    std::string decode_error;
    ASSERT_FALSE(Snapshot::readFile(cut, &unused, &decode_error));
    std::ostringstream out2, err2;
    EXPECT_NE(cli::dumpCheckpoint(cut, out2, err2), 0);
    EXPECT_NE(err2.str().find(decode_error), std::string::npos)
        << err2.str();
    EXPECT_TRUE(out2.str().empty());
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(SnapshotFlagsDeathTest, RejectsDegenerateSampleCounts)
{
    const char *argv_c[] = {"prog", "--sample", "1"};
    char **argv = const_cast<char **>(argv_c);
    cli::SnapshotFlags flags;
    int i = 1;
    EXPECT_EXIT(flags.tryParse("--sample", 3, argv, &i),
                ::testing::ExitedWithCode(1), "--sample");
}
