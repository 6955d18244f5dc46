/**
 * @file
 * Unit tests for the shared CLI helper header (tools/cli_util.hh):
 * list splitting, strict number parsing (including the fatal paths),
 * the output-file plumbing and the checkpoint dump verb.
 */

#include "tools/cli_util.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "api/session.hh"
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
    // strtod accepts these spellings; a NaN threshold would pass
    // every range check and disable a regression gate.
    EXPECT_EXIT(cli::parseDoubles("nan", "--threshold"),
                ::testing::ExitedWithCode(1), "bad number 'nan'");
    EXPECT_EXIT(cli::parseDoubles("0.5,inf", "--be"),
                ::testing::ExitedWithCode(1), "bad number 'inf'");
    EXPECT_EXIT(cli::parseDoubles("-INFINITY", "--fe"),
                ::testing::ExitedWithCode(1), "bad number");
}

TEST(ParseU64, ParsesPlainDecimals)
{
    EXPECT_EQ(cli::parseU64("0", "--n"), 0u);
    EXPECT_EQ(cli::parseU64("300000", "--n"), 300000u);
    EXPECT_EQ(cli::parseU64("4294967295", "--repeats",
                            std::numeric_limits<unsigned>::max()),
              4294967295u);
}

TEST(ParseU64DeathTest, RejectsSignsAndGarbage)
{
    EXPECT_EXIT(cli::parseU64("-1", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(cli::parseU64("12x", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(cli::parseU64("", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
    // strtoull clamps overflow to 2^64-1 instead of failing.
    EXPECT_EXIT(cli::parseU64("99999999999999999999", "--instrs"),
                ::testing::ExitedWithCode(1), "out of range");
    // A caller narrowing to unsigned must not wrap 2^32+1 to 1.
    EXPECT_EXIT(cli::parseU64("4294967297", "--repeats",
                              std::numeric_limits<unsigned>::max()),
                ::testing::ExitedWithCode(1), "out of range");
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

TEST(ParseSeconds, AcceptsPositiveFractions)
{
    EXPECT_DOUBLE_EQ(cli::parseSeconds("0.5", "--poll"), 0.5);
    EXPECT_DOUBLE_EQ(cli::parseSeconds("60", "--lease-timeout"), 60.0);
}

TEST(ParseSecondsDeathTest, RejectsNonFiniteAndNonPositive)
{
    // An infinite interval reaches a sleep or the JSON encoder (null)
    // as no wait at all, so a client would spin on status requests.
    EXPECT_EXIT(cli::parseSeconds("inf", "--poll"),
                ::testing::ExitedWithCode(1), "got 'inf'");
    EXPECT_EXIT(cli::parseSeconds("1e400", "--poll"),
                ::testing::ExitedWithCode(1), "got '1e400'");
    EXPECT_EXIT(cli::parseSeconds("nan", "--heartbeat"),
                ::testing::ExitedWithCode(1), "got 'nan'");
    EXPECT_EXIT(cli::parseSeconds("0", "--poll"),
                ::testing::ExitedWithCode(1), "finite seconds value, got '0'");
    EXPECT_EXIT(cli::parseSeconds("-1", "--lease-timeout"),
                ::testing::ExitedWithCode(1), "got '-1'");
    EXPECT_EXIT(cli::parseSeconds("5s", "--heartbeat"),
                ::testing::ExitedWithCode(1), "got '5s'");
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

TEST(StderrProgress, MatchesSessionProgressSignature)
{
    // The shared printer must stay assignable to the session progress
    // slot (the compile is the real assertion).
    SessionOptions opts;
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
    // The parts add up to the file: the header (magic with its NUL,
    // version, content hash, key, section count), then per section
    // its name, flags, both sizes and its stored payload.
    std::uint64_t parts = 18 + 4 + 8 + 4 + doc["key"].asString().size() + 4;
    for (std::size_t i = 0; i < snap.sectionCount(); ++i) {
        const Json &section = sections.at(i);
        EXPECT_EQ(section["name"].asString(), snap.sectionName(i));
        EXPECT_EQ(section["bytes"].asU64(), snap.sectionData(i).size());
        EXPECT_EQ(section["fnv1a"].asString().size(), 16u);
        const std::uint64_t stored = section["stored"].asU64();
        EXPECT_LE(stored, section["bytes"].asU64());
        EXPECT_EQ(section["compressed"].asBool(),
                  stored < section["bytes"].asU64());
        parts += 4 + section["name"].asString().size() + 1 + 8 + 8 + stored;
    }
    EXPECT_EQ(parts, doc["fileBytes"].asU64());
    EXPECT_EQ(parts, std::filesystem::file_size(path));

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
