/**
 * @file
 * Golden-figure regression: rebuild the fig12/fig13/fig14/table1
 * documents (short pinned run lengths, worker pool) and diff them
 * field-by-field against the snapshots in tests/golden/.
 *
 * On an intentional behaviour change, refresh the snapshots with
 *   ./build/flywheel_bench --refresh-golden tests/golden
 * and commit the diff alongside the change that caused it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "verify/golden.hh"

#ifndef FLYWHEEL_GOLDEN_DIR
#define FLYWHEEL_GOLDEN_DIR "tests/golden"
#endif

namespace flywheel {
namespace {

std::string
goldenDir()
{
    if (const char *env = std::getenv("FLYWHEEL_GOLDEN_DIR"))
        return env;
    return FLYWHEEL_GOLDEN_DIR;
}

TEST(Golden, FigureDocumentsMatchSnapshots)
{
    for (const GoldenDiff &d : checkGoldenFiles(goldenDir())) {
        EXPECT_FALSE(d.missing)
            << d.figure << ": golden file missing or unreadable at "
            << d.path
            << " (generate with flywheel_bench --refresh-golden "
            << goldenDir() << ")";
        for (const std::string &diff : d.differences)
            ADD_FAILURE() << d.figure << " diverges from " << d.path
                          << ": " << diff
                          << "\n(if intentional: flywheel_bench "
                             "--refresh-golden " << goldenDir() << ")";
    }
}

TEST(Golden, BuildCoversAllFiguresDeterministically)
{
    GoldenOptions opts;
    opts.warmupInstrs = 500;
    opts.measureInstrs = 1500;

    auto docs1 = buildGoldenDocs(opts);
    ASSERT_EQ(docs1.size(), goldenFigureNames().size());
    for (std::size_t i = 0; i < docs1.size(); ++i)
        EXPECT_EQ(docs1[i].first, goldenFigureNames()[i]);

    // Rebuilding with a different worker count is byte-identical.
    GoldenOptions opts_serial = opts;
    opts_serial.jobs = 1;
    auto docs2 = buildGoldenDocs(opts_serial);
    for (std::size_t i = 0; i < docs1.size(); ++i)
        EXPECT_EQ(docs1[i].second.dump(2), docs2[i].second.dump(2))
            << docs1[i].first;
}

TEST(Golden, JsonDiffReportsFieldLevelDivergence)
{
    Json a = Json::object();
    a.set("x", 1);
    Json inner = Json::object();
    inner.set("y", 2.5);
    a.set("nested", std::move(inner));

    Json b;
    std::string error;
    ASSERT_TRUE(Json::parse(a.dump(0), b, &error)) << error;

    std::vector<std::string> diffs;
    jsonDiff(a, b, "doc", diffs);
    EXPECT_TRUE(diffs.empty()) << diffs.front();

    Json c;
    ASSERT_TRUE(Json::parse("{\"x\": 1, \"nested\": {\"y\": 3.5}}", c,
                            &error));
    jsonDiff(a, c, "doc", diffs);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].find("doc.nested.y"), std::string::npos);

    // Missing and unexpected members are both reported.
    Json d;
    ASSERT_TRUE(Json::parse("{\"x\": 1, \"extra\": true}", d, &error));
    diffs.clear();
    jsonDiff(a, d, "doc", diffs);
    ASSERT_EQ(diffs.size(), 2u);
}

} // namespace
} // namespace flywheel
