/**
 * @file
 * flywheel_lint checker tests: each committed fixture pair must pass
 * (good) or trip exactly the intended checker (bad); the real src/
 * tree must lint clean; and deleting a single save() field reference
 * from a stateful class (Lsq) must produce a snapshot finding — the
 * regression the whole tool exists to catch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/lint.hh"

namespace {

using flywheel::lint::Finding;
using flywheel::lint::LintInput;
using flywheel::lint::collectSources;
using flywheel::lint::runLint;

std::string
repoPath(const std::string &rel)
{
    return std::string(FLYWHEEL_REPO_DIR) + "/" + rel;
}

LintInput
load(const std::string &rel)
{
    const std::string path = repoPath(rel);
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return {path, text.str()};
}

std::vector<Finding>
lintFixture(const std::string &name)
{
    return runLint({load("tests/lint_fixtures/" + name)});
}

int
countChecker(const std::vector<Finding> &findings,
             const std::string &checker)
{
    return static_cast<int>(
        std::count_if(findings.begin(), findings.end(),
                      [&](const Finding &f) {
                          return f.checker == checker;
                      }));
}

std::string
dump(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings)
        out += flywheel::lint::formatFinding(f) + "\n";
    return out;
}

// ------------------------------------------------------------- fixtures

TEST(LintFixtures, SnapshotGoodIsClean)
{
    const auto f = lintFixture("snapshot_good.hh");
    EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintFixtures, SnapshotBadFlagsMissingFieldAndBareAnnotation)
{
    const auto f = lintFixture("snapshot_bad.hh");
    EXPECT_EQ(countChecker(f, "snapshot"), 3) << dump(f);
    // cursor_ is missing from save() even though a comment names it.
    EXPECT_NE(dump(f).find("cursor_"), std::string::npos) << dump(f);
    // A nosnapshot annotation without a reason is itself a finding.
    EXPECT_NE(dump(f).find("needs a (<reason>)"), std::string::npos)
        << dump(f);
}

TEST(LintFixtures, StatsGoodIsClean)
{
    const auto f = lintFixture("stats_good.hh");
    EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintFixtures, StatsBadFlagsUnregisteredAndMissingRegisterStats)
{
    const auto f = lintFixture("stats_bad.hh");
    EXPECT_EQ(countChecker(f, "stats"), 2) << dump(f);
    EXPECT_NE(dump(f).find("misses_"), std::string::npos) << dump(f);
    EXPECT_NE(dump(f).find("lonely_"), std::string::npos) << dump(f);
}

TEST(LintFixtures, DeterminismGoodIsClean)
{
    const auto f = lintFixture("determinism_good.cc");
    EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintFixtures, DeterminismBadFlagsRandClockAndUnorderedIteration)
{
    const auto f = lintFixture("determinism_bad.cc");
    EXPECT_EQ(countChecker(f, "determinism"), 3) << dump(f);
    EXPECT_NE(dump(f).find("rand"), std::string::npos) << dump(f);
    EXPECT_NE(dump(f).find("steady_clock"), std::string::npos)
        << dump(f);
    EXPECT_NE(dump(f).find("table_"), std::string::npos) << dump(f);
}

TEST(LintFixtures, HygieneGoodIsClean)
{
    const auto f = lintFixture("hygiene_good.hh");
    EXPECT_TRUE(f.empty()) << dump(f);
}

TEST(LintFixtures, HygieneBadFlagsGuardAndUsingNamespace)
{
    const auto f = lintFixture("hygiene_bad.hh");
    EXPECT_EQ(countChecker(f, "hygiene"), 2) << dump(f);
    EXPECT_NE(dump(f).find("include guard"), std::string::npos)
        << dump(f);
    EXPECT_NE(dump(f).find("using namespace"), std::string::npos)
        << dump(f);
}

// ------------------------------------------------------------ real tree

TEST(LintTree, SrcAndToolsLintClean)
{
    std::vector<LintInput> inputs;
    std::string error;
    ASSERT_TRUE(collectSources(repoPath("src"), &inputs, &error))
        << error;
    ASSERT_TRUE(collectSources(repoPath("tools"), &inputs, &error))
        << error;
    ASSERT_GT(inputs.size(), 50u);
    const auto f = runLint(inputs);
    EXPECT_TRUE(f.empty()) << dump(f);
}

// The acceptance-criterion mutation: deleting one field write from
// Lsq::save() must fail the snapshot checker.
TEST(LintTree, DroppingLsqSaveFieldIsCaught)
{
    LintInput hh = load("src/core/lsq.hh");
    LintInput cc = load("src/core/lsq.cc");
    const std::string dropped = "w.u32(unknownStores_);";
    const std::size_t at = cc.text.find(dropped);
    ASSERT_NE(at, std::string::npos)
        << "lsq.cc no longer serializes unknownStores_ this way; "
           "update the mutation";

    // Unmutated pair: clean.
    const auto clean = runLint({hh, cc});
    EXPECT_TRUE(clean.empty()) << dump(clean);

    // Mutated pair: exactly the missing-from-save() finding.
    cc.text.erase(at, dropped.size());
    const auto f = runLint({hh, cc});
    ASSERT_EQ(countChecker(f, "snapshot"), 1) << dump(f);
    EXPECT_NE(dump(f).find("unknownStores_"), std::string::npos)
        << dump(f);
    EXPECT_NE(dump(f).find("save()"), std::string::npos) << dump(f);
}

// Restore-side mutation: the checker is symmetric.
TEST(LintTree, DroppingLsqRestoreFieldIsCaught)
{
    LintInput hh = load("src/core/lsq.hh");
    LintInput cc = load("src/core/lsq.cc");
    const std::string dropped = "unknownStores_ = r.u32();";
    const std::size_t at = cc.text.find(dropped);
    ASSERT_NE(at, std::string::npos);
    cc.text.erase(at, dropped.size());
    const auto f = runLint({hh, cc});
    ASSERT_GE(countChecker(f, "snapshot"), 1) << dump(f);
    EXPECT_NE(dump(f).find("restore()"), std::string::npos) << dump(f);
}

} // namespace
