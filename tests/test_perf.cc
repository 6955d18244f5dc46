/**
 * @file
 * Tests for the throughput subsystem (src/perf): BENCH_flywheel.json
 * schema round-trip, rejection of malformed reports, determinism of
 * reported instruction counts across worker counts, the regression
 * comparator, and a tiny end-to-end harness smoke run.
 */

#include "perf/bench_report.hh"
#include "perf/perf_harness.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

using namespace flywheel;
using perf::BenchReport;
using perf::PerfEntry;

namespace {

/** Small fully-populated report for serialization tests. */
BenchReport
sampleReport()
{
    BenchReport r;
    r.host.hostname = "ci-runner";
    r.host.cpu = "Example CPU @ 2.70GHz";
    r.host.hwThreads = 4;
    r.host.compiler = "GNU 12.2.0";
    r.host.build = "release";
    r.warmupInstrs = 50000;
    r.measureInstrs = 200000;
    r.repeats = 3;
    r.jobs = 1;

    PerfEntry a;
    a.bench = "gcc";
    a.kind = "baseline";
    a.instructions = 200000;
    a.repSeconds = {0.31, 0.29, 0.30};
    a.medianSeconds = 0.30;
    a.minstrPerSec = 0.2 / 0.30;
    r.entries.push_back(a);

    PerfEntry b;
    b.bench = "gcc";
    b.kind = "flywheel";
    b.instructions = 200003;
    b.repSeconds = {0.20, 0.22, 0.21};
    b.medianSeconds = 0.21;
    b.minstrPerSec = 0.200003 / 0.21;
    r.entries.push_back(b);
    return r;
}

} // namespace

TEST(BenchReportJson, RoundTripIsLossless)
{
    BenchReport original = sampleReport();
    const std::string bytes = original.toJson().dump(2);

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(bytes, parsed, &error)) << error;

    BenchReport restored;
    ASSERT_TRUE(BenchReport::fromJson(parsed, &restored, &error))
        << error;

    // Lossless and byte-stable: serializing the restored report
    // reproduces the original document exactly.
    EXPECT_EQ(restored.toJson().dump(2), bytes);
    EXPECT_EQ(restored.host.hostname, original.host.hostname);
    EXPECT_EQ(restored.warmupInstrs, original.warmupInstrs);
    ASSERT_EQ(restored.entries.size(), original.entries.size());
    EXPECT_EQ(restored.entries[1].instructions,
              original.entries[1].instructions);
    EXPECT_EQ(restored.entries[0].repSeconds,
              original.entries[0].repSeconds);
}

TEST(BenchReportJson, SchemaTagIsEnforced)
{
    Json j;
    std::string error;
    ASSERT_TRUE(Json::parse("{\"schema\":\"somebody.else.v9\"}", j,
                            &error));
    BenchReport r;
    EXPECT_FALSE(BenchReport::fromJson(j, &r, &error));
    EXPECT_NE(error.find("schema"), std::string::npos);

    ASSERT_TRUE(Json::parse("[1,2,3]", j, &error));
    EXPECT_FALSE(BenchReport::fromJson(j, &r, &error));
}

TEST(BenchReportJson, MalformedEntriesAreRejected)
{
    BenchReport original = sampleReport();
    Json j = original.toJson();
    const std::string bytes = j.dump(0);

    // Corrupt one entry: instructions becomes a string.
    std::string broken = bytes;
    const std::string needle = "\"instructions\": 200000";
    auto pos = broken.find(needle);
    ASSERT_NE(pos, std::string::npos);
    broken.replace(pos, needle.size(), "\"instructions\": \"lots\"");

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(broken, parsed, &error));
    BenchReport r;
    EXPECT_FALSE(BenchReport::fromJson(parsed, &r, &error));
    EXPECT_NE(error.find("entry"), std::string::npos);
}

TEST(BenchReportJson, GeomeanMatchesEntries)
{
    BenchReport r = sampleReport();
    const double g = r.geomeanMinstrPerSec();
    EXPECT_NEAR(g,
                std::sqrt(r.entries[0].minstrPerSec *
                          r.entries[1].minstrPerSec),
                1e-12);
}

TEST(ComparePerf, FlagsOnlyRealRegressions)
{
    BenchReport base = sampleReport();
    BenchReport cur = sampleReport();

    // 10% slower: inside a 30% gate.
    cur.entries[0].minstrPerSec = base.entries[0].minstrPerSec * 0.9;
    // 2x faster: never a regression.
    cur.entries[1].minstrPerSec = base.entries[1].minstrPerSec * 2.0;

    auto deltas = perf::comparePerf(cur, base, 0.30);
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_FALSE(deltas[0].regressed);
    EXPECT_NEAR(deltas[0].ratio, 0.9, 1e-12);
    EXPECT_FALSE(deltas[1].regressed);

    // 40% slower: outside the gate.
    cur.entries[0].minstrPerSec = base.entries[0].minstrPerSec * 0.6;
    deltas = perf::comparePerf(cur, base, 0.30);
    EXPECT_TRUE(deltas[0].regressed);
}

TEST(ComparePerf, MissingBaselineCellFailsGrownGridPasses)
{
    BenchReport base = sampleReport();
    BenchReport cur = sampleReport();

    // A cell the baseline tracks vanished from the current run.
    cur.entries.pop_back();
    auto deltas = perf::comparePerf(cur, base, 0.30);
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_TRUE(deltas[1].regressed);
    EXPECT_EQ(deltas[1].currentMinstrPerSec, 0.0);

    // A brand-new cell in the current run is not compared.
    cur = sampleReport();
    PerfEntry extra;
    extra.bench = "vortex";
    extra.kind = "flywheel";
    extra.instructions = 200000;
    extra.minstrPerSec = 1.0;
    cur.entries.push_back(extra);
    deltas = perf::comparePerf(cur, base, 0.30);
    EXPECT_EQ(deltas.size(), 2u);
    for (const auto &d : deltas)
        EXPECT_FALSE(d.regressed);
}

TEST(BenchReportJson, MissingHostOrConfigMembersAreRejected)
{
    // A typo'd hand-refreshed baseline must not parse with silently
    // defaulted discipline fields.
    Json j = sampleReport().toJson();
    const std::string bytes = j.dump(0);

    std::string broken = bytes;
    const std::string needle = "\"warmup_instrs\": 50000";
    auto pos = broken.find(needle);
    ASSERT_NE(pos, std::string::npos);
    broken.replace(pos, needle.size(), "\"warmup_instr\": 50000");

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(broken, parsed, &error));
    BenchReport r;
    EXPECT_FALSE(BenchReport::fromJson(parsed, &r, &error));
    EXPECT_NE(error.find("config"), std::string::npos);

    broken = bytes;
    const std::string host_needle = "\"cpu\": ";
    pos = broken.find(host_needle);
    ASSERT_NE(pos, std::string::npos);
    broken.replace(pos, host_needle.size(), "\"gpu\": ");
    ASSERT_TRUE(Json::parse(broken, parsed, &error));
    EXPECT_FALSE(BenchReport::fromJson(parsed, &r, &error));
    EXPECT_NE(error.find("host"), std::string::npos);
}

TEST(ComparePerf, RelativeModeCancelsUniformMachineSpeed)
{
    BenchReport base = sampleReport();

    // The whole grid 2x slower (a slower CI runner): absolute mode
    // fails everything, relative mode passes everything.
    BenchReport cur = sampleReport();
    for (PerfEntry &e : cur.entries)
        e.minstrPerSec *= 0.5;
    auto absolute = perf::comparePerf(cur, base, 0.30);
    EXPECT_TRUE(absolute[0].regressed);
    EXPECT_TRUE(absolute[1].regressed);
    auto rel = perf::comparePerf(cur, base, 0.30, true);
    EXPECT_FALSE(rel[0].regressed);
    EXPECT_FALSE(rel[1].regressed);
    EXPECT_NEAR(rel[0].ratio, 1.0, 1e-12);

    // One cell collapsing relative to the rest still trips the
    // relative gate on the same slow runner.
    cur.entries[0].minstrPerSec *= 0.4;
    rel = perf::comparePerf(cur, base, 0.30, true);
    EXPECT_TRUE(rel[0].regressed);
    EXPECT_FALSE(rel[1].regressed);
}

TEST(ComparePerf, RelativeModeSurvivesDegenerateGeomean)
{
    // A baseline with one zero-rate cell (truncated write, corrupt
    // timer) zeroes the whole geomean.  Relative mode must fall back
    // to absolute scales instead of normalizing by zero — which used
    // to scale every baseline cell to infinity and flag every
    // healthy current cell as regressed.
    BenchReport base = sampleReport();
    base.entries[0].minstrPerSec = 0.0;
    BenchReport cur = sampleReport();

    auto rel = perf::comparePerf(cur, base, 0.30, true);
    ASSERT_EQ(rel.size(), 2u);
    EXPECT_FALSE(rel[1].regressed);  // healthy cell stays healthy

    // Symmetric degenerate current side: must not divide by zero
    // either (the genuine per-cell collapse still flags).
    BenchReport zero_cur = sampleReport();
    for (PerfEntry &e : zero_cur.entries)
        e.minstrPerSec = 0.0;
    auto rel2 = perf::comparePerf(zero_cur, sampleReport(), 0.30, true);
    ASSERT_EQ(rel2.size(), 2u);
    EXPECT_TRUE(rel2[0].regressed);
    EXPECT_TRUE(rel2[1].regressed);
}

TEST(BenchReportJson, AcceptsLegacyV1SchemaTag)
{
    // Older committed baselines carry the v1 tag; they must keep
    // parsing.
    BenchReport original = sampleReport();
    std::string bytes = original.toJson().dump(2);
    const std::string tag = "\"flywheel.bench_perf.v1.1\"";
    const std::size_t pos = bytes.find(tag);
    ASSERT_NE(pos, std::string::npos);
    bytes.replace(pos, tag.size(), "\"flywheel.bench_perf.v1\"");

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(bytes, parsed, &error)) << error;
    BenchReport restored;
    ASSERT_TRUE(BenchReport::fromJson(parsed, &restored, &error))
        << error;
    EXPECT_EQ(restored.entries.size(), original.entries.size());
}

TEST(BenchReportJson, AcceptsScalarWidthFieldsOfOlderReports)
{
    // The committed baseline predates the batch engine's removal and
    // records batch_width = 1 and lanes = 1; it must keep parsing.
    std::ifstream file(std::string(FLYWHEEL_REPO_DIR) +
                       "/bench/baseline_perf.json");
    ASSERT_TRUE(file);
    std::ostringstream text;
    text << file.rdbuf();
    ASSERT_NE(text.str().find("\"batch_width\": 1"), std::string::npos);
    ASSERT_NE(text.str().find("\"lanes\": 1"), std::string::npos);

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text.str(), parsed, &error)) << error;
    BenchReport restored;
    EXPECT_TRUE(BenchReport::fromJson(parsed, &restored, &error))
        << error;
    EXPECT_FALSE(restored.entries.empty());
}

TEST(BenchReportJson, RejectsBatchedReports)
{
    // A report that timed several lanes per cell measures a different
    // quantity; gating it against scalar numbers would pass silently.
    const auto with_member = [](const std::string &after,
                                const std::string &member) {
        std::string bytes = sampleReport().toJson().dump(2);
        const std::size_t pos = bytes.find(after);
        EXPECT_NE(pos, std::string::npos) << after;
        bytes.insert(pos + after.size(), member);
        Json j;
        std::string error;
        EXPECT_TRUE(Json::parse(bytes, j, &error)) << error;
        return j;
    };

    BenchReport r;
    std::string error;
    EXPECT_FALSE(BenchReport::fromJson(
        with_member("\"obs_attached\": false", ", \"batch_width\": 8"),
        &r, &error));
    EXPECT_NE(error.find("batch_width"), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(BenchReport::fromJson(
        with_member("\"kind\": \"flywheel\"", ", \"lanes\": 8"), &r,
        &error));
    EXPECT_NE(error.find("lanes"), std::string::npos) << error;
}

TEST(BenchReportJson, AggregateSumsInstructionsOverTime)
{
    BenchReport r = sampleReport();
    // aggregate = sum(instructions) / sum(median seconds) / 1e6.
    const double expect =
        (200000.0 + 200003.0) / (0.30 + 0.21) / 1e6;
    EXPECT_NEAR(r.aggregateMinstrPerSec(), expect, 1e-12);

    BenchReport empty;
    EXPECT_EQ(empty.aggregateMinstrPerSec(), 0.0);
}

TEST(PerfHarness, InstructionCountsAreDeterministicAcrossJobs)
{
    perf::PerfOptions opts;
    opts.benchmarks = {"gcc", "gzip"};
    opts.kinds = {CoreKind::Baseline, CoreKind::Flywheel};
    opts.warmupInstrs = 1000;
    opts.measureInstrs = 4000;
    opts.repeats = 1;

    opts.jobs = 1;
    BenchReport serial = perf::runPerfGrid(opts);
    opts.jobs = 4;
    BenchReport pooled = perf::runPerfGrid(opts);

    ASSERT_EQ(serial.entries.size(), 4u);
    ASSERT_EQ(pooled.entries.size(), serial.entries.size());
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
        // Same grid order and identical simulated work; only the
        // wall-clock times may differ.
        EXPECT_EQ(pooled.entries[i].bench, serial.entries[i].bench);
        EXPECT_EQ(pooled.entries[i].kind, serial.entries[i].kind);
        EXPECT_EQ(pooled.entries[i].instructions,
                  serial.entries[i].instructions);
    }
}

TEST(PerfHarness, TinySmokeRunProducesSaneReport)
{
    perf::PerfOptions opts;
    opts.benchmarks = {"gcc"};
    opts.kinds = {CoreKind::Flywheel};
    opts.warmupInstrs = 500;
    opts.measureInstrs = 2000;
    opts.repeats = 2;

    std::size_t calls = 0;
    BenchReport r = perf::runPerfGrid(
        opts, [&](std::size_t done, std::size_t total,
                  const PerfEntry &e) {
            ++calls;
            EXPECT_EQ(done, 1u);
            EXPECT_EQ(total, 1u);
            EXPECT_EQ(e.bench, "gcc");
        });

    EXPECT_EQ(calls, 1u);
    ASSERT_EQ(r.entries.size(), 1u);
    const PerfEntry &e = r.entries[0];
    EXPECT_EQ(e.kind, "flywheel");
    EXPECT_GE(e.instructions, opts.measureInstrs);
    ASSERT_EQ(e.repSeconds.size(), 2u);
    EXPECT_GT(e.medianSeconds, 0.0);
    EXPECT_GT(e.minstrPerSec, 0.0);
    EXPECT_GT(r.geomeanMinstrPerSec(), 0.0);

    // And the report it emits parses back.
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(r.toJson().dump(2), parsed, &error));
    BenchReport back;
    ASSERT_TRUE(BenchReport::fromJson(parsed, &back, &error)) << error;
    EXPECT_EQ(back.entries.size(), 1u);
}
