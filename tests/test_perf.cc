/**
 * @file
 * Tests for the throughput subsystem (src/perf): the median, geomean
 * and host-metadata helpers, BENCH_flywheel.json schema round-trip,
 * rejection of malformed reports, the regression comparator, and a
 * tiny end-to-end harness smoke run checked against runSim.
 */

#include "perf/bench_report.hh"
#include "perf/perf_harness.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workload/profiles.hh"

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

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(perf::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(perf::median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(perf::median({7.5}), 7.5);
    EXPECT_DOUBLE_EQ(perf::median({}), 0.0);
}

TEST(Median, DoesNotMutateCallerOrder)
{
    // Takes its argument by value: a caller's rep_seconds list keeps
    // its chronological order for the report.
    std::vector<double> reps{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(perf::median(reps), 2.0);
    EXPECT_EQ(reps, (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(Geomean, PositiveValuesAndEdgeCases)
{
    EXPECT_NEAR(perf::geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(perf::geomean({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(perf::geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(perf::geomean({1.0, 0.0}), 0.0);
}

TEST(HostMeta, CollectsNonEmptyIdentity)
{
    perf::HostInfo h = perf::collectHostInfo();
    EXPECT_FALSE(h.hostname.empty());
    EXPECT_FALSE(h.cpu.empty());
    EXPECT_GE(h.hwThreads, 1u);
    EXPECT_FALSE(h.compiler.empty());
    EXPECT_TRUE(h.build == "release" || h.build == "debug");
}

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

/** sampleReport()'s JSON with @p member inserted after @p after. */
Json
sampleWithMember(const std::string &after, const std::string &member)
{
    std::string bytes = sampleReport().toJson().dump(2);
    const std::size_t pos = bytes.find(after);
    EXPECT_NE(pos, std::string::npos) << after;
    bytes.insert(pos + after.size(), member);
    Json j;
    std::string error;
    EXPECT_TRUE(Json::parse(bytes, j, &error)) << error;
    return j;
}

TEST(BenchReportJson, AcceptsScalarWidthFieldsOfOlderReports)
{
    // Reports written while the harness had a batched mode record
    // batch_width = 1 and lanes = 1; they must keep parsing.
    BenchReport r;
    std::string error;
    EXPECT_TRUE(BenchReport::fromJson(
        sampleWithMember("\"repeats\": 3", ", \"batch_width\": 1"),
        &r, &error))
        << error;
    EXPECT_TRUE(BenchReport::fromJson(
        sampleWithMember("\"kind\": \"flywheel\"", ", \"lanes\": 1"), &r,
        &error))
        << error;

    // So must the committed baseline the CI perf gate compares with.
    std::ifstream file(std::string(FLYWHEEL_REPO_DIR) +
                       "/bench/baseline_perf.json");
    ASSERT_TRUE(file);
    std::ostringstream text;
    text << file.rdbuf();
    Json parsed;
    ASSERT_TRUE(Json::parse(text.str(), parsed, &error)) << error;
    EXPECT_TRUE(BenchReport::fromJson(parsed, &r, &error)) << error;
    EXPECT_FALSE(r.entries.empty());
}

TEST(BenchReportJson, RejectsBatchedReports)
{
    // A report that timed several lanes per cell measures a different
    // quantity; gating it against scalar numbers would pass silently.
    BenchReport r;
    std::string error;
    EXPECT_FALSE(BenchReport::fromJson(
        sampleWithMember("\"repeats\": 3", ", \"batch_width\": 8"),
        &r, &error));
    EXPECT_NE(error.find("batch_width"), std::string::npos) << error;

    // Likewise a report of interval-sampled windows.
    error.clear();
    EXPECT_FALSE(BenchReport::fromJson(
        sampleWithMember("\"repeats\": 3", ", \"sample_windows\": 4"),
        &r, &error));
    EXPECT_NE(error.find("sample_windows"), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(BenchReport::fromJson(
        sampleWithMember("\"kind\": \"flywheel\"", ", \"lanes\": 8"), &r,
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

    // The cell times runSim itself: it retires exactly what runSim
    // retires for the same configuration.
    RunConfig config;
    config.profile = benchmarkByName("gcc");
    config.kind = CoreKind::Flywheel;
    config.warmupInstrs = opts.warmupInstrs;
    config.measureInstrs = opts.measureInstrs;
    EXPECT_EQ(e.instructions, runSim(config).instructions);

    // An observed grid (masked tracer + stats dump) simulates the
    // same work; only its wall clock may differ.
    opts.obsAttached = true;
    BenchReport observed = perf::runPerfGrid(opts);
    ASSERT_EQ(observed.entries.size(), 1u);
    EXPECT_EQ(observed.entries[0].instructions, e.instructions);
    EXPECT_GT(observed.entries[0].minstrPerSec, 0.0);

    // And the report it emits parses back.
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(r.toJson().dump(2), parsed, &error));
    BenchReport back;
    ASSERT_TRUE(BenchReport::fromJson(parsed, &back, &error)) << error;
    EXPECT_EQ(back.entries.size(), 1u);
}
