/**
 * @file
 * Tests for the throughput subsystem (src/perf): the median and
 * geomean helpers and tiny end-to-end harness runs checked against
 * runSim.
 */

#include "perf/perf_harness.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workload/profiles.hh"

using namespace flywheel;
using perf::PerfEntry;

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

TEST(PerfHarness, TinySmokeRunProducesSaneReport)
{
    perf::PerfOptions opts;
    opts.benchmarks = {"gcc"};
    opts.kinds = {CoreKind::Flywheel};
    opts.warmupInstrs = 500;
    opts.measureInstrs = 2000;
    opts.repeats = 2;

    std::size_t calls = 0;
    const std::vector<PerfEntry> entries = perf::runPerfGrid(
        opts, [&](std::size_t done, std::size_t total,
                  const PerfEntry &e) {
            ++calls;
            EXPECT_EQ(done, 1u);
            EXPECT_EQ(total, 1u);
            EXPECT_EQ(e.bench, "gcc");
        });

    EXPECT_EQ(calls, 1u);
    ASSERT_EQ(entries.size(), 1u);
    const PerfEntry &e = entries[0];
    EXPECT_EQ(e.kind, "flywheel");
    EXPECT_GE(e.instructions, opts.measureInstrs);
    ASSERT_EQ(e.repSeconds.size(), 2u);
    EXPECT_GT(e.medianSeconds, 0.0);
    EXPECT_GT(e.minstrPerSec, 0.0);
    // A plain grid times no observed runs.
    EXPECT_TRUE(e.observedRepSeconds.empty());
    EXPECT_EQ(e.observedMedianSeconds, 0.0);

    // The cell times runSim itself: it retires exactly what runSim
    // retires for the same configuration.
    RunConfig config;
    config.profile = benchmarkByName("gcc");
    config.kind = CoreKind::Flywheel;
    config.warmupInstrs = opts.warmupInstrs;
    config.measureInstrs = opts.measureInstrs;
    EXPECT_EQ(e.instructions, runSim(config).instructions);
}

TEST(PerfHarness, ObsGatedGridRecordsBothTimingsForEveryCell)
{
    // The observability gate compares each cell's plain and observed
    // medians, so every cell must carry a full set of both.
    perf::PerfOptions opts;
    opts.benchmarks = {"gcc", "gzip"};
    opts.kinds = {CoreKind::Baseline, CoreKind::Flywheel};
    opts.warmupInstrs = 500;
    opts.measureInstrs = 2000;
    opts.repeats = 3;
    opts.timeObserved = true;

    const std::vector<PerfEntry> entries = perf::runPerfGrid(opts);
    ASSERT_EQ(entries.size(), 4u);
    for (const PerfEntry &e : entries) {
        SCOPED_TRACE(e.bench + "/" + e.kind);
        ASSERT_EQ(e.repSeconds.size(), 3u);
        ASSERT_EQ(e.observedRepSeconds.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_GT(e.repSeconds[i], 0.0);
            EXPECT_GT(e.observedRepSeconds[i], 0.0);
        }
        EXPECT_EQ(e.medianSeconds, perf::median(e.repSeconds));
        EXPECT_EQ(e.observedMedianSeconds,
                  perf::median(e.observedRepSeconds));
        EXPECT_GE(e.instructions, opts.measureInstrs);
    }
}
