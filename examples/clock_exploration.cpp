/**
 * @file
 * Design-space exploration: sweep the front-end and back-end clock
 * boosts of the Flywheel for one benchmark and print the
 * performance/power frontier — the trade-off at the heart of the
 * paper's Figs 12 and 14.
 *
 * Uses the Experiment API: the 3x3 clock grid plus the baseline is
 * one declarative ExperimentSpec; the Session runs it on the worker
 * pool and the frontier loop reads the table by identity, so the
 * printed order is independent of execution order.
 *
 *   ./clock_exploration [benchmark]    (default: mesa)
 */

#include <cstdio>
#include <string>

#include "api/session.hh"
#include "api/table_index.hh"

using namespace flywheel;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "mesa";

    const double fe_boosts[] = {0.0, 0.5, 1.0};
    const double be_boosts[] = {0.0, 0.25, 0.5};

    ExperimentSpec spec;
    spec.name = "clock_exploration";
    spec.warmupInstrs = 50000;
    spec.measureInstrs = 150000;

    GridSpec baseline;
    baseline.benchmarks = {bench};
    baseline.kinds = {CoreKind::Baseline};
    baseline.clocks = {{0.0, 0.0}};
    spec.grids.push_back(baseline);

    GridSpec flywheel = baseline;
    flywheel.kinds = {CoreKind::Flywheel};
    flywheel.clocks.clear();
    for (double be : be_boosts)
        for (double fe : fe_boosts)
            flywheel.clocks.push_back({fe, be});
    spec.grids.push_back(flywheel);

    Session session;
    SweepTable table = session.run(spec);
    TableIndex ix(table);
    const RunResult &base = ix.get(bench, CoreKind::Baseline, {0.0, 0.0});

    std::printf("clock exploration on %s: performance and power "
                "relative to the baseline\n\n",
                bench.c_str());
    std::printf("%8s %8s %10s %10s %12s %10s\n", "FE", "BE", "perf",
                "power", "perf/power", "residency");

    for (double be : be_boosts) {
        for (double fe : fe_boosts) {
            const RunResult &r =
                ix.get(bench, CoreKind::Flywheel, {fe, be});
            double perf = double(base.timePs) / r.timePs;
            double power = r.averageWatts / base.averageWatts;
            std::printf("%7.0f%% %7.0f%% %10.3f %10.3f %12.3f %9.1f%%\n",
                        fe * 100, be * 100, perf, power, perf / power,
                        r.ecResidency * 100.0);
        }
    }

    std::printf("\n(the paper's headline point is FE50/BE50: large "
                "performance gain for a small power increase)\n");
    return 0;
}
