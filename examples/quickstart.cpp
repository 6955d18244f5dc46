/**
 * @file
 * Quickstart: simulate one SPEC-like benchmark on the baseline
 * out-of-order core and on the Flywheel microarchitecture, and print
 * a full comparison report (execution time, IPC, alternative-path
 * residency, energy breakdown).
 *
 * Uses the Experiment API: the two runs are one declarative
 * ExperimentSpec executed by a Session (worker pool + result store),
 * and the report pulls its rows from the finished table by identity.
 *
 *   ./quickstart [benchmark]       (default: gzip)
 */

#include <iostream>
#include <string>

#include "api/session.hh"
#include "api/table_index.hh"
#include "core/report.hh"

using namespace flywheel;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "gzip";

    // What to run, as a value: the fully synchronous baseline and
    // the paper's FE50/BE50 Flywheel point on one benchmark.
    ExperimentSpec spec;
    spec.name = "quickstart";
    spec.warmupInstrs = 50000;
    spec.measureInstrs = 200000;

    GridSpec baseline;
    baseline.benchmarks = {bench};
    baseline.kinds = {CoreKind::Baseline};
    baseline.clocks = {{0.0, 0.0}};
    spec.grids.push_back(baseline);

    GridSpec flywheel = baseline;
    flywheel.kinds = {CoreKind::Flywheel};
    flywheel.clocks = {{0.5, 0.5}};
    spec.grids.push_back(flywheel);

    Session session;
    SweepTable table = session.run(spec);
    TableIndex ix(table);

    writeComparison(std::cout, "baseline (" + bench + ")",
                    ix.get(bench, CoreKind::Baseline, {0.0, 0.0}),
                    "flywheel FE50/BE50 (" + bench + ")",
                    ix.get(bench, CoreKind::Flywheel, {0.5, 0.5}));
    return 0;
}
