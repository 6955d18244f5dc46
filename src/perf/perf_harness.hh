/**
 * @file
 * Simulator throughput harness (the `flywheel_perf` engine): run each
 * requested core kind over each named workload for a fixed instruction
 * budget and measure wall-clock simulated-instructions-per-second with
 * warmup and repeat-median discipline.
 *
 * Measurement protocol per grid cell:
 *   repeat `repeats` times:
 *     runSim() the cell's RunConfig: a fresh workload + core runs
 *     `warmupInstrs` untimed (caches, predictor, Execution Cache and
 *     pools reach steady state), then `measureInstrs` of simulation;
 *     the repeat's time is runSim's own measure + reduce phase time;
 *   report the median of the repeat times.
 * Simulated instruction counts are fully deterministic; only the
 * wall-clock times vary.
 */

#ifndef FLYWHEEL_PERF_PERF_HARNESS_HH
#define FLYWHEEL_PERF_PERF_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sim_driver.hh"

namespace flywheel::perf {

/**
 * Median of @p values.  Even-sized inputs average the two central
 * elements; empty input returns 0.
 */
double median(std::vector<double> values);

/** Geometric mean of positive @p values (0 if empty or non-positive). */
double geomean(const std::vector<double> &values);

/** Grid + measurement discipline for one harness run. */
struct PerfOptions
{
    /** Workload names; empty = all ten paper benchmarks. */
    std::vector<std::string> benchmarks;
    /** Core kinds to time. */
    std::vector<CoreKind> kinds{CoreKind::Baseline, CoreKind::Flywheel};
    std::uint64_t warmupInstrs = 50000;
    std::uint64_t measureInstrs = 200000;
    unsigned repeats = 3;
    /**
     * Also time every repeat with an observability sink attached: a
     * tracer whose category mask is fully closed (every emit site
     * takes its branch and filters the event) plus a stats-registry
     * dump at the end of the run.  Each observed repeat runs next to
     * a plain one in the same cell, alternating which goes first, so
     * host-speed drift over the grid hits both timings alike.
     */
    bool timeObserved = false;
};

/** Throughput measurement of one (workload, core kind) grid cell. */
struct PerfEntry
{
    std::string bench;
    std::string kind;                ///< coreKindName() spelling
    std::uint64_t instructions = 0;  ///< retired in the timed window
    std::vector<double> repSeconds;  ///< per-repeat wall seconds
    double medianSeconds = 0.0;
    /** Millions of simulated instructions per wall second for the
     *  cell's timed region. */
    double minstrPerSec = 0.0;
    /** Per-repeat and median seconds of the observed runs; empty and
     *  0 unless PerfOptions::timeObserved. */
    std::vector<double> observedRepSeconds;
    double observedMedianSeconds = 0.0;
};

/** Called after each grid cell completes. */
using PerfProgress = std::function<void(
    std::size_t done, std::size_t total, const PerfEntry &entry)>;

/** Run the whole grid; entries are in grid order (bench-major). */
std::vector<PerfEntry> runPerfGrid(const PerfOptions &options,
                                   const PerfProgress &progress = nullptr);

} // namespace flywheel::perf

#endif // FLYWHEEL_PERF_PERF_HARNESS_HH
