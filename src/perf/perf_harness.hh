/**
 * @file
 * Simulator throughput harness (the `flywheel_perf` engine): run each
 * requested core kind over each named workload for a fixed instruction
 * budget, measure wall-clock simulated-instructions-per-second with
 * warmup and repeat-median discipline, and return the canonical
 * BenchReport (see perf/bench_report.hh).
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
#include "perf/bench_report.hh"

namespace flywheel::perf {

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
     * Time every cell with an observability sink attached: a tracer
     * whose category mask is fully closed (every emit site takes its
     * branch and filters the event) plus a stats-registry dump at the
     * end of the cell.  Against a plain run of the same grid this
     * bounds the cost observability adds to an *observed* run; the
     * cost when nothing is attached is gated separately against the
     * committed baseline.
     */
    bool obsAttached = false;
};

/** Called after each grid cell completes. */
using PerfProgress = std::function<void(
    std::size_t done, std::size_t total, const PerfEntry &entry)>;

/** Run the whole grid; entries are in grid order (bench-major). */
BenchReport runPerfGrid(const PerfOptions &options,
                        const PerfProgress &progress = nullptr);

} // namespace flywheel::perf

#endif // FLYWHEEL_PERF_PERF_HARNESS_HH
