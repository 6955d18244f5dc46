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
 *     build a fresh workload + core, run `warmupInstrs` untimed
 *     (caches, predictor, Execution Cache and pools reach steady
 *     state), then time `measureInstrs` of simulation;
 *   report the median of the repeat times.
 * Simulated instruction counts are fully deterministic — identical
 * for any `jobs` value — only the wall-clock times vary.
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
     * Worker threads over grid cells.  1 (the default) times cells
     * back to back — the faithful configuration; more workers finish
     * sooner but contend for the machine, so per-cell throughput
     * numbers drop.  Instruction counts are unaffected either way.
     */
    unsigned jobs = 1;
    /**
     * Warm checkpoint store ("" = none): the untimed warmup of each
     * cell is restored from a checkpoint instead of simulated after
     * the first repeat, so long --repeats runs spend their wall clock
     * on the timed windows.  Timed results are unaffected — restoring
     * is bit-identical to simulating the warmup.
     */
    std::string checkpointDir;
    /** Store size cap (see SweepOptions::checkpointCapBytes). */
    std::uint64_t checkpointCapBytes = 0;
    /**
     * Interval sampling (0 = full detail): time the measurement as N
     * detailed windows separated by fast-forwards, i.e. measure the
     * throughput of a sampled-mode run (see SnapshotPolicy).
     */
    unsigned sampleWindows = 0;
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

/** One timed repeat of one grid cell. */
struct TimedRun
{
    double seconds = 0.0;
    std::uint64_t instructions = 0;  ///< retired in the timed window
};

/** Build, warm up and time one (workload, kind) simulation. */
TimedRun timeOneRun(const std::string &bench_name, CoreKind kind,
                    std::uint64_t warmup_instrs,
                    std::uint64_t measure_instrs,
                    Checkpointer *checkpoints = nullptr,
                    unsigned sample_windows = 0,
                    bool obs_attached = false);

/** Called after each grid cell completes (serialized). */
using PerfProgress = std::function<void(
    std::size_t done, std::size_t total, const PerfEntry &entry)>;

/** Run the whole grid; entries are in grid order (bench-major). */
BenchReport runPerfGrid(const PerfOptions &options,
                        const PerfProgress &progress = nullptr);

} // namespace flywheel::perf

#endif // FLYWHEEL_PERF_PERF_HARNESS_HH
