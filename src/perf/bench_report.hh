/**
 * @file
 * The repo's canonical simulator-throughput trajectory format:
 * `BENCH_flywheel.json`.  A BenchReport records, for every (core
 * kind, workload) pair, how many simulated instructions per wall-clock
 * second the simulator sustains, with warmup and repeat-median
 * discipline, plus enough host metadata to interpret the numbers
 * later.  Serialization goes through src/common/json, whose object
 * writer preserves insertion order, so the same data always produces
 * the same bytes.
 *
 * The CI perf job uploads the current report as an artifact and
 * compares it against the committed bench/baseline_perf.json with
 * comparePerf() — a generous threshold so only real regressions (not
 * runner noise) fail the build.
 */

#ifndef FLYWHEEL_PERF_BENCH_REPORT_HH
#define FLYWHEEL_PERF_BENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace flywheel::perf {

/**
 * Version tag every BENCH_flywheel.json carries.  v1.1 added the
 * aggregate throughput field, so readers accept v1 documents too.
 * The reader still tolerates the `batch_width` / `lanes` members of
 * older v1.1 reports when they say 1, and rejects wider ones.
 */
inline constexpr const char *kBenchSchema = "flywheel.bench_perf.v1.1";

/** Previous tag, still accepted by BenchReport::fromJson(). */
inline constexpr const char *kBenchSchemaV1 = "flywheel.bench_perf.v1";

/**
 * Median of @p values (the one implementation all tools share; the
 * CLIs reach it through tools/cli_util.hh).  Even-sized inputs
 * average the two central elements; empty input returns 0.
 */
double median(std::vector<double> values);

/** Geometric mean of positive @p values (0 if empty or non-positive). */
double geomean(const std::vector<double> &values);

/** Machine/toolchain identity embedded in every report. */
struct HostInfo
{
    std::string hostname;
    std::string cpu;             ///< model name from /proc/cpuinfo
    unsigned hwThreads = 0;
    std::string compiler;        ///< e.g. "GNU 12.2.0"
    std::string build;           ///< "release" or "debug" (NDEBUG)
};

/** Collect HostInfo for the running process. */
HostInfo collectHostInfo();

/** Throughput measurement of one (workload, core kind) grid cell. */
struct PerfEntry
{
    std::string bench;
    std::string kind;                ///< coreKindName() spelling
    std::uint64_t instructions = 0;  ///< retired in the timed window(s)
    std::vector<double> repSeconds;  ///< per-repeat wall seconds
    double medianSeconds = 0.0;
    /** Millions of simulated instructions per wall second for the
     *  cell's timed region. */
    double minstrPerSec = 0.0;
};

/**
 * Host-side telemetry for one harness run: total wall-clock and the
 * warm-checkpoint-store traffic behind the timed cells.  Optional in
 * the serialized report — pre-observability baselines lack the block
 * and still parse — and never read by comparePerf().
 */
struct BenchTelemetry
{
    bool present = false;
    double wallSeconds = 0.0;
    std::uint64_t checkpointMemoryHits = 0;
    std::uint64_t checkpointDiskHits = 0;
    std::uint64_t checkpointComputes = 0;
    std::uint64_t checkpointBytesWritten = 0;
    std::uint64_t checkpointBytesRead = 0;
};

/** A full BENCH_flywheel.json document. */
struct BenchReport
{
    HostInfo host;
    std::uint64_t warmupInstrs = 0;
    std::uint64_t measureInstrs = 0;
    unsigned repeats = 0;
    unsigned jobs = 0;
    /** Interval-sampling windows (0 = contiguous measurement).  Part
     *  of the config block so sampled and full-detail reports are
     *  never silently compared against each other. */
    unsigned sampleWindows = 0;
    /** Grid timed with an observability sink attached (masked
     *  tracer + stats registry dump): measures the emit-site cost.
     *  Part of the config block for the same reason as sampling. */
    bool obsAttached = false;
    std::vector<PerfEntry> entries;
    BenchTelemetry telemetry;

    /** Geomean of minstrPerSec over every entry. */
    double geomeanMinstrPerSec() const;

    /**
     * Aggregate simulated-instructions throughput of the whole grid:
     * every timed instruction of every cell divided by the total
     * timed wall clock, in Minstr/s.  Unlike the geomean this weights
     * cells by their actual simulation cost.
     */
    double aggregateMinstrPerSec() const;

    /** Schema'd serialization (stable key order). */
    Json toJson() const;

    /**
     * Parse a report; false (and @p error) on schema violations:
     * wrong/missing schema tag, missing members, wrong member kinds.
     */
    static bool fromJson(const Json &j, BenchReport *out,
                         std::string *error);
};

/** One (bench, kind) throughput comparison against a baseline. */
struct PerfDelta
{
    std::string bench;
    std::string kind;
    double baselineMinstrPerSec = 0.0;
    double currentMinstrPerSec = 0.0;  ///< 0 = cell missing from current
    double ratio = 0.0;                ///< current / baseline
    bool regressed = false;            ///< ratio below 1 - threshold
};

/**
 * Compare @p current against @p baseline cell by cell.  Every
 * baseline (bench, kind) cell must exist in @p current — a missing
 * cell counts as a regression (a silently shrunken grid must not
 * pass the gate).  Cells only present in @p current are ignored so a
 * grown grid needs no immediate baseline refresh.  @p max_regression
 * is the tolerated fractional throughput loss (e.g. 0.30).
 *
 * With @p relative set, each cell is first normalized by its own
 * report's geomean, so a uniformly slower/faster machine cancels out
 * and only *shape* changes — one structure regressing relative to
 * the rest, exactly what a hot-path defect looks like — trip the
 * gate.  This is the mode for CI baselines committed from a
 * different machine class; absolute mode is for trajectories
 * measured on one reference host.  A degenerate report whose geomean
 * is zero (empty grid, or any cell recorded at 0 Minstr/s) cannot be
 * normalized; rather than scaling every cell to zero — which would
 * flag the whole healthy grid as regressed — relative mode falls
 * back to the absolute comparison for both sides.
 */
std::vector<PerfDelta> comparePerf(const BenchReport &current,
                                   const BenchReport &baseline,
                                   double max_regression,
                                   bool relative = false);

} // namespace flywheel::perf

#endif // FLYWHEEL_PERF_BENCH_REPORT_HH
