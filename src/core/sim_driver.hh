/**
 * @file
 * High-level simulation driver: the public API the examples and the
 * paper-reproduction benches use.  A RunConfig names a benchmark, a
 * core flavour and a clock plan; runSim() builds the workload and
 * core, performs the warm-up, measures, and returns timing, energy
 * and behavioural statistics for the measurement window only.
 */

#ifndef FLYWHEEL_CORE_SIM_DRIVER_HH
#define FLYWHEEL_CORE_SIM_DRIVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/core_base.hh"
#include "core/params.hh"
#include "power/energy_model.hh"
#include "timing/technology.hh"
#include "workload/program.hh"

namespace flywheel {

class Checkpointer;

/** Which core to simulate. */
enum class CoreKind
{
    Baseline,           ///< fully synchronous out-of-order (Table 2)
    RegisterAllocation, ///< Flywheel without the Execution Cache
    Flywheel,           ///< full dual-clock + pre-scheduled execution
};

/**
 * How a run uses the state snapshot subsystem (src/snapshot/).
 *
 * Save and Reuse affect only wall-clock time: restoring a post-warmup
 * checkpoint is bit-identical to simulating the warmup (enforced by
 * tests/test_snapshot.cc, the save/restore fuzz mode and ultimately
 * the golden figures).  Sample changes what is measured — N detailed
 * windows separated by fast-forwarded gaps — so sampling parameters
 * are part of the ResultCache key while Save/Reuse are not.
 */
struct SnapshotPolicy
{
    enum class Mode
    {
        Off,     ///< simulate the warmup every run (historical behaviour)
        Save,    ///< simulate the warmup and (re)write the checkpoint
        Reuse,   ///< restore the checkpoint if present, else Save
        Sample,  ///< interval sampling over the measurement window
    };

    Mode mode = Mode::Off;
    /**
     * On-disk checkpoint store for runs driven without an external
     * Checkpointer ("" = none).  SweepRunner/Session-driven runs use
     * the engine's shared store instead (SweepOptions::checkpointDir).
     */
    std::string dir;

    // Interval sampling (mode == Sample).  The measurement window is
    // split into sampleWindows detailed windows; between windows the
    // workload stream fast-forwards sampleFastForward instructions
    // without detailed simulation and a fresh core re-warms for
    // sampleWarmup detailed (unmeasured) instructions.  Zero means
    // "derive from the window length" (gap = one window, re-warm =
    // a quarter window).
    unsigned sampleWindows = 0;
    std::uint64_t sampleFastForward = 0;
    std::uint64_t sampleWarmup = 0;
};

/**
 * Observability attachments for one run.  None of this enters the
 * result-cache key or the serialized RunResult: stats/trace documents
 * describe *how* a run executed, while the cached result is *what* it
 * computed — the golden figures and the sweep determinism contract
 * stay byte-identical whether or not observation is on.
 */
struct ObsConfig
{
    /** Attach a flywheel.stats.v1 registry dump to the RunResult. */
    bool collectStats = false;
    /** Non-null = pipeline tracing on; the run merges its events
     *  here when it finishes.  Caller owns the sink. */
    obs::TraceSink *traceSink = nullptr;
    std::uint32_t traceMask = obs::kTraceCatAll;
    std::size_t traceCapacity = obs::Tracer::kDefaultCapacity;
    /** Chrome trace thread name ("" = the benchmark name). */
    std::string traceLabel;

    /** True if the run must actually execute (no cache short-cut). */
    bool active() const { return collectStats || traceSink != nullptr; }
};

/** One simulation run description. */
struct RunConfig
{
    BenchProfile profile;           ///< workload to execute
    CoreKind kind = CoreKind::Baseline;
    CoreParams params;              ///< structure sizes and clocks
    TechNode node = TechNode::N130; ///< for the energy model
    /** Paper extension: power-gate front-end logic in trace mode. */
    bool frontEndPowerGating = false;
    std::uint64_t warmupInstrs = 100000;
    std::uint64_t measureInstrs = 300000;
    SnapshotPolicy snapshot;        ///< checkpoint/sampling policy
    ObsConfig obs;                  ///< stats/trace attachments
};

/**
 * Host-side execution telemetry for one run: wall-clock per phase and
 * warmup provenance.  Never serialized (toJson(RunResult) excludes
 * it) — host timing must not leak into deterministic artifacts.
 */
struct RunTelemetry
{
    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;
    double reduceSeconds = 0.0;
    bool warmupRestored = false;  ///< warm state came from a checkpoint
};

/** Results over the measurement window. */
struct RunResult
{
    std::uint64_t instructions = 0;
    Tick timePs = 0;               ///< execution time (the paper's metric)
    double ipc = 0.0;              ///< per baseline-period cycles
    double ecResidency = 0.0;      ///< alternative-path fraction
    double mispredictRate = 0.0;   ///< per conditional branch
    CoreStats stats;               ///< window deltas
    EnergyEvents events;           ///< window deltas
    EnergyBreakdown energy;        ///< from the window events
    double averageWatts = 0.0;

    /**
     * flywheel.stats.v1 registry dump of the run's final core state
     * (only when ObsConfig::collectStats; shared so copying results
     * around the sweep engine stays cheap).  Excluded from
     * toJson(RunResult).
     */
    std::shared_ptr<const Json> statsDoc;
    /** Host-side phase timers.  Excluded from toJson(RunResult). */
    RunTelemetry telemetry;
};

/**
 * Clock configuration helper: baseline period 1000 ps with the
 * front-end sped up by @p fe_boost (0.0 .. 1.0) and the
 * trace-execution back-end by @p be_boost (the paper's FEx%, BEy%
 * notation).  The baseline core ignores the boosts.
 */
CoreParams clockedParams(double fe_boost, double be_boost);

/**
 * Build the core @p config describes over @p stream (the factory
 * runSim uses; exposed for tests and the verification subsystem).
 */
std::unique_ptr<CoreBase> makeCore(const RunConfig &config,
                                   WorkloadStream &stream);

/**
 * Phase 1 of runSim, exposed for the perf harness:
 * bring @p core to its post-warmup state — simulating, or restoring
 * from / publishing to @p checkpoints per config.snapshot.
 * @return true if the warm state was restored from a checkpoint.
 */
bool runSimWarmup(const RunConfig &config, CoreBase &core,
                  Checkpointer *checkpoints);

/**
 * Phase 2 of runSim, exposed for the perf harness: execute the
 * measurement schedule config.snapshot implies — contiguous, or N
 * detailed windows with stream fast-forwards and fresh-core re-warms
 * between them — invoking @p window(core, instrs) for each measured
 * window.  The callback runs the core for exactly @p instrs retired
 * instructions and owns any bookkeeping around it (delta capture,
 * wall-clock timing).  One loop serves runSim and the perf harness,
 * so what the harness times cannot drift from what runSim executes.
 */
void forEachMeasureWindow(
    const RunConfig &config, WorkloadStream &stream,
    std::unique_ptr<CoreBase> &core,
    const std::function<void(CoreBase &, std::uint64_t)> &window);

/**
 * Execute one run.  Honours config.snapshot: with a non-Off mode and
 * a configured store, the warmup phase is restored from / saved to a
 * checkpoint, and Sample mode measures N detailed windows separated
 * by fast-forwards instead of one contiguous window.
 */
RunResult runSim(const RunConfig &config);

/**
 * Same, sharing @p checkpoints across runs (the sweep engine's warm
 * checkpoint store; may be null).  The run phases are: warm-up
 * (simulate / restore / save per the policy), measurement (contiguous
 * or sampled), reduction to a RunResult.
 */
RunResult runSim(const RunConfig &config, Checkpointer *checkpoints);

/**
 * Strict instruction-count parser shared by the FLYWHEEL_SIM_INSTRS /
 * FLYWHEEL_WARMUP_INSTRS overrides: decimal digits only, no sign, no
 * trailing text, no overflow, value >= 1.  Mirrors the FLYWHEEL_JOBS
 * discipline (ThreadPool::parseJobsValue) — strtoull alone would
 * silently accept "100k" (prefix), "-1" (wraps to a huge count) and
 * overflowed values.
 */
bool parseInstrCount(const char *text, std::uint64_t *out);

/** Measurement length override from FLYWHEEL_SIM_INSTRS, if set. */
std::uint64_t defaultMeasureInstrs();

/** Warm-up length override from FLYWHEEL_WARMUP_INSTRS, if set. */
std::uint64_t defaultWarmupInstrs();

} // namespace flywheel

#endif // FLYWHEEL_CORE_SIM_DRIVER_HH
