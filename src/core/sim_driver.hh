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
 * Observability attachments for one run.  None of this enters the
 * result-store key or the serialized RunResult: stats/trace documents
 * describe *how* a run executed, while the stored result is *what* it
 * computed — the golden figures and the sweep determinism contract
 * stay byte-identical whether or not observation is on.
 */
struct ObsConfig
{
    /** Attach a flywheel.stats.v1 registry dump to the RunResult. */
    bool collectStats = false;
    /** Non-null = pipeline tracing on; the run adds its events here
     *  as one run when it finishes.  Caller owns the sink. */
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
 * True iff clockedParams() turns @p boost into a usable clock: finite,
 * above -1, and with a period that still rounds to a whole picosecond
 * of at least 1 (boost <= 1999).
 */
bool validClockBoost(double boost);

/**
 * True iff @p params meets the preconditions the cores' constructors
 * and pipelines place on the spec-tweakable fields:
 *  - ecBlockSlots >= 1 and ecTotalBlocks >= 2 (ExecCache);
 *  - 64 * max(2, minPoolSize) <= poolPhysRegs <= 65535
 *    (PoolRenameUnit: every architectural register gets a pool, and
 *    register indices are 16-bit PhysRegs below kNoPhysReg);
 *  - extraFrontEndStages and wakeupExtraDelay at most 1000.
 * Otherwise false, with *error naming the field ("poolPhysRegs: ...").
 * A pool-size conflict names poolPhysRegs unless it holds its default.
 */
bool validCoreParams(const CoreParams &params, std::string *error);

/**
 * Build the core @p config describes over @p stream (the factory
 * runSim uses; exposed for tests and the verification subsystem).
 */
std::unique_ptr<CoreBase> makeCore(const RunConfig &config,
                                   WorkloadStream &stream);

/**
 * Execute one run: warm-up, one contiguous measurement window, and
 * reduction to a RunResult.  With a non-null @p checkpoints (the
 * sweep engine's shared store) and a non-zero warm-up, the warm state
 * is restored from the store's checkpoint for this config, or
 * simulated once and published there; restoring is bit-identical to
 * simulating (tests/test_snapshot.cc), so the result never depends on
 * which happened.
 */
RunResult runSim(const RunConfig &config,
                 Checkpointer *checkpoints = nullptr);

/**
 * The run @p config actually simulates: @p config with every field
 * that reaches only the reduction (the energy model's tech node and
 * front-end power gating) reset to its default.  Configs with one
 * configKey(simulatedConfig(c)) simulate bit-identically, so a single
 * simulation serves all of them through reduceFor().  Reset only
 * fields the core never reads.
 */
RunConfig simulatedConfig(const RunConfig &config);

/**
 * @p config's result from @p simulated, a finished run of
 * simulatedConfig(config): runSim's own reduction over the simulated
 * window's events and stats, so toJson() of the two is byte-identical
 * to runSim(config)'s.  Carries @p simulated's telemetry.
 */
RunResult reduceFor(const RunConfig &config, const RunResult &simulated);

/**
 * Strict instruction-count parser shared by the FLYWHEEL_SIM_INSTRS /
 * FLYWHEEL_WARMUP_INSTRS overrides: a parseDecimal() value >= 1
 * (common/decimal.hh).
 */
bool parseInstrCount(const char *text, std::uint64_t *out);

/** Measurement length override from FLYWHEEL_SIM_INSTRS, if set. */
std::uint64_t defaultMeasureInstrs();

/** Warm-up length override from FLYWHEEL_WARMUP_INSTRS, if set. */
std::uint64_t defaultWarmupInstrs();

} // namespace flywheel

#endif // FLYWHEEL_CORE_SIM_DRIVER_HH
