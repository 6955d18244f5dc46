#include "core/sim_driver.hh"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "common/log.hh"
#include "core/baseline_core.hh"
#include "flywheel/flywheel_core.hh"
#include "snapshot/checkpointer.hh"
#include "workload/generator.hh"

namespace flywheel {

CoreParams
clockedParams(double fe_boost, double be_boost)
{
    CoreParams p;
    p.basePeriodPs = 1000.0;
    p.fePeriodPs = 1000.0 / (1.0 + fe_boost);
    p.beFastPeriodPs = 1000.0 / (1.0 + be_boost);
    return p;
}

bool
parseInstrCount(const char *text, std::uint64_t *out)
{
    if (!text || !*text)
        return false;
    // Strict decimal only: strtoull would silently accept "100k"
    // (prefix), "-1" (wraps to a huge count) and "0x10".
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end != '\0')
        return false;
    if (v < 1)
        return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
}

namespace {

std::uint64_t
instrsFromEnv(const char *var, std::uint64_t fallback)
{
    const char *env = std::getenv(var);
    if (!env)
        return fallback;
    std::uint64_t v = 0;
    if (parseInstrCount(env, &v))
        return v;
    FW_WARN("ignoring %s='%s' (want a positive decimal instruction "
            "count); using the default %llu",
            var, env, (unsigned long long)fallback);
    return fallback;
}

} // namespace

std::uint64_t
defaultMeasureInstrs()
{
    return instrsFromEnv("FLYWHEEL_SIM_INSTRS", 300000);
}

std::uint64_t
defaultWarmupInstrs()
{
    return instrsFromEnv("FLYWHEEL_WARMUP_INSTRS", 100000);
}

std::unique_ptr<CoreBase>
makeCore(const RunConfig &config, WorkloadStream &stream)
{
    CoreParams params = config.params;
    if (config.kind == CoreKind::RegisterAllocation)
        params.execCacheEnabled = false;
    if (config.kind == CoreKind::Baseline)
        return std::make_unique<BaselineCore>(params, stream);
    return std::make_unique<FlywheelCore>(params, stream);
}

namespace {

/** Resolved interval-sampling schedule. */
struct SampleSchedule
{
    unsigned windows = 1;          ///< 1 = contiguous measurement
    std::uint64_t window = 0;      ///< detailed instructions per window
    std::uint64_t lastWindow = 0;  ///< last window absorbs the remainder
    std::uint64_t gap = 0;         ///< fast-forward between windows
    std::uint64_t rewarm = 0;      ///< detailed re-warm per window
};

/** Derive the schedule @p policy implies for @p measure_instrs. */
SampleSchedule
deriveSampleSchedule(const SnapshotPolicy &policy,
                     std::uint64_t measure_instrs)
{
    SampleSchedule s;
    if (policy.mode != SnapshotPolicy::Mode::Sample ||
        policy.sampleWindows <= 1 ||
        measure_instrs < policy.sampleWindows) {
        s.window = measure_instrs;
        s.lastWindow = measure_instrs;
        return s;
    }
    s.windows = policy.sampleWindows;
    s.window = measure_instrs / s.windows;
    s.lastWindow = measure_instrs - s.window * (s.windows - 1);
    s.gap = policy.sampleFastForward ? policy.sampleFastForward
                                     : s.window;
    s.rewarm = policy.sampleWarmup ? policy.sampleWarmup
                                   : s.window / 4;
    return s;
}

} // namespace

/**
 * Phase 1: bring the simulator to its post-warmup state — by
 * simulating, or through the checkpoint store per the policy.
 */
bool
runSimWarmup(const RunConfig &config, CoreBase &core,
             Checkpointer *checkpoints)
{
    const SnapshotPolicy &policy = config.snapshot;
    const bool checkpointed = checkpoints != nullptr &&
                              policy.mode != SnapshotPolicy::Mode::Off &&
                              config.warmupInstrs > 0;
    if (!checkpointed) {
        core.run(config.warmupInstrs);
        return false;
    }

    const std::string key = checkpointKey(config);
    bool created = false;
    std::shared_ptr<const Snapshot> snap = checkpoints->acquire(
        key,
        [&] {
            core.run(config.warmupInstrs);
            auto s = std::make_shared<Snapshot>();
            s->setKey(key);
            core.save(*s);
            return std::shared_ptr<const Snapshot>(std::move(s));
        },
        /*refresh=*/policy.mode == SnapshotPolicy::Mode::Save,
        &created);
    // The creator's core already holds the warm state (an
    // uninterrupted simulation); everyone else restores, which is
    // bit-identical by the snapshot contract.
    if (!created)
        core.restore(*snap);
    return !created;
}

void
forEachMeasureWindow(
    const RunConfig &config, WorkloadStream &stream,
    std::unique_ptr<CoreBase> &core,
    const std::function<void(CoreBase &, std::uint64_t)> &window)
{
    // SMARTS-style interval sampling: N detailed windows, each
    // preceded (after the first) by a stream-only fast-forward and a
    // short detailed re-warm on a fresh core.  Only the windows are
    // measured; a sampled result estimates a workload sampleWindows
    // times longer than the detailed budget.  A contiguous schedule
    // is the one-window special case.
    const SampleSchedule sched =
        deriveSampleSchedule(config.snapshot, config.measureInstrs);
    for (unsigned w = 0; w < sched.windows; ++w) {
        if (w > 0) {
            stream.skip(sched.gap);
            core = makeCore(config, stream);
            core->run(sched.rewarm);
        }
        window(*core, w + 1 == sched.windows ? sched.lastWindow
                                             : sched.window);
    }
}

namespace {

/**
 * Phase 2: measure.  Returns the measurement-window deltas in
 * @p events and @p stats; may replace @p core (sampling re-warms a
 * fresh core after each fast-forward).
 */
void
runMeasurePhase(const RunConfig &config, WorkloadStream &stream,
                std::unique_ptr<CoreBase> &core, obs::Tracer *tracer,
                EnergyEvents *events, CoreStats *stats)
{
    *events = EnergyEvents{};
    *stats = CoreStats{};
    forEachMeasureWindow(
        config, stream, core,
        [&](CoreBase &c, std::uint64_t instrs) {
            // Sampling replaces the core between windows, so the
            // tracer is (re)attached here rather than once up front;
            // the inter-window re-warms run untraced by design.
            c.setTracer(tracer);
            const EnergyEvents before_events = c.events();
            const CoreStats before_stats = c.stats();
            c.run(instrs);
            *events += c.events() - before_events;
            *stats += c.stats() - before_stats;
        });
}

/**
 * Phase 3: reduce the window deltas to a RunResult — derived rates,
 * the energy model, average power.
 */
RunResult
reduceToResult(const RunConfig &config, const EnergyEvents &events,
               const CoreStats &stats)
{
    RunResult r;
    r.events = events;
    r.stats = stats;
    r.instructions = stats.retired;
    r.timePs = events.totalTicks;
    r.ipc = r.timePs
        ? double(r.instructions) /
              (double(r.timePs) / config.params.basePeriodPs)
        : 0.0;
    r.ecResidency = r.instructions
        ? double(r.stats.ecRetired) / double(r.instructions)
        : 0.0;
    r.mispredictRate = r.stats.condBranches
        ? double(r.stats.mispredicts) / double(r.stats.condBranches)
        : 0.0;

    LeakageConfig leak;
    leak.hasExecCache = config.kind == CoreKind::Flywheel;
    leak.bigRegfile = config.kind != CoreKind::Baseline;
    leak.frontEndPowerGating = config.frontEndPowerGating;
    r.energy = computeEnergy(r.events, config.node, leak);
    r.averageWatts = r.energy.averageWatts(r.timePs);
    return r;
}

} // namespace

RunResult
runSim(const RunConfig &config, Checkpointer *checkpoints)
{
    // A run with a checkpointing policy but no engine-provided store
    // gets a transient one over its configured directory, so single
    // CLI runs still share warmups across processes.
    if (checkpoints == nullptr &&
        config.snapshot.mode != SnapshotPolicy::Mode::Off &&
        !config.snapshot.dir.empty()) {
        Checkpointer local(config.snapshot.dir);
        return runSim(config, &local);
    }

    StaticProgram program(config.profile);
    WorkloadStream stream(program);
    std::unique_ptr<CoreBase> core = makeCore(config, stream);

    std::unique_ptr<obs::Tracer> tracer;
    if (config.obs.traceSink != nullptr) {
        tracer = std::make_unique<obs::Tracer>(config.obs.traceMask,
                                               config.obs.traceCapacity);
    }

    // lint: wallclock(telemetry only; simulated results never read it)
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };

    RunTelemetry telemetry;
    const auto t0 = Clock::now();
    telemetry.warmupRestored = runSimWarmup(config, *core, checkpoints);
    const auto t1 = Clock::now();
    telemetry.warmupSeconds = seconds(t0, t1);

    EnergyEvents events;
    CoreStats stats;
    runMeasurePhase(config, stream, core, tracer.get(), &events, &stats);
    const auto t2 = Clock::now();
    telemetry.measureSeconds = seconds(t1, t2);

    RunResult r = reduceToResult(config, events, stats);
    if (config.obs.collectStats) {
        r.statsDoc =
            std::make_shared<const Json>(core->statsRegistry().dump());
    }
    if (tracer) {
        config.obs.traceSink->add(config.obs.traceLabel.empty()
                                      ? config.profile.name
                                      : config.obs.traceLabel,
                                  *tracer);
    }
    telemetry.reduceSeconds = seconds(t2, Clock::now());
    r.telemetry = telemetry;
    return r;
}

RunResult
runSim(const RunConfig &config)
{
    return runSim(config, nullptr);
}

} // namespace flywheel
