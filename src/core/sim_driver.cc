#include "core/sim_driver.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "common/decimal.hh"
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
validClockBoost(double boost)
{
    return std::isfinite(boost) && boost > -1.0 &&
           std::llround(clockedParams(boost, boost).fePeriodPs) >= 1;
}

bool
validCoreParams(const CoreParams &params, std::string *error)
{
    const auto bad = [error](const char *field, std::uint64_t value,
                             const std::string &want) {
        if (error)
            *error = std::string(field) + ": " + std::to_string(value) +
                     " out of range (want " + want + ")";
        return false;
    };
    constexpr unsigned kMaxExtraDelay = 1000;
    if (params.ecBlockSlots < 1)
        return bad("ecBlockSlots", params.ecBlockSlots, ">= 1");
    if (params.ecTotalBlocks < 2)
        return bad("ecTotalBlocks", params.ecTotalBlocks, ">= 2");
    // PoolRenameUnit gives every architectural register a pool of at
    // least max(2, minPoolSize) and indexes the file with 16-bit
    // PhysRegs below kNoPhysReg.
    static_assert(kNumArchRegs == 64 && kNoPhysReg == 65535,
                  "update the pool rule's text");
    const char *pool_rule =
        "64 * max(2, minPoolSize) <= poolPhysRegs <= 65535";
    if (params.poolPhysRegs > kNoPhysReg)
        return bad("poolPhysRegs", params.poolPhysRegs, pool_rule);
    if (params.poolPhysRegs <
        std::uint64_t(kNumArchRegs) * std::max(2u, params.minPoolSize)) {
        return params.poolPhysRegs == CoreParams().poolPhysRegs
                   ? bad("minPoolSize", params.minPoolSize, pool_rule)
                   : bad("poolPhysRegs", params.poolPhysRegs, pool_rule);
    }
    if (params.extraFrontEndStages > kMaxExtraDelay)
        return bad("extraFrontEndStages", params.extraFrontEndStages,
                   "<= " + std::to_string(kMaxExtraDelay));
    if (params.wakeupExtraDelay > kMaxExtraDelay)
        return bad("wakeupExtraDelay", params.wakeupExtraDelay,
                   "<= " + std::to_string(kMaxExtraDelay));
    return true;
}

bool
parseInstrCount(const char *text, std::uint64_t *out)
{
    return text && parseDecimal(text, 1, ~std::uint64_t(0), out) ==
                       DecimalParse::Ok;
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

/**
 * Phase 1: bring @p core to its post-warmup state — by simulating, or
 * through @p checkpoints (restore, or simulate once and publish).
 * @return true if the warm state was restored from a checkpoint.
 */
bool
runWarmupPhase(const RunConfig &config, CoreBase &core,
               Checkpointer *checkpoints)
{
    if (checkpoints == nullptr || config.warmupInstrs == 0) {
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
        &created);
    // The creator's core already holds the warm state (an
    // uninterrupted simulation); everyone else restores, which is
    // bit-identical by the snapshot contract.
    if (!created)
        core.restore(*snap);
    return !created;
}

/**
 * Phase 2: measure one contiguous window on @p core, traced into
 * @p tracer when non-null.  Returns the window deltas in @p events
 * and @p stats.
 */
void
runMeasurePhase(const RunConfig &config, CoreBase &core,
                obs::Tracer *tracer, EnergyEvents *events,
                CoreStats *stats)
{
    core.setTracer(tracer);
    const EnergyEvents before_events = core.events();
    const CoreStats before_stats = core.stats();
    core.run(config.measureInstrs);
    *events = core.events() - before_events;
    *stats = core.stats() - before_stats;
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
    telemetry.warmupRestored = runWarmupPhase(config, *core, checkpoints);
    const auto t1 = Clock::now();
    telemetry.warmupSeconds = seconds(t0, t1);

    EnergyEvents events;
    CoreStats stats;
    runMeasurePhase(config, *core, tracer.get(), &events, &stats);
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

RunConfig
simulatedConfig(const RunConfig &config)
{
    RunConfig sim = config;
    sim.node = TechNode::N130;
    sim.frontEndPowerGating = false;
    return sim;
}

RunResult
reduceFor(const RunConfig &config, const RunResult &simulated)
{
    RunResult r = reduceToResult(config, simulated.events, simulated.stats);
    r.telemetry = simulated.telemetry;
    return r;
}

} // namespace flywheel
