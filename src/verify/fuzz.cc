#include "verify/fuzz.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/report.hh"
#include "snapshot/snapshot.hh"
#include "workload/generator.hh"

namespace flywheel {

namespace {

std::uint64_t
draw64(Pcg32 &rng)
{
    // Two statements: the evaluation order of both halves must not
    // depend on the compiler, or seed expansion would differ across
    // toolchains and break the repro contract.
    const std::uint64_t hi = rng.next();
    return (hi << 32) | rng.next();
}

template <typename T>
T
pick(Pcg32 &rng, std::initializer_list<T> values)
{
    return values.begin()[rng.below(
        static_cast<std::uint32_t>(values.size()))];
}

} // namespace

FuzzCase
makeFuzzCase(std::uint64_t seed)
{
    // Distinct stream id so fuzz draws never correlate with the
    // workload generator's own use of the same seed value.
    Pcg32 rng(seed ^ 0x9e3779b97f4a7c15ULL, 0x7f4a7c15);

    FuzzCase c;
    c.seed = seed;

    BenchProfile &p = c.profile;
    p.name = "fuzz";
    p.seed = draw64(rng);

    // Code footprint: from trivially EC-resident loops to
    // vortex-class EC thrashing.
    switch (rng.below(3)) {
      case 0: p.staticBlocks = rng.range(8, 64); break;
      case 1: p.staticBlocks = rng.range(64, 512); break;
      default: p.staticBlocks = rng.range(512, 3000); break;
    }
    p.avgBlockSize = 1.0 + rng.uniform() * 9.0;
    p.regions = rng.range(1, 24);

    p.loadFrac = rng.uniform() * 0.35;
    p.storeFrac = rng.uniform() * 0.20;
    p.fpFrac = rng.chance(0.4) ? rng.uniform() * 0.45 : 0.0;
    p.mulFrac = rng.uniform() * 0.08;
    p.divFrac = rng.uniform() * 0.01;
    p.avgDepDist = 1.0 + rng.uniform() * 8.0;

    // Branch-predictor pathologies: bias down to a coin flip, and
    // degenerate (mean-1) trip counts that make every loop exit hard.
    p.diamondFrac = rng.uniform() * 0.6;
    p.branchBias = 0.5 + rng.uniform() * 0.49;
    p.loopTripMean = rng.chance(0.3) ? double(rng.range(1, 3))
                                     : double(rng.range(4, 256));
    // Irregular cross-region transfers.
    p.callProb = rng.uniform() * 0.12;

    // Rename-pool pressure and memory aliasing.
    p.regWorkingSet = rng.range(2, 29);
    p.dataFootprintKB = rng.chance(0.25) ? rng.range(1, 8)
                                         : rng.range(16, 2048);
    p.memRandomFrac = rng.uniform();

    DiffOptions &o = c.options;
    const double fe = 0.25 * rng.below(5);
    const double be = 0.25 * rng.below(5);
    o.params = clockedParams(fe, be);
    o.kind = rng.below(8) == 0 ? CoreKind::RegisterAllocation
                               : CoreKind::Flywheel;

    CoreParams &cp = o.params;
    cp.fetchWidth = rng.chance(0.3) ? 2 : 4;
    cp.dispatchWidth = cp.fetchWidth;
    cp.issueWidth = pick(rng, {4u, 6u, 8u});
    cp.commitWidth = pick(rng, {4u, 8u});
    cp.iwEntries = pick(rng, {32u, 64u, 128u});
    cp.robEntries = pick(rng, {64u, 96u, 160u});
    cp.lsqEntries = pick(rng, {16u, 32u, 64u});
    cp.extraFrontEndStages = rng.below(3);
    cp.wakeupExtraDelay = rng.chance(0.25) ? 1 : 0;

    cp.srtEnabled = rng.chance(0.8);
    cp.traceRebuildPolicy = rng.chance(0.8);
    cp.ecTotalBlocks =
        pick(rng, {64u, 256u, 1024u, 2048u});
    cp.ecBlockSlots = rng.chance(0.3) ? 4 : 8;
    cp.ecTaEntries = pick(rng, {32u, 128u, 1024u});
    cp.maxTraceBlocks = std::min(
        cp.ecTotalBlocks, pick(rng, {8u, 32u, 256u}));
    cp.minTraceUnits = pick(rng, {1u, 2u, 4u});
    cp.minTraceInstrs =
        pick(rng, {16u, 64u, 256u, 512u});

    cp.poolPhysRegs = pick(rng, {256u, 384u, 512u});
    cp.minPoolSize = rng.chance(0.5) ? 2 : 4;
    cp.redistributionInterval =
        pick<std::uint64_t>(rng, {20000, 100000, 500000});
    cp.redistributionCost = rng.chance(0.3) ? 10 : 100;

    o.instructions = 3000 + rng.below(6000);
    o.chunkInstrs = 1000;
    o.streamSeed = draw64(rng);
    o.reproHint = "flywheel_fuzz --seed " + std::to_string(seed);
    return c;
}

std::string
FuzzCase::describe() const
{
    char buf[240];
    std::snprintf(
        buf, sizeof(buf),
        "seed=%llu blocks=%u regions=%u bias=%.2f trip=%.0f "
        "call=%.2f ws=%u data=%uKB rand=%.2f %s fe=%.0f%% be=%.0f%% "
        "ec=%u/%u pool=%u/%u n=%llu",
        (unsigned long long)seed, profile.staticBlocks,
        profile.regions, profile.branchBias, profile.loopTripMean,
        profile.callProb, profile.regWorkingSet,
        profile.dataFootprintKB, profile.memRandomFrac,
        options.kind == CoreKind::RegisterAllocation ? "ra"
                                                     : "flywheel",
        (1000.0 / options.params.fePeriodPs - 1.0) * 100.0,
        (1000.0 / options.params.beFastPeriodPs - 1.0) * 100.0,
        options.params.ecTotalBlocks, options.params.ecTaEntries,
        options.params.poolPhysRegs, options.params.minPoolSize,
        (unsigned long long)options.instructions);
    return buf;
}

DiffReport
runFuzzCase(const FuzzCase &c)
{
    return runDifferential(c.profile, c.options);
}

DiffReport
runSnapshotFuzzCase(const FuzzCase &c)
{
    DiffReport report;
    report.reproHint = c.options.reproHint + " --snapshots";

    RunConfig config;
    config.profile = c.profile;
    config.kind = c.options.kind;
    config.params = c.options.params;

    const std::uint64_t total = c.options.instructions;
    // Seed-derived split point, drawn from a stream distinct from
    // both the case expansion and the workload generator.
    Pcg32 rng(c.seed ^ 0x5ca1ab1edeadbeefULL, 0x51a95e1f);
    const std::uint64_t split =
        1 + rng.below(static_cast<std::uint32_t>(total - 1));

    auto tap = [](std::vector<RetireRecord> *tail) {
        return [tail](const InFlightInst &inst, Tick) {
            tail->push_back(RetireRecord::from(inst));
        };
    };

    // Straight-through oracle; records retired after the split point.
    StaticProgram program(c.profile);
    WorkloadStream stream_a(program, c.options.streamSeed);
    std::unique_ptr<CoreBase> core_a = makeCore(config, stream_a);
    core_a->run(split);
    std::vector<RetireRecord> tail_a;
    core_a->setRetireHook(tap(&tail_a));
    core_a->run(total - split);

    // Twin: snapshot at the split, round-trip the serialized bytes,
    // restore into a freshly built program/stream/core, continue.
    WorkloadStream stream_b(program, c.options.streamSeed);
    std::unique_ptr<CoreBase> core_b = makeCore(config, stream_b);
    core_b->run(split);
    Snapshot snap;
    core_b->save(snap);
    Snapshot back;
    std::string error;
    if (!Snapshot::deserialize(snap.serialize(), &back, &error)) {
        report.failures.push_back(
            DiffFailure{"snapshot-codec", 0, error});
        return report;
    }

    StaticProgram program_c(c.profile);
    WorkloadStream stream_c(program_c, c.options.streamSeed);
    std::unique_ptr<CoreBase> core_c = makeCore(config, stream_c);
    core_c->restore(back);
    std::vector<RetireRecord> tail_c;
    core_c->setRetireHook(tap(&tail_c));
    core_c->run(total - split);

    if (tail_a.size() != tail_c.size()) {
        report.failures.push_back(DiffFailure{
            "snapshot-retire-count", 0,
            "straight-through retired " +
                std::to_string(tail_a.size()) +
                " after the split, restored run retired " +
                std::to_string(tail_c.size())});
    }
    const std::size_t n = std::min(tail_a.size(), tail_c.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (tail_a[i].archEquals(tail_c[i]) &&
            tail_a[i].fromEc == tail_c[i].fromEc)
            continue;
        report.failures.push_back(DiffFailure{
            "snapshot-retire", tail_a[i].seq,
            "straight " + tail_a[i].toString() + " vs restored " +
                tail_c[i].toString()});
        if (report.failures.size() >= c.options.maxFailures)
            break;
    }

    // Final behavioural statistics and energy counters must agree to
    // the last bit; the serialized JSON doubles as the comparator.
    if (toJson(core_a->stats()).dump() !=
        toJson(core_c->stats()).dump()) {
        report.failures.push_back(DiffFailure{
            "snapshot-stats", 0,
            "final CoreStats diverged after restore"});
    }
    if (toJson(core_a->events()).dump() !=
        toJson(core_c->events()).dump()) {
        report.failures.push_back(DiffFailure{
            "snapshot-events", 0,
            "final EnergyEvents diverged after restore (includes the "
            "simulated clock)"});
    }

    report.instructionsChecked = n;
    report.ecRetired = core_c->stats().ecRetired;
    report.ecResidency = core_c->stats().retired
        ? double(core_c->stats().ecRetired) /
              double(core_c->stats().retired)
        : 0.0;
    return report;
}

} // namespace flywheel
