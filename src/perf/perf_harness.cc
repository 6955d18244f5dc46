#include "perf/perf_harness.hh"

#include <chrono>
#include <memory>
#include <mutex>

#include "core/baseline_core.hh"
#include "flywheel/flywheel_core.hh"
#include "snapshot/checkpointer.hh"
#include "sweep/sweep.hh"
#include "sweep/thread_pool.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace flywheel::perf {

TimedRun
timeOneRun(const std::string &bench_name, CoreKind kind,
           std::uint64_t warmup_instrs, std::uint64_t measure_instrs,
           Checkpointer *checkpoints, unsigned sample_windows,
           bool obs_attached)
{
    // The config runSim would build for this cell: default clock plan
    // (FE0/BE0, Table 2 sizes); only the warmup checkpointing and
    // sampling policy vary.
    RunConfig config;
    config.profile = benchmarkByName(bench_name);
    config.kind = kind;
    config.warmupInstrs = warmup_instrs;
    config.measureInstrs = measure_instrs;
    if (sample_windows > 0) {
        config.snapshot.mode = SnapshotPolicy::Mode::Sample;
        config.snapshot.sampleWindows = sample_windows;
    }

    StaticProgram program(config.profile);
    WorkloadStream stream(program);
    std::unique_ptr<CoreBase> core = makeCore(config, stream);

    // The untimed warmup goes through runSim's own phase-1 helper, so
    // checkpoint restore semantics cannot drift from the simulator's
    // (Sample mode already checkpoints its warmup when a store is
    // supplied; a non-sampled cell opts into Reuse the same way).
    if (checkpoints != nullptr &&
        config.snapshot.mode == SnapshotPolicy::Mode::Off)
        config.snapshot.mode = SnapshotPolicy::Mode::Reuse;
    runSimWarmup(config, *core, checkpoints);

    // Obs-attached timing: a live tracer with every category masked
    // off, so each emit site takes its branch and drops the event —
    // the steady-state cost of an attached-but-filtered observer.
    std::unique_ptr<obs::Tracer> tracer;
    if (obs_attached)
        tracer = std::make_unique<obs::Tracer>(
            /*mask=*/0u, obs::Tracer::kDefaultCapacity);

    // Likewise the measurement goes through runSim's own phase-2
    // window driver, so the harness times exactly the (possibly
    // sampled) schedule runSim executes — gaps and re-warms included.
    std::uint64_t retired = 0;
    const auto t0 = std::chrono::steady_clock::now();
    forEachMeasureWindow(config, stream, core,
                         [&](CoreBase &c, std::uint64_t instrs) {
                             c.setTracer(tracer.get());
                             const std::uint64_t at =
                                 c.stats().retired;
                             c.run(instrs);
                             retired += c.stats().retired - at;
                         });
    if (obs_attached)
        core->statsRegistry().dump();
    const auto t1 = std::chrono::steady_clock::now();

    TimedRun r;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.instructions = retired;
    return r;
}

BenchReport
runPerfGrid(const PerfOptions &options, const PerfProgress &progress)
{
    const auto grid_start = std::chrono::steady_clock::now();

    BenchReport report;
    report.host = collectHostInfo();
    report.warmupInstrs = options.warmupInstrs;
    report.measureInstrs = options.measureInstrs;
    report.repeats = options.repeats;
    report.jobs = options.jobs;
    report.sampleWindows = options.sampleWindows;
    report.obsAttached = options.obsAttached;

    std::vector<std::string> benches = options.benchmarks;
    if (benches.empty())
        benches = benchmarkNames();
    for (const std::string &b : benches)
        benchmarkByName(b);  // validate up front (fatal if unknown)

    report.entries.resize(benches.size() * options.kinds.size());
    for (std::size_t bi = 0; bi < benches.size(); ++bi) {
        for (std::size_t ki = 0; ki < options.kinds.size(); ++ki) {
            PerfEntry &e =
                report.entries[bi * options.kinds.size() + ki];
            e.bench = benches[bi];
            e.kind = coreKindName(options.kinds[ki]);
        }
    }

    std::unique_ptr<Checkpointer> checkpointer;
    if (!options.checkpointDir.empty()) {
        Checkpointer::Options store;
        store.capBytes = options.checkpointCapBytes;
        checkpointer = std::make_unique<Checkpointer>(
            options.checkpointDir, store);
    }

    std::mutex progress_mutex;
    std::size_t done = 0;
    auto run_cell = [&](std::size_t idx) {
        PerfEntry &e = report.entries[idx];
        const CoreKind kind =
            options.kinds[idx % options.kinds.size()];
        for (unsigned rep = 0; rep < options.repeats; ++rep) {
            TimedRun r = timeOneRun(e.bench, kind, options.warmupInstrs,
                                    options.measureInstrs,
                                    checkpointer.get(),
                                    options.sampleWindows,
                                    options.obsAttached);
            e.repSeconds.push_back(r.seconds);
            e.instructions = r.instructions;
        }
        e.medianSeconds = median(e.repSeconds);
        e.minstrPerSec = e.medianSeconds > 0.0
            ? double(e.instructions) / e.medianSeconds / 1e6
            : 0.0;
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress(++done, report.entries.size(), e);
        }
    };

    if (options.jobs <= 1) {
        for (std::size_t i = 0; i < report.entries.size(); ++i)
            run_cell(i);
    } else {
        ThreadPool pool(options.jobs);
        pool.parallelFor(report.entries.size(), run_cell);
    }

    report.telemetry.present = true;
    report.telemetry.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      grid_start)
            .count();
    if (checkpointer) {
        report.telemetry.checkpointMemoryHits =
            checkpointer->memoryHits();
        report.telemetry.checkpointDiskHits = checkpointer->diskHits();
        report.telemetry.checkpointComputes = checkpointer->computes();
        report.telemetry.checkpointBytesWritten =
            checkpointer->diskBytesWritten();
        report.telemetry.checkpointBytesRead =
            checkpointer->diskBytesRead();
    }
    return report;
}

} // namespace flywheel::perf
