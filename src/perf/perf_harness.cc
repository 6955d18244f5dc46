#include "perf/perf_harness.hh"

#include "obs/trace.hh"
#include "sweep/sweep.hh"
#include "workload/profiles.hh"

namespace flywheel::perf {

BenchReport
runPerfGrid(const PerfOptions &options, const PerfProgress &progress)
{
    BenchReport report;
    report.host = collectHostInfo();
    report.warmupInstrs = options.warmupInstrs;
    report.measureInstrs = options.measureInstrs;
    report.repeats = options.repeats;

    std::vector<std::string> benches = options.benchmarks;
    if (benches.empty())
        benches = benchmarkNames();
    for (const std::string &b : benches)
        benchmarkByName(b);  // validate up front (fatal if unknown)

    // Obs-attached timing: a live tracer with every category masked
    // off, so each emit site takes its branch and drops the event,
    // plus the stats-registry dump in runSim's reduce phase.
    obs::TraceSink masked_sink;

    const std::size_t total = benches.size() * options.kinds.size();
    for (const std::string &bench : benches) {
        for (const CoreKind kind : options.kinds) {
            // Default clock plan (FE0/BE0, Table 2 sizes) and no
            // checkpoint store: every repeat simulates its warmup.
            RunConfig config;
            config.profile = benchmarkByName(bench);
            config.kind = kind;
            config.warmupInstrs = options.warmupInstrs;
            config.measureInstrs = options.measureInstrs;
            if (options.obsAttached) {
                config.obs.collectStats = true;
                config.obs.traceSink = &masked_sink;
                config.obs.traceMask = 0;
            }

            PerfEntry e;
            e.bench = bench;
            e.kind = coreKindName(kind);
            for (unsigned rep = 0; rep < options.repeats; ++rep) {
                // Timed: runSim's own measure and reduce phases, so
                // the harness times exactly what runSim executes.
                const RunResult r = runSim(config);
                e.repSeconds.push_back(r.telemetry.measureSeconds +
                                       r.telemetry.reduceSeconds);
                e.instructions = r.instructions;
            }
            e.medianSeconds = median(e.repSeconds);
            e.minstrPerSec = e.medianSeconds > 0.0
                ? double(e.instructions) / e.medianSeconds / 1e6
                : 0.0;
            report.entries.push_back(std::move(e));
            if (progress)
                progress(report.entries.size(), total,
                         report.entries.back());
        }
    }
    return report;
}

} // namespace flywheel::perf
