#include "perf/perf_harness.hh"

#include <algorithm>
#include <cmath>

#include "obs/trace.hh"
#include "sweep/sweep.hh"
#include "workload/profiles.hh"

namespace flywheel::perf {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / double(values.size()));
}

namespace {

/**
 * Seconds of runSim's own measure and reduce phases, so the harness
 * times exactly what runSim executes.
 */
double
timedSeconds(const RunResult &r)
{
    return r.telemetry.measureSeconds + r.telemetry.reduceSeconds;
}

} // namespace

std::vector<PerfEntry>
runPerfGrid(const PerfOptions &options, const PerfProgress &progress)
{
    std::vector<std::string> benches = options.benchmarks;
    if (benches.empty())
        benches = benchmarkNames();
    for (const std::string &b : benches)
        benchmarkByName(b);  // validate up front (fatal if unknown)

    // Observed timing: a live tracer with every category masked off,
    // so each emit site takes its branch and drops the event, plus
    // the stats-registry dump in runSim's reduce phase.
    obs::TraceSink masked_sink;

    std::vector<PerfEntry> entries;
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
            RunConfig observed = config;
            observed.obs.collectStats = true;
            observed.obs.traceSink = &masked_sink;
            observed.obs.traceMask = 0;

            PerfEntry e;
            e.bench = bench;
            e.kind = coreKindName(kind);
            for (unsigned rep = 0; rep < options.repeats; ++rep) {
                // Odd repeats run the observed timing first, so
                // neither side of the pair always follows the other.
                const bool observed_first = rep % 2 == 1;
                if (options.timeObserved && observed_first)
                    e.observedRepSeconds.push_back(
                        timedSeconds(runSim(observed)));
                const RunResult r = runSim(config);
                e.repSeconds.push_back(timedSeconds(r));
                e.instructions = r.instructions;
                if (options.timeObserved && !observed_first)
                    e.observedRepSeconds.push_back(
                        timedSeconds(runSim(observed)));
            }
            e.medianSeconds = median(e.repSeconds);
            e.minstrPerSec = e.medianSeconds > 0.0
                ? double(e.instructions) / e.medianSeconds / 1e6
                : 0.0;
            e.observedMedianSeconds = median(e.observedRepSeconds);
            entries.push_back(std::move(e));
            if (progress)
                progress(entries.size(), total, entries.back());
        }
    }
    return entries;
}

} // namespace flywheel::perf
