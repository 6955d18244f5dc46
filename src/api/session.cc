#include "api/session.hh"

#include <cstdlib>
#include <set>

#include "common/log.hh"
#include "core/report.hh"
#include "serve/client.hh"
#include "snapshot/checkpointer.hh"

namespace flywheel {

SessionOptions
SessionOptions::fromEnv()
{
    SessionOptions opts;
    if (const char *cache = std::getenv("FLYWHEEL_CACHE"))
        opts.cacheDir = cache;
    if (const char *ckpt = std::getenv("FLYWHEEL_CHECKPOINTS"))
        opts.checkpointDir = ckpt;
    if (const char *cap = std::getenv("FLYWHEEL_CHECKPOINT_CAP_MB")) {
        std::uint64_t bytes = 0;
        if (Checkpointer::parseCapMegabytes(cap, &bytes))
            opts.checkpointCapBytes = bytes;
        else
            FW_WARN("ignoring FLYWHEEL_CHECKPOINT_CAP_MB='%s' (want "
                    "a decimal megabyte count); store stays uncapped",
                    cap);
    }
    return opts;
}

bool
VerifyReport::ok() const
{
    return failureCount() == 0;
}

std::size_t
VerifyReport::failureCount() const
{
    std::size_t failures = 0;
    for (const Entry &e : entries)
        failures += e.report.ok() ? 0 : 1;
    return failures;
}

std::string
VerifyReport::summary() const
{
    std::string out;
    for (const Entry &e : entries) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-4s %-8s %-8s FE%.0f%%/BE%.0f%%%s%s: "
                      "%llu instructions cross-checked\n",
                      e.report.ok() ? "ok" : "FAIL",
                      e.point.bench.c_str(), coreKindName(e.point.kind),
                      e.point.clock.feBoost * 100.0,
                      e.point.clock.beBoost * 100.0,
                      e.point.label.empty() ? "" : " ",
                      e.point.label.c_str(),
                      (unsigned long long)e.report.instructionsChecked);
        out += line;
        if (!e.report.ok())
            out += e.report.summary() + "\n";
    }
    out += ok() ? "verification PASSED ("
                : "verification FAILED (";
    out += std::to_string(entries.size() - failureCount()) + "/" +
           std::to_string(entries.size()) + " points clean)";
    return out;
}

Session::Session(SessionOptions options)
    : runner_([&options] {
          SweepOptions sweep;
          sweep.jobs = options.jobs;
          sweep.cacheDir = options.cacheDir;
          sweep.checkpointDir = options.checkpointDir;
          sweep.checkpointCapBytes = options.checkpointCapBytes;
          sweep.progress = options.progress;
          sweep.obs = options.obs;
          return sweep;
      }())
{}

SweepTable
Session::run(const ExperimentSpec &spec)
{
    std::vector<SweepPoint> points = spec.expand();
    SweepTable table = runner_.run(points);

    for (unsigned rep = 1; rep < spec.repeat; ++rep) {
        // Repeats bypass the cache on purpose: their whole point is
        // to prove a fresh simulation reproduces the recorded result.
        runner_.pool().parallelFor(points.size(), [&](std::size_t i) {
            RunResult again = runSim(points[i].config);
            if (toJson(again).dump() !=
                toJson(table.at(i).result).dump())
                FW_FATAL("nondeterministic simulation: spec '%s' "
                         "point %s/%s repeat %u diverged",
                         spec.name.c_str(), points[i].bench.c_str(),
                         coreKindName(points[i].kind), rep);
        });
    }
    return table;
}

RunResult
Session::runOne(const RunConfig &config, bool *from_cache)
{
    return runner_.runOne(config, from_cache);
}

bool
Session::submit(const std::string &serverAddress,
                const ExperimentSpec &spec, SubmitOutcome *out,
                std::string *error, double pollSeconds)
{
    serve::ServeAddress address;
    if (!serve::parseServeAddress(serverAddress, &address, error))
        return false;
    serve::ServeClient client;
    if (!client.connect(address, error))
        return false;

    serve::ServeClient::Submitted submitted;
    if (!client.submit(spec, &submitted, error))
        return false;
    if (!client.waitForCompletion(submitted.jobId, pollSeconds,
                                  nullptr, error))
        return false;

    SubmitOutcome outcome;
    outcome.jobId = submitted.jobId;
    outcome.cells = static_cast<std::size_t>(submitted.cells);
    outcome.resumed = submitted.resumed;
    if (!client.results(submitted.jobId, &outcome.tableJson,
                        &outcome.tableCsv, error))
        return false;
    if (out)
        *out = std::move(outcome);
    return true;
}

VerifyReport
Session::verify(const ExperimentSpec &spec)
{
    // Points that simulate the same run behave identically, so e.g.
    // fig15's three nodes verify once.
    std::vector<SweepPoint> candidates;
    std::set<std::string> seen;
    for (SweepPoint &pt : spec.expand()) {
        if (pt.kind == CoreKind::Baseline)
            continue;
        if (seen.insert(configKey(simulatedConfig(pt.config))).second)
            candidates.push_back(std::move(pt));
    }

    VerifyReport report;
    report.entries.resize(candidates.size());
    runner_.pool().parallelFor(candidates.size(), [&](std::size_t i) {
        const SweepPoint &pt = candidates[i];
        DiffOptions opts;
        opts.params = pt.config.params;
        opts.kind = pt.kind;
        opts.instructions = pt.config.measureInstrs;
        opts.reproHint = "spec '" + spec.name + "' bench " + pt.bench +
                         " kind " + coreKindName(pt.kind);
        report.entries[i].point = pt;
        report.entries[i].report =
            runDifferential(pt.config.profile, opts);
    });
    return report;
}

std::vector<GoldenDiff>
Session::checkGolden(const std::string &dir, const GoldenOptions &opts)
{
    return checkGoldenFiles(dir, opts);
}

bool
Session::refreshGolden(const std::string &dir, const GoldenOptions &opts)
{
    return writeGoldenFiles(dir, opts);
}

} // namespace flywheel
