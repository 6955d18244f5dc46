#include "api/session.hh"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <unordered_map>

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
    : options_(std::move(options)), cache_(options_.cacheDir),
      pool_(options_.jobs)
{
    if (!options_.checkpointDir.empty())
        checkpointer_ =
            std::make_unique<Checkpointer>(options_.checkpointDir);
}

Session::~Session()
{
    if (checkpointer_)
        FW_INFORM("%s", checkpointer_->summaryLine().c_str());
}

SweepTable
Session::run(const std::vector<SweepPoint> &points)
{
    // lint: wallclock(telemetry only; simulated results never read it)
    using Clock = std::chrono::steady_clock;
    const auto sweep_start = Clock::now();

    SweepTelemetry telem;
    telem.cells = points.size();
    telem.jobs = pool_.threadCount();
    const std::uint64_t tasks_before = pool_.tasksExecuted();
    const double busy_before = pool_.busySeconds();
    if (checkpointer_) {
        telem.checkpointMemoryHits = checkpointer_->memoryHits();
        telem.checkpointDiskHits = checkpointer_->diskHits();
        telem.checkpointComputes = checkpointer_->computes();
        telem.checkpointBytesWritten = checkpointer_->diskBytesWritten();
        telem.checkpointBytesRead = checkpointer_->diskBytesRead();
    }

    std::vector<SweepRecord> records(points.size());

    std::mutex progress_mutex; // serializes the progress callback
    std::size_t done = 0;
    const auto report = [&](std::size_t i) {
        if (!options_.progress)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++done;
        options_.progress(done, points.size(), records[i].point,
                          records[i].result, records[i].fromCache);
    };

    // Cells that simulate the same run (see simulatedConfig) form one
    // task, run in expansion order: the first simulates, the rest
    // reduce its result, and siblings never simulate concurrently.
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto [it, fresh] = group_of.emplace(
            configKey(simulatedConfig(points[i].config)), groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }

    pool_.parallelFor(groups.size(), [&](std::size_t g) {
        for (std::size_t i : groups[g]) {
            SweepRecord &rec = records[i];
            rec.point = points[i];
            const auto cell_start = Clock::now();
            rec.result =
                CellExecutor(&cache_, checkpointer_.get(), options_.obs)
                    .run(rec.point.config, &rec.fromCache);
            rec.wallSeconds =
                std::chrono::duration<double>(Clock::now() - cell_start)
                    .count();
            report(i);
        }
    });

    SweepTable table;
    for (auto &rec : records) {
        if (rec.fromCache)
            ++telem.cacheHits;
        table.add(std::move(rec));
    }
    telem.wallSeconds =
        std::chrono::duration<double>(Clock::now() - sweep_start).count();
    telem.poolTasks = pool_.tasksExecuted() - tasks_before;
    telem.poolBusySeconds = pool_.busySeconds() - busy_before;
    if (checkpointer_) {
        telem.checkpointMemoryHits =
            checkpointer_->memoryHits() - telem.checkpointMemoryHits;
        telem.checkpointDiskHits =
            checkpointer_->diskHits() - telem.checkpointDiskHits;
        telem.checkpointComputes =
            checkpointer_->computes() - telem.checkpointComputes;
        telem.checkpointBytesWritten =
            checkpointer_->diskBytesWritten() -
            telem.checkpointBytesWritten;
        telem.checkpointBytesRead =
            checkpointer_->diskBytesRead() - telem.checkpointBytesRead;
    }
    table.setTelemetry(std::move(telem));
    return table;
}

SweepTable
Session::run(const ExperimentSpec &spec)
{
    std::vector<SweepPoint> points = spec.expand();
    SweepTable table = run(points);

    for (unsigned rep = 1; rep < spec.repeat; ++rep) {
        // Repeats bypass the cache on purpose: their whole point is
        // to prove a fresh simulation reproduces the recorded result.
        pool_.parallelFor(points.size(), [&](std::size_t i) {
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
    pool_.parallelFor(candidates.size(), [&](std::size_t i) {
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

} // namespace flywheel
