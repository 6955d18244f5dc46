#include "api/session.hh"

#include <chrono>
#include <mutex>
#include <unordered_map>

#include "common/log.hh"
#include "serve/client.hh"

namespace flywheel {

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

} // namespace flywheel
