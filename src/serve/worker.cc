#include "serve/worker.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/experiment.hh"
#include "common/log.hh"
#include "serve/store.hh"
#include "snapshot/checkpointer.hh"
#include "sweep/sweep.hh"

namespace flywheel::serve {

namespace {

// lint: wallclock(cell timing telemetry; results never read it)
using Clock = std::chrono::steady_clock;

/** Heartbeat thread: ping every interval until told to stop. */
class Heartbeat
{
  public:
    Heartbeat(FrameSocket &socket, const std::string &worker,
              double intervalSeconds)
        : socket_(socket), worker_(worker),
          interval_(intervalSeconds > 0.0 ? intervalSeconds : 5.0)
    {
        thread_ = std::thread([this] { loop(); });
    }

    ~Heartbeat()
    {
        stop_ = true;
        thread_.join();
    }

  private:
    void
    loop()
    {
        auto next = Clock::now() +
                    std::chrono::duration<double>(interval_);
        while (!stop_) {
            // Short sleeps keep shutdown prompt without a condvar.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            if (Clock::now() < next)
                continue;
            next = Clock::now() +
                   std::chrono::duration<double>(interval_);
            Json ping = Json::object();
            ping.add("type", "ping");
            ping.add("worker", worker_);
            if (!socket_.sendFrame(ping))
                return;  // peer gone; the pull loop will notice too
        }
    }

    FrameSocket &socket_;
    std::string worker_;
    double interval_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/**
 * True if a farewell is sitting in @p socket's receive buffer.  A
 * shutting-down server says `bye` and closes while the worker may be
 * mid-cell; the next send then fails even though the orderly goodbye
 * already arrived — drain it before calling the exit unclean.
 */
bool
pendingBye(FrameSocket &socket)
{
    Json pending;
    std::string error;
    return socket.recvFrame(&pending, &error) &&
           pending["type"].asString() == "bye";
}

} // namespace

int
runWorker(const WorkerOptions &options)
{
    FrameSocket socket;
    std::string error;
    if (!socket.connectTo(options.connect, &error)) {
        FW_WARN("worker: %s", error.c_str());
        return 1;
    }
    const std::string name =
        options.name.empty() ? "w" + std::to_string(long(::getpid()))
                             : options.name;

    Json hello = Json::object();
    hello.add("type", "hello");
    hello.add("v", kServeSchema);
    hello.add("worker", name);
    if (!socket.sendFrame(hello)) {
        FW_WARN("worker %s: server closed during hello", name.c_str());
        return 1;
    }
    Json welcome;
    if (!socket.recvFrame(&welcome, &error)) {
        FW_WARN("worker %s: %s", name.c_str(), error.c_str());
        return 1;
    }
    if (welcome["type"].asString() != "welcome") {
        FW_WARN("worker %s: rejected: %s", name.c_str(),
                welcome["error"].asString().c_str());
        return 1;
    }

    const std::string storeDir = options.storeDir.empty()
                                     ? welcome["store"].asString()
                                     : options.storeDir;
    ResultStore store(storeDir.empty() ? ""
                                       : storeDir + "/results");
    std::unique_ptr<Checkpointer> checkpointer;
    if (!storeDir.empty())
        checkpointer =
            std::make_unique<Checkpointer>(storeDir + "/checkpoints");

    Heartbeat heartbeat(socket, name,
                        welcome["heartbeatSeconds"].asDouble());

    // The expansion of the job this worker last ran.  Every work unit
    // carries its job's spec, which is expanded again only when the
    // job changes; expansion is deterministic, so every worker sees
    // the cell -> point mapping the server journaled.
    std::string slotJob;
    std::vector<SweepPoint> points;

    while (true) {
        Json lease = Json::object();
        lease.add("type", "lease");
        lease.add("worker", name);
        if (!socket.sendFrame(lease)) {
            if (pendingBye(socket))
                return 0;
            FW_WARN("worker %s: connection lost", name.c_str());
            return 1;
        }
        Json reply;
        if (!socket.recvFrame(&reply, &error)) {
            FW_WARN("worker %s: %s", name.c_str(), error.c_str());
            return 1;
        }
        // The server holds the lease until a cell is leasable.
        const std::string type = reply["type"].asString();
        if (type == "bye")
            return 0;
        if (type != "work") {
            FW_WARN("worker %s: unexpected '%s' frame: %s",
                    name.c_str(), type.c_str(),
                    reply["error"].asString().c_str());
            return 1;
        }

        const std::string jobId = reply["job"].asString();
        const std::size_t cell =
            static_cast<std::size_t>(reply["cell"].asU64());
        if (jobId != slotJob) {
            ExperimentSpec spec;
            if (!ExperimentSpec::fromJson(reply["spec"], &spec,
                                          &error)) {
                FW_WARN("worker %s: bad spec for job %s: %s",
                        name.c_str(), jobId.c_str(), error.c_str());
                return 1;
            }
            points = spec.expand();
            slotJob = jobId;
        }
        if (cell >= points.size()) {
            FW_WARN("worker %s: cell %zu is outside job %s's %zu cells",
                    name.c_str(), cell, jobId.c_str(), points.size());
            return 1;
        }

        // The executor publishes a computed result to the store before
        // returning, so it is published before the done frame: the
        // server journals on that frame, and a journaled cell must be
        // reloadable.
        const SweepPoint &point = points[cell];
        const auto start = Clock::now();
        bool store_hit = false;
        CellExecutor(&store, checkpointer.get())
            .run(point.config, &store_hit);
        const double wall =
            store_hit ? 0.0
                      : std::chrono::duration<double>(Clock::now() -
                                                      start)
                            .count();

        Json done = Json::object();
        done.add("type", "done");
        done.add("worker", name);
        done.add("job", jobId);
        done.add("cell", std::uint64_t(cell));
        done.add("key", configKey(point.config));
        done.add("wall", wall);
        done.add("storeHit", store_hit);
        if (!socket.sendFrame(done)) {
            // The result is already published to the store; a
            // farewell racing the report is still a clean exit.
            if (pendingBye(socket))
                return 0;
            FW_WARN("worker %s: connection lost reporting %s/%zu",
                    name.c_str(), jobId.c_str(), cell);
            return 1;
        }
        Json ack;
        if (!socket.recvFrame(&ack, &error)) {
            FW_WARN("worker %s: %s", name.c_str(), error.c_str());
            return 1;
        }
        const std::string ack_type = ack["type"].asString();
        if (ack_type == "bye")
            return 0;
        if (ack_type != "ack") {
            FW_WARN("worker %s: done rejected: %s", name.c_str(),
                    ack["error"].asString().c_str());
            return 1;
        }
    }
}

} // namespace flywheel::serve
