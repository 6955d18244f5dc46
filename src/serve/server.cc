#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/log.hh"
#include "core/sim_driver.hh"

namespace flywheel::serve {

namespace {

/** Send all of @p bytes on @p fd; false when the peer is gone. */
bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t put = ::send(fd, bytes.data() + off,
                                   bytes.size() - off, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(put);
    }
    return true;
}

/**
 * Most cells whose table can fit one frame (3,647): kMaxFrameBytes
 * over the fewest bytes a row adds to a `table` frame, its JSON object
 * and CSV line escaped into the frame's strings.  A row with every
 * number 0, a three-letter benchmark, the `ra` kind and no label adds
 * 2,354, so 2,300 is the bound; the 210 rows `--all` exports add
 * 2,642-2,803 each.
 */
constexpr std::uint64_t kMaxTableCells = kMaxFrameBytes / 2300;

} // namespace

ExperimentSpec
resolveSpec(const ExperimentSpec &spec)
{
    // Freeze the env-dependent defaults into the spec *here*, on the
    // server, before the job is hashed or journaled: workers (and a
    // restarted server) must expand the identical grid whatever their
    // FLYWHEEL_*_INSTRS environment says.
    ExperimentSpec resolved = spec;
    if (resolved.warmupInstrs == 0)
        resolved.warmupInstrs = defaultWarmupInstrs();
    if (resolved.measureInstrs == 0)
        resolved.measureInstrs = defaultMeasureInstrs();
    return resolved;
}

std::string
jobIdFor(const ExperimentSpec &resolved)
{
    return hexDigest(fnv1a64(resolved.toJson().dump(0)));
}

ServeDaemon::ServeDaemon(ServeOptions options)
    : options_(std::move(options)),
      store_(options_.storeDir.empty() ? ""
                                       : options_.storeDir + "/results"),
      scheduler_(options_.leaseTimeout)
{
    obs::StatsGroup &g = stats_.group("serve");
    g.counter("jobsSubmitted", &jobsSubmitted_,
              "jobs accepted (including resumptions)");
    g.counter("jobsResumed", &jobsResumed_,
              "submissions that resumed an existing journal");
    g.counter("jobsCompleted", &jobsCompleted_, "jobs that completed");
    g.counter("framesHandled", &framesHandled_,
              "protocol frames processed");
    g.counter("framesRejected", &framesRejected_,
              "malformed or unexpected frames");
    g.counter("leasesExpired", &leasesExpired_,
              "cell leases re-pended after heartbeat timeout");
}

ServeDaemon::~ServeDaemon()
{
    for (auto &conn : connections_)
        if (conn->fd >= 0)
            ::close(conn->fd);
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (!bound_.tcp && !bound_.path.empty())
        ::unlink(bound_.path.c_str());
    if (stopPipe_[0] >= 0)
        ::close(stopPipe_[0]);
    if (stopPipe_[1] >= 0)
        ::close(stopPipe_[1]);
    killLocalWorkers();
}

double
ServeDaemon::nowSeconds() const
{
    // lint: wallclock(lease bookkeeping; never enters simulated state)
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() -
           epoch_;
}

bool
ServeDaemon::openListenSocket(std::string *error)
{
    const ServeAddress &addr = options_.listen;
    if (addr.tcp) {
        struct ::addrinfo hints = {};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        hints.ai_flags = AI_PASSIVE;
        const std::string port = std::to_string(addr.port);
        struct ::addrinfo *list = nullptr;
        const int rc = ::getaddrinfo(
            addr.host.empty() ? nullptr : addr.host.c_str(),
            port.c_str(), &hints, &list);
        if (rc != 0) {
            *error = "cannot resolve " + addr.display() + ": " +
                     ::gai_strerror(rc);
            return false;
        }
        for (struct ::addrinfo *ai = list; ai; ai = ai->ai_next) {
            const int fd = ::socket(ai->ai_family, ai->ai_socktype,
                                    ai->ai_protocol);
            if (fd < 0)
                continue;
            const int one = 1;
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
            if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
                listenFd_ = fd;
                break;
            }
            ::close(fd);
        }
        ::freeaddrinfo(list);
        if (listenFd_ < 0) {
            *error = "cannot bind " + addr.display() + ": " +
                     std::strerror(errno);
            return false;
        }
        // Learn the real port (the caller may have asked for port 0).
        struct ::sockaddr_storage ss = {};
        ::socklen_t len = sizeof(ss);
        bound_ = addr;
        if (::getsockname(listenFd_,
                          reinterpret_cast<struct ::sockaddr *>(&ss),
                          &len) == 0) {
            if (ss.ss_family == AF_INET)
                bound_.port = ntohs(
                    reinterpret_cast<struct ::sockaddr_in *>(&ss)
                        ->sin_port);
            else if (ss.ss_family == AF_INET6)
                bound_.port = ntohs(
                    reinterpret_cast<struct ::sockaddr_in6 *>(&ss)
                        ->sin6_port);
        }
        if (bound_.host.empty())
            bound_.host = "127.0.0.1";
    } else {
        struct ::sockaddr_un sun = {};
        if (addr.path.size() >= sizeof(sun.sun_path)) {
            *error = "socket path too long: " + addr.path;
            return false;
        }
        ::unlink(addr.path.c_str());  // stale socket from a kill -9
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            *error = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        sun.sun_family = AF_UNIX;
        std::strncpy(sun.sun_path, addr.path.c_str(),
                     sizeof(sun.sun_path) - 1);
        if (::bind(fd, reinterpret_cast<struct ::sockaddr *>(&sun),
                   sizeof(sun)) != 0) {
            *error = "cannot bind " + addr.path + ": " +
                     std::strerror(errno);
            ::close(fd);
            return false;
        }
        listenFd_ = fd;
        bound_ = addr;
    }
    if (::listen(listenFd_, 64) != 0) {
        *error = std::string("listen: ") + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    return true;
}

bool
ServeDaemon::start(std::string *error)
{
    if (options_.storeDir.empty()) {
        *error = "serve daemon needs a store directory";
        return false;
    }
    if (!makeDirectories(options_.storeDir) ||
        !makeDirectories(options_.storeDir + "/results") ||
        !makeDirectories(options_.storeDir + "/checkpoints")) {
        *error = "cannot create store " + options_.storeDir;
        return false;
    }
    ::signal(SIGPIPE, SIG_IGN);
    if (!openListenSocket(error))
        return false;
    if (::pipe(stopPipe_) != 0) {
        *error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    ::fcntl(stopPipe_[0], F_SETFL, O_NONBLOCK);
    ::fcntl(stopPipe_[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(stopPipe_[1], F_SETFD, FD_CLOEXEC);
    epoch_ = 0.0;
    epoch_ = nowSeconds();

    respawnBudget_ = options_.localWorkers * 2;
    for (unsigned i = 0; i < options_.localWorkers; ++i) {
        if (spawnLocalWorker() < 0) {
            *error = "cannot spawn local worker";
            return false;
        }
    }
    FW_INFORM("flywheel_serve: listening on %s (store %s, %u local "
              "worker(s))",
              bound_.display().c_str(), options_.storeDir.c_str(),
              options_.localWorkers);
    return true;
}

pid_t
ServeDaemon::spawnLocalWorker()
{
    if (options_.workerArgv.empty())
        return -1;
    // "@ADDRESS@" resolves to the *bound* address: with --listen
    // host:0 the real port exists only after bind(2), long after the
    // caller assembled this argv.
    std::vector<std::string> args = options_.workerArgv;
    for (std::string &arg : args)
        if (arg == "@ADDRESS@")
            arg = bound_.display();
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execv(argv[0], argv.data());
        std::fprintf(stderr, "flywheel_serve: exec %s: %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(127);
    }
    if (pid > 0)
        localWorkers_[pid] = true;
    return pid;
}

void
ServeDaemon::reapLocalWorkers()
{
    while (true) {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            break;
        if (!localWorkers_.erase(pid))
            continue;
        // A worker that died mid-job leaves leased cells behind; the
        // lease timeout reclaims them.  Keep capacity up while work
        // is outstanding, but bound respawns so a crash-looping cell
        // cannot fork-bomb the host.
        if (!stopping_ && !jobs_.empty() && respawnBudget_ > 0) {
            --respawnBudget_;
            FW_WARN("local worker %d exited; respawning (%u respawns "
                    "left)",
                    int(pid), respawnBudget_);
            spawnLocalWorker();
        }
    }
}

void
ServeDaemon::killLocalWorkers()
{
    for (const auto &entry : localWorkers_)
        ::kill(entry.first, SIGTERM);
    for (const auto &entry : localWorkers_) {
        int status = 0;
        ::waitpid(entry.first, &status, 0);
    }
    localWorkers_.clear();
}

void
ServeDaemon::stop()
{
    if (stopPipe_[1] >= 0) {
        const char byte = 's';
        // Best-effort: a full pipe already guarantees a pending wake.
        ssize_t ignored = ::write(stopPipe_[1], &byte, 1);
        (void)ignored;
    }
}

void
ServeDaemon::run()
{
    if (listenFd_ < 0)
        return;
    while (!stopping_) {
        std::vector<struct ::pollfd> fds;
        fds.push_back({stopPipe_[0], POLLIN, 0});
        fds.push_back({listenFd_, POLLIN, 0});
        for (const auto &conn : connections_)
            fds.push_back({conn->fd, POLLIN, 0});

        const int rc = ::poll(fds.data(), fds.size(), pollTimeoutMs());
        if (rc < 0 && errno != EINTR)
            break;

        const double now = nowSeconds();
        for (const WorkUnit &unit : scheduler_.expireLeases(now)) {
            ++leasesExpired_;
            ++shard(unit.worker).leasesExpired;
            FW_WARN("lease expired: worker %s job %s cell %zu "
                    "re-pended",
                    unit.worker.c_str(), unit.jobId.c_str(), unit.cell);
        }
        reapLocalWorkers();

        if (fds[0].revents & POLLIN) {
            char drain[64];
            while (::read(stopPipe_[0], drain, sizeof(drain)) > 0) {}
            stopping_ = true;
            break;
        }
        if (fds[1].revents & POLLIN)
            acceptConnections();
        for (std::size_t i = 2; i < fds.size(); ++i) {
            Connection &conn = *connections_[i - 2];
            if (fds[i].revents & (POLLIN | POLLERR | POLLHUP))
                serviceConnection(conn);
            if (stopping_)
                break;
        }
        answerParked();
        // Compact closed connections after the iteration.
        for (std::size_t i = 0; i < connections_.size();) {
            if (connections_[i]->closed)
                connections_.erase(connections_.begin() +
                                   static_cast<std::ptrdiff_t>(i));
            else
                ++i;
        }
    }
    // Orderly shutdown: tell connected workers to exit, then close.
    for (auto &conn : connections_) {
        if (conn->fd >= 0 && conn->isWorker) {
            Json bye = Json::object();
            bye.add("type", "bye");
            sendAll(conn->fd, encodeFrame(bye));
        }
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }
    connections_.clear();
    killLocalWorkers();
}

int
ServeDaemon::pollTimeoutMs() const
{
    // Wake in time for the earliest status wait that runs out; the
    // 250 ms cap paces lease expiry and the reaping of local workers.
    double wait = 0.25;
    const double now = nowSeconds();
    for (const auto &conn : connections_)
        if (conn->parked == Parked::Status)
            wait = std::min(wait, conn->statusDeadline - now);
    return wait > 0.0 ? int(std::ceil(wait * 1e3)) : 0;
}

void
ServeDaemon::answerParked()
{
    // Leases first, in connection order, while cells are leasable:
    // whatever freed a cell this iteration (a submit, a done, an
    // expiry, a drop) reaches the parked workers now.
    for (auto &conn : connections_) {
        if (stopping_)
            return;
        if (conn->closed || conn->parked != Parked::Lease)
            continue;
        if (!grantLease(*conn))
            break;
        conn->parked = Parked::None;
        handleFrames(*conn);
    }
    const double now = nowSeconds();
    for (auto &conn : connections_) {
        if (stopping_)
            return;
        if (conn->closed || conn->parked != Parked::Status)
            continue;
        if (scheduler_.hasJob(conn->statusJob) &&
            conn->statusDeadline > now)
            continue;
        conn->parked = Parked::None;
        sendStatus(*conn, conn->statusJob);
        handleFrames(*conn);
    }
}

void
ServeDaemon::acceptConnections()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;  // EAGAIN or transient failure; poll again
        }
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        connections_.push_back(std::move(conn));
        // accept() on a blocking socket: drain exactly one; poll
        // reports again if more are queued.
        break;
    }
}

void
ServeDaemon::serviceConnection(Connection &conn)
{
    char chunk[65536];
    const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
        if (got < 0 && (errno == EINTR || errno == EAGAIN))
            return;
        dropConnection(conn);
        return;
    }
    conn.inbuf.append(chunk, static_cast<std::size_t>(got));
    // Frames queued behind a parked request count against the same
    // cap as one frame: a lockstep peer sends none.
    if (conn.inbuf.overflowed() ||
        (conn.parked != Parked::None &&
         conn.inbuf.pending() > kMaxFrameBytes)) {
        ++framesRejected_;
        sendError(conn, "frame too large");
        dropConnection(conn);
        return;
    }
    handleFrames(conn);
}

void
ServeDaemon::handleFrames(Connection &conn)
{
    std::string line;
    while (!conn.closed && !stopping_ && conn.inbuf.peekLine(&line)) {
        Json frame;
        std::string error;
        if (!decodeFrame(line, &frame, &error)) {
            ++framesRejected_;
            sendError(conn, error);
            dropConnection(conn);
            return;
        }
        // Replies keep request order, so a parked request holds the
        // frames behind it; pings have no reply and never wait.
        if (conn.parked != Parked::None &&
            frame["type"].asString() != "ping")
            return;
        conn.inbuf.nextLine(&line);
        handleFrame(conn, frame);
    }
}

void
ServeDaemon::handleFrame(Connection &conn, const Json &frame)
{
    ++framesHandled_;
    const std::string type = frame["type"].asString();
    if (type == "submit")
        handleSubmit(conn, frame);
    else if (type == "status")
        handleStatus(conn, frame);
    else if (type == "results")
        handleResults(conn, frame);
    else if (type == "cancel")
        handleCancel(conn, frame);
    else if (type == "stats")
        handleStats(conn);
    else if (type == "shutdown")
        handleShutdown(conn);
    else if (type == "hello")
        handleHello(conn, frame);
    else if (type == "lease")
        handleLease(conn, frame);
    else if (type == "done")
        handleDone(conn, frame);
    else if (type == "ping")
        handlePing(conn, frame);
    else {
        ++framesRejected_;
        sendError(conn, "unknown frame type '" + type + "'");
    }
}

void
ServeDaemon::handleSubmit(Connection &conn, const Json &frame)
{
    std::string error;
    if (!checkFrameVersion(frame, &error)) {
        ++framesRejected_;
        sendError(conn, error);
        return;
    }
    ExperimentSpec spec;
    if (!ExperimentSpec::fromJson(frame["spec"], &spec, &error)) {
        ++framesRejected_;
        sendError(conn, "bad spec: " + error);
        return;
    }

    // Admission matches delivery: a table no frame can carry is
    // refused before anything runs.
    const std::uint64_t cells = spec.cellCount();
    if (cells > kMaxTableCells) {
        ++framesRejected_;
        sendError(conn, "spec has " + std::to_string(cells) +
                            " cells; a served table carries at most " +
                            std::to_string(kMaxTableCells) +
                            " (run it with flywheel_bench --spec)");
        return;
    }

    const ExperimentSpec resolved = resolveSpec(spec);
    const std::string jobId = jobIdFor(resolved);
    bool resumed = true;  // a live resubmission attaches to the job

    if (!scheduler_.hasJob(jobId)) {
        Job job;
        job.spec = resolved.toJson();
        // A cell's run key groups the cells that simulate one run
        // (CellExecutor reduces the rest from it): the scheduler never
        // leases two of them at once, so each run simulates once.
        std::vector<std::string> runs;
        for (const SweepPoint &pt : resolved.expand()) {
            job.keys.push_back(configKey(pt.config));
            runs.push_back(configKey(simulatedConfig(pt.config)));
        }

        // Resume: replay the journal, then trust only cells whose
        // result file actually loads — a journaled completion whose
        // result is gone (pruned store, partial copy) just re-pends.
        std::set<std::size_t> completed;
        const std::string path =
            journalPath(options_.storeDir, jobId);
        JournalState replay;
        resumed = journalLoad(path, &replay, nullptr);
        for (const JournalEntry &entry : replay.entries) {
            RunResult result;
            if (entry.cell < cells && !completed.count(entry.cell) &&
                store_.lookup(job.keys[entry.cell], &result))
                completed.insert(entry.cell);
        }
        if (replay.ignoredLines)
            FW_WARN("journal %s: ignored %zu damaged line(s)",
                    path.c_str(), replay.ignoredLines);
        if (resumed)
            FW_INFORM("job %s: resumed with %zu/%zu cells from journal",
                      jobId.c_str(), completed.size(),
                      std::size_t(cells));

        if (!job.journal.open(options_.storeDir, jobId, resolved,
                              cells, &error)) {
            sendError(conn, "journal: " + error);
            return;
        }
        // Every cell replayed: the job is finished before it runs,
        // once its journal says so.
        const bool finished = completed.size() == cells;
        if (finished && !replay.complete && !job.journal.markComplete()) {
            sendError(conn, "journal: cannot write " + path);
            return;
        }
        ++jobsSubmitted_;
        if (resumed)
            ++jobsResumed_;
        if (finished) {
            ++jobsCompleted_;
        } else {
            scheduler_.addJob(jobId, runs, completed);
            jobs_.emplace(jobId, std::move(job));
        }
    }

    Json reply = Json::object();
    reply.add("type", "submitted");
    reply.add("job", jobId);
    reply.add("cells", cells);
    reply.add("resumed", resumed);
    sendReply(conn, reply);
}

bool
ServeDaemon::endedJournal(const std::string &jobId,
                          JournalState *out) const
{
    // The id names a file: anything but a job id's spelling is refused
    // before a path is built from it.
    if (jobId.size() != 16 ||
        jobId.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    return journalLoad(journalPath(options_.storeDir, jobId), out,
                       nullptr) &&
           (out->complete || out->cancelled);
}

void
ServeDaemon::handleStatus(Connection &conn, const Json &frame)
{
    const std::string jobId = frame["job"].asString();
    // A running job's status waits for the job to end (answerParked).
    const double wait = frame["wait"].asDouble();
    if (frame["wait"].isNumber() && wait > 0.0 &&
        scheduler_.hasJob(jobId)) {
        conn.parked = Parked::Status;
        conn.statusJob = jobId;
        conn.statusDeadline = nowSeconds() + wait;
        return;
    }
    sendStatus(conn, jobId);
}

void
ServeDaemon::sendStatus(Connection &conn, const std::string &jobId)
{
    JobProgress p = scheduler_.progress(jobId);
    const char *state = "running";
    if (!scheduler_.hasJob(jobId)) {
        JournalState journal;
        if (!endedJournal(jobId, &journal)) {
            sendError(conn, "unknown job '" + jobId + "'");
            return;
        }
        p.cells = journal.cells;
        p.done = journal.complete ? journal.cells
                                  : journal.uniqueCompleted();
        state = journal.complete ? "complete" : "cancelled";
    }
    Json reply = Json::object();
    reply.add("type", "status");
    reply.add("job", jobId);
    reply.add("state", state);
    reply.add("cells", std::uint64_t(p.cells));
    reply.add("done", std::uint64_t(p.done));
    reply.add("pending", std::uint64_t(p.pending));
    reply.add("leased", std::uint64_t(p.leased));
    sendReply(conn, reply);
}

void
ServeDaemon::handleResults(Connection &conn, const Json &frame)
{
    const std::string jobId = frame["job"].asString();
    if (scheduler_.hasJob(jobId)) {
        sendError(conn, "job '" + jobId + "' is running, results not ready");
        return;
    }
    JournalState journal;
    if (!endedJournal(jobId, &journal)) {
        sendError(conn, "unknown job '" + jobId + "'");
        return;
    }
    if (!journal.complete) {
        sendError(conn,
                  "job '" + jobId + "' is cancelled, results not ready");
        return;
    }
    // Rebuild the table from the store, in expansion order with the
    // same exportRowKey dedup rule as flywheel_bench's merged export,
    // so the served table is byte-identical to the single-process
    // `flywheel_bench --spec ... --json/--csv` output.
    SweepTable table;
    std::set<std::string> seen;
    for (SweepPoint &point : journal.spec.expand()) {
        if (!seen.insert(exportRowKey(point)).second)
            continue;
        SweepRecord rec;
        const std::string key = configKey(point.config);
        if (!store_.lookup(key, &rec.result)) {
            sendError(conn, "job '" + jobId + "': " +
                                store_.pathFor(key) +
                                " does not load; resubmit the spec to "
                                "run its cell again");
            return;
        }
        rec.point = std::move(point);
        table.add(std::move(rec));
    }
    std::ostringstream json;
    table.writeJson(json);
    std::ostringstream csv;
    table.writeCsv(csv);
    Json reply = Json::object();
    reply.add("type", "table");
    reply.add("job", jobId);
    reply.add("json", json.str());
    reply.add("csv", csv.str());
    sendReply(conn, reply);
}

void
ServeDaemon::handleCancel(Connection &conn, const Json &frame)
{
    const std::string jobId = frame["job"].asString();
    auto it = jobs_.find(jobId);
    if (it != jobs_.end()) {
        // A cancelled job ends as a finished one does: its journal,
        // marked, and the results that reached the store.  A
        // resubmission resumes it from the journal.
        if (!it->second.journal.markCancelled()) {
            sendError(conn, "journal: cannot write " +
                                it->second.journal.path());
            return;
        }
        scheduler_.cancel(jobId);
        jobs_.erase(it);
        FW_INFORM("job %s: cancelled", jobId.c_str());
    } else {
        // Cancelling a cancelled job again is a no-op.
        JournalState journal;
        if (!endedJournal(jobId, &journal)) {
            sendError(conn, "unknown job '" + jobId + "'");
            return;
        }
        if (journal.complete) {
            sendError(conn, "job '" + jobId + "' is complete");
            return;
        }
    }
    Json reply = Json::object();
    reply.add("type", "ok");
    sendReply(conn, reply);
}

void
ServeDaemon::handleStats(Connection &conn)
{
    Json reply = Json::object();
    reply.add("type", "stats");
    reply.add("stats", stats_.dump());
    sendReply(conn, reply);
}

void
ServeDaemon::handleShutdown(Connection &conn)
{
    Json reply = Json::object();
    reply.add("type", "ok");
    sendReply(conn, reply);
    stopping_ = true;
}

ServeDaemon::ShardStats &
ServeDaemon::shard(const std::string &worker)
{
    auto it = shards_.find(worker);
    if (it == shards_.end()) {
        it = shards_
                 .emplace(worker, std::make_unique<ShardStats>())
                 .first;
        ShardStats &s = *it->second;
        obs::StatsGroup &g = stats_.group("serve.shard." + worker);
        g.counter("cellsCompleted", &s.cellsCompleted,
                  "cells this worker completed");
        g.counter("storeHits", &s.storeHits,
                  "completions satisfied from the result store");
        g.counter("leasesGranted", &s.leasesGranted,
                  "work units leased to this worker");
        g.counter("leasesExpired", &s.leasesExpired,
                  "leases this worker let expire");
        g.gauge("wallSeconds", &s.wallSeconds,
                "simulation wall-clock reported by this worker");
    }
    return *it->second;
}

void
ServeDaemon::handleHello(Connection &conn, const Json &frame)
{
    std::string error;
    if (!checkFrameVersion(frame, &error)) {
        ++framesRejected_;
        sendError(conn, error);
        return;
    }
    const std::string worker = frame["worker"].asString();
    if (worker.empty()) {
        ++framesRejected_;
        sendError(conn, "hello frame missing worker name");
        return;
    }
    conn.isWorker = true;
    conn.worker = worker;
    shard(worker);
    Json reply = Json::object();
    reply.add("type", "welcome");
    reply.add("store", options_.storeDir);
    // Twelve pings per lease lifetime (5 s at the default 60 s): a
    // live worker's lease never lapses between two of them.
    reply.add("heartbeatSeconds", options_.leaseTimeout / 12);
    sendReply(conn, reply);
}

void
ServeDaemon::handleLease(Connection &conn, const Json &frame)
{
    const std::string worker = frame["worker"].asString();
    if (!conn.isWorker || worker != conn.worker) {
        ++framesRejected_;
        sendError(conn, "lease without hello");
        return;
    }
    if (stopping_) {
        Json bye = Json::object();
        bye.add("type", "bye");
        sendReply(conn, bye);
        return;
    }
    // Nothing leasable: park until something is (answerParked).
    if (!grantLease(conn))
        conn.parked = Parked::Lease;
}

bool
ServeDaemon::grantLease(Connection &conn)
{
    WorkUnit unit;
    if (!scheduler_.lease(conn.worker, nowSeconds(), &unit))
        return false;
    ++shard(conn.worker).leasesGranted;
    Json work = Json::object();
    work.add("type", "work");
    work.add("job", unit.jobId);
    work.add("cell", std::uint64_t(unit.cell));
    // Every work unit carries its spec, so the daemon keeps no record
    // of what a connection has seen and a worker keeps one expansion.
    work.add("spec", jobs_.at(unit.jobId).spec);
    sendReply(conn, work);
    return true;
}

void
ServeDaemon::handleDone(Connection &conn, const Json &frame)
{
    const std::string worker = frame["worker"].asString();
    if (!conn.isWorker || worker != conn.worker) {
        ++framesRejected_;
        sendError(conn, "done without hello");
        return;
    }
    const std::string jobId = frame["job"].asString();
    const std::size_t cell =
        static_cast<std::size_t>(frame["cell"].asU64());
    auto it = jobs_.find(jobId);
    JournalState ended;
    if (it == jobs_.end() ? !endedJournal(jobId, &ended) ||
                                cell >= ended.cells
                          : cell >= it->second.keys.size()) {
        ++framesRejected_;
        sendError(conn, "done for unknown job/cell");
        return;
    }
    const double wall = frame["wall"].asDouble();
    const bool store_hit =
        frame["storeHit"].kind() == Json::Kind::Bool &&
        frame["storeHit"].asBool();

    // A late report for a finished or cancelled job is only counted:
    // its cell is journaled already, or the job no longer wants it.
    if (it != jobs_.end()) {
        Job &job = it->second;
        const std::string &key = job.keys[cell];
        if (frame["key"].asString() != key) {
            ++framesRejected_;
            sendError(conn, "done key mismatch for job " + jobId);
            return;
        }
        // The store holds the one copy of a result: a cell is journaled
        // only once its result loads there under the daemon's own key,
        // so every journaled cell is reloadable.
        RunResult result;
        if (!store_.lookup(key, &result)) {
            ++framesRejected_;
            sendError(conn, "done for job " + jobId + " cell " +
                                std::to_string(cell) + ": " +
                                store_.pathFor(key) + " does not load");
            return;
        }
        // Journal *before* acknowledging: the ack is the worker's
        // licence to forget the cell, so the completion must be
        // durable first.  A write that fails leaves the cell leased
        // and the job running, so a resent report can still land.
        const bool news = scheduler_.isNews(jobId, cell);
        const JobProgress progress = scheduler_.progress(jobId);
        const bool last = news && progress.done + 1 == progress.cells;
        if (news && (!job.journal.append(cell, key, wall) ||
                     (last && !job.journal.markComplete()))) {
            ++framesRejected_;
            sendError(conn, "done for job " + jobId + " cell " +
                                std::to_string(cell) +
                                ": cannot write journal " +
                                job.journal.path());
            return;
        }
        scheduler_.completed(jobId, cell);
        if (last) {
            // From here on the job is its journal.
            ++jobsCompleted_;
            FW_INFORM("job %s: complete (%zu cells)", jobId.c_str(),
                      job.keys.size());
            jobs_.erase(it);
        }
    }

    ShardStats &s = shard(worker);
    ++s.cellsCompleted;
    if (store_hit)
        ++s.storeHits;
    s.wallSeconds += wall;

    Json ack = Json::object();
    ack.add("type", "ack");
    sendReply(conn, ack);
}

void
ServeDaemon::handlePing(Connection &conn, const Json &frame)
{
    // Like lease and done, a ping speaks only for the worker that said
    // hello on this connection.  Pings have no reply, so a stray one
    // is only counted.
    if (!conn.isWorker || frame["worker"].asString() != conn.worker) {
        ++framesRejected_;
        return;
    }
    scheduler_.heartbeat(conn.worker, nowSeconds());
}

void
ServeDaemon::sendReply(Connection &conn, const Json &frame)
{
    if (conn.fd < 0 || conn.closed)
        return;
    const std::string bytes = encodeFrame(frame);
    if (bytes.size() > kMaxFrameBytes) {
        // No peer reads a frame over the cap: say so in one that fits.
        const std::string type = frame["type"].asString();
        std::string message = "'" + type + "' reply of " +
                              std::to_string(bytes.size()) +
                              " bytes exceeds the frame cap of " +
                              std::to_string(kMaxFrameBytes);
        if (type == "table")
            message += "; read the table with flywheel_bench --spec "
                       "FILE --cache " +
                       options_.storeDir + "/results";
        sendError(conn, message);
        return;
    }
    if (!sendAll(conn.fd, bytes))
        dropConnection(conn);
}

void
ServeDaemon::sendError(Connection &conn, const std::string &message)
{
    Json frame = Json::object();
    frame.add("type", "error");
    frame.add("error", message);
    sendReply(conn, frame);
}

void
ServeDaemon::dropConnection(Connection &conn)
{
    if (conn.closed)
        return;
    if (conn.isWorker) {
        // Re-pend immediately instead of waiting out the lease.
        for (const WorkUnit &unit :
             scheduler_.releaseWorker(conn.worker))
            FW_WARN("worker %s disconnected: job %s cell %zu "
                    "re-pended",
                    conn.worker.c_str(), unit.jobId.c_str(),
                    unit.cell);
        // A worker that never took work leaves no history worth
        // keeping; dropping its shard keeps the stats document
        // bounded against connect/probe churn.  Real shards persist.
        auto sit = shards_.find(conn.worker);
        if (sit != shards_.end() &&
            sit->second->leasesGranted == 0 &&
            sit->second->cellsCompleted == 0) {
            stats_.dropGroup("serve.shard." + conn.worker);
            shards_.erase(sit);
        }
    }
    if (conn.fd >= 0)
        ::close(conn.fd);
    conn.fd = -1;
    conn.closed = true;
}

} // namespace flywheel::serve
