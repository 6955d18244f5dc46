/**
 * @file
 * ServeDaemon — the long-running sweep service behind
 * `flywheel_serve`.
 *
 * One single-threaded poll(2) loop owns everything: the listening
 * socket (TCP or Unix-domain), every client and worker connection,
 * the JobScheduler and the running jobs.  Workers and clients speak
 * the NDJSON protocol from serve/protocol.hh; simulation happens only
 * in worker processes (spawned locally by the daemon, or attached
 * remotely with `flywheel_serve --worker --connect`), so a slow cell
 * never stalls frame handling.
 *
 * Job lifecycle:
 *  - submit: run lengths are resolved against this server's
 *    environment *before* hashing and journaling, so every worker —
 *    whatever its env — expands the identical grid; the job id is
 *    the FNV-1a digest of that resolved spec, making resubmission
 *    idempotent: the same spec resumes its journal instead of
 *    starting over.  A spec whose table cannot fit a frame is refused.
 *  - execute: cells are leased to pulling workers (expansion order,
 *    one cell per simulated run at a time, see scheduler.hh), each
 *    `work` frame carrying the job's resolved spec.  A worker
 *    publishes a cell's result to the shared store before its `done`,
 *    which carries none: the daemon journals the cell, durably and
 *    before acknowledging, only once the result loads from the store
 *    under its own key.  A lease that finds nothing leasable is parked
 *    and answered with `work` as soon as a submit, a `done` that
 *    frees a held-back sibling, a lease expiry or a worker drop makes
 *    a cell leasable.
 *  - finish: the last completion marks the journal complete and the
 *    job leaves the daemon: it is `job-<id>.json` plus its `results/`
 *    files, for this daemon and any later one.  `status` reads the
 *    journal; `results` rebuilds the table from the store in expansion
 *    order with the same dedup rule (exportRowKey) as `flywheel_bench`
 *    exports, so the served table is byte-identical to a
 *    single-process run of the same spec.  A `status {wait}` parked
 *    on the job is answered then (or at cancel, or when its wait
 *    ends), so a waiting client learns of completion at once.
 *  - cancel: the journal gets a cancel marker and the job leaves the
 *    daemon as a finished one does; `status` reads `cancelled` from
 *    the journal, a late `done` is acked but not journaled, and a
 *    resubmission resumes the job from its journal.
 *
 * Crash story: kill -9 the daemon at any point; restarting it and
 * resubmitting the same spec replays the journal, reloads completed
 * cells from the result store (a journaled cell whose result file is
 * missing simply re-pends) and re-leases only the remainder.
 *
 * Store layout under --store DIR:
 *   job-<id>.json      per-job journal (serve/journal.hh)
 *   results/           per-cell RunResult files (serve/store.hh); also
 *                      usable as a local `flywheel_bench --cache` dir
 *   checkpoints/       workers' shared warm-up checkpoint store
 */

#ifndef FLYWHEEL_SERVE_SERVER_HH
#define FLYWHEEL_SERVE_SERVER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "api/experiment.hh"
#include "obs/stats_registry.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/scheduler.hh"
#include "serve/store.hh"

namespace flywheel::serve {

/** Daemon configuration. */
struct ServeOptions
{
    /** Shared store directory (journals, results, checkpoints). */
    std::string storeDir;
    /** Listen address; TCP port 0 picks an ephemeral port. */
    ServeAddress listen;
    /** Local worker processes to spawn (0 = remote workers only). */
    unsigned localWorkers = 0;
    /**
     * argv to exec for each local worker (typically this binary with
     * --worker --connect).  Required when localWorkers > 0.
     */
    std::vector<std::string> workerArgv;
    /**
     * Lease lifetime: a silent worker's cells re-pend after this.
     * Workers ping every twelfth of it (`welcome.heartbeatSeconds`).
     */
    double leaseTimeout = 60.0;
};

/** Resolve @p spec's run lengths against this process's defaults. */
ExperimentSpec resolveSpec(const ExperimentSpec &spec);

/** Job id: 16-hex FNV-1a digest of the resolved spec document. */
std::string jobIdFor(const ExperimentSpec &resolved);

class ServeDaemon
{
  public:
    explicit ServeDaemon(ServeOptions options);
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /**
     * Create the store, bind + listen, spawn local workers.  False +
     * *error leaves the daemon inert (run() returns immediately).
     */
    bool start(std::string *error);

    /** Serve until shutdown is requested (frame or stop()). */
    void run();

    /** Thread-safe shutdown request (self-pipe into the poll loop). */
    void stop();

    /** Bound address — the real port when listening on TCP port 0. */
    const ServeAddress &boundAddress() const { return bound_; }

  private:
    /** A request held unanswered until its event (answerParked). */
    enum class Parked { None, Lease, Status };

    struct Connection
    {
        int fd = -1;
        FrameBuffer inbuf;
        bool isWorker = false;
        std::string worker;            ///< hello name (workers only)
        bool closed = false;
        Parked parked = Parked::None;  ///< later frames wait behind it
        std::string statusJob;         ///< Parked::Status: the job
        double statusDeadline = 0.0;   ///< Parked::Status: answer by
    };

    /** Per-worker shard counters surfaced via the stats frame. */
    struct ShardStats
    {
        std::uint64_t cellsCompleted = 0;
        std::uint64_t storeHits = 0;
        std::uint64_t leasesGranted = 0;
        std::uint64_t leasesExpired = 0;
        double wallSeconds = 0.0;
    };

    /** A running job; a finished or cancelled one is its journal. */
    struct Job
    {
        Json spec;                      ///< resolved, for `work`
        std::vector<std::string> keys;  ///< configKey per cell
        JournalWriter journal;
    };

    double nowSeconds() const;

    bool openListenSocket(std::string *error);
    pid_t spawnLocalWorker();
    void reapLocalWorkers();
    void killLocalWorkers();

    void acceptConnections();
    void serviceConnection(Connection &conn);
    void handleFrames(Connection &conn);
    void handleFrame(Connection &conn, const Json &frame);
    void answerParked();
    int pollTimeoutMs() const;

    // client-side frames
    void handleSubmit(Connection &conn, const Json &frame);
    void handleStatus(Connection &conn, const Json &frame);
    void sendStatus(Connection &conn, const std::string &jobId);
    void handleResults(Connection &conn, const Json &frame);
    void handleCancel(Connection &conn, const Json &frame);
    void handleStats(Connection &conn);
    void handleShutdown(Connection &conn);

    // worker-side frames
    void handleHello(Connection &conn, const Json &frame);
    void handleLease(Connection &conn, const Json &frame);
    bool grantLease(Connection &conn);
    void handleDone(Connection &conn, const Json &frame);
    void handlePing(Connection &conn, const Json &frame);

    void sendReply(Connection &conn, const Json &frame);
    void sendError(Connection &conn, const std::string &message);
    void dropConnection(Connection &conn);

    ShardStats &shard(const std::string &worker);
    /** The journal of a job that completed or was cancelled. */
    bool endedJournal(const std::string &jobId, JournalState *out) const;

    ServeOptions options_;
    ServeAddress bound_;
    ResultStore store_;
    JobScheduler scheduler_;
    obs::StatsRegistry stats_;

    int listenFd_ = -1;
    int stopPipe_[2] = {-1, -1};
    bool stopping_ = false;
    std::vector<std::unique_ptr<Connection>> connections_;
    std::map<pid_t, bool> localWorkers_;
    unsigned respawnBudget_ = 0;

    std::map<std::string, Job> jobs_;
    std::map<std::string, std::unique_ptr<ShardStats>> shards_;

    // daemon-level counters (stats group "serve")
    std::uint64_t jobsSubmitted_ = 0;
    std::uint64_t jobsResumed_ = 0;
    std::uint64_t jobsCompleted_ = 0;
    std::uint64_t framesHandled_ = 0;
    std::uint64_t framesRejected_ = 0;
    std::uint64_t leasesExpired_ = 0;

    double epoch_ = 0.0;  ///< steady-clock origin for injected time
};

} // namespace flywheel::serve

#endif // FLYWHEEL_SERVE_SERVER_HH
