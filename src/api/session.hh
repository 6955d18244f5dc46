/**
 * @file
 * Session — the one front door to the simulator and its one grid
 * runner.  A Session owns a worker pool, a content-keyed result store
 * and, when configured, a warm checkpoint store; it runs grids of
 * SweepPoints (run() over points) and declarative ExperimentSpecs
 * (run() over a spec's expansion), and submit() hands a spec to a
 * `flywheel_serve` daemon instead.  The pool and stores persist
 * across run() calls, so later grids reuse earlier points.  Benches,
 * tools and examples talk to this facade instead of wiring
 * runSim()/CellExecutor individually.
 */

#ifndef FLYWHEEL_API_SESSION_HH
#define FLYWHEEL_API_SESSION_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "snapshot/checkpointer.hh"
#include "sweep/result_store.hh"
#include "sweep/sweep.hh"
#include "sweep/thread_pool.hh"

namespace flywheel {

/** Knobs for one Session. */
struct SessionOptions
{
    /** Worker threads; 0 = FLYWHEEL_JOBS env or hardware concurrency. */
    unsigned jobs = 0;
    /**
     * Result-file directory shared across runs and processes (see
     * ResultStore), read on every lookup; a serve store's `results/`
     * works too.  Empty keeps results in memory only.
     */
    std::string cacheDir;
    /**
     * Warm checkpoint store shared by every run of the session: ""
     * disables checkpointing entirely (historical behaviour), a
     * directory persists warmup checkpoints on disk across
     * invocations and keeps none in memory (cells that share a key
     * read its file), and Checkpointer::kMemoryOnly (":memory:")
     * keeps them in memory, shared across cells of this process only.
     * Cells whose checkpoint keys match pay the detailed warmup once.
     */
    std::string checkpointDir;
    /**
     * Progress callback, invoked after each point completes (in
     * completion order, serialized — never concurrently).
     */
    std::function<void(std::size_t done, std::size_t total,
                       const SweepPoint &point, const RunResult &result,
                       bool from_cache)>
        progress;
    /**
     * Observability attachments stamped onto every run of the session
     * that does not bring its own (see ObsConfig): stats collection
     * and/or pipeline tracing.  Observed cells bypass the result-store
     * lookup and sibling derivation: either would skip the simulation
     * the stats/trace documents are supposed to describe.
     */
    ObsConfig obs;
};

/** Outcome of Session::submit() — one remotely executed spec. */
struct SubmitOutcome
{
    std::string jobId;       ///< server-assigned (spec-hash) id
    std::size_t cells = 0;   ///< grid size after expansion
    bool resumed = false;    ///< journal replay shortened the run
    /** Finished table in the two sweep export formats (byte-identical
     *  to a local run of the same resolved spec). */
    std::string tableJson;
    std::string tableCsv;
};

class Session
{
  public:
    explicit Session(SessionOptions options = {});

    /** Logs the checkpoint-store summary line (suppressed by Quiet). */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Run every point on the worker pool; rows come back in
     * submission order.  Points sharing one
     * configKey(simulatedConfig()) run on one worker in order, so the
     * group simulates once.
     */
    SweepTable run(const std::vector<SweepPoint> &points);

    /** run(spec.expand()): rows come back in expansion order. */
    SweepTable run(const ExperimentSpec &spec)
    {
        return run(spec.expand());
    }

    /**
     * Client mode: submit @p spec to a `flywheel_serve` daemon at
     * @p serverAddress ("HOST:PORT" or a Unix socket path), block
     * until the sweep finishes, and return its exported table.
     * Submission is idempotent — resubmitting a spec the server has
     * journaled resumes it.  False + *error on connection, protocol
     * or job failure; the local pool and stores are untouched either
     * way.
     */
    bool submit(const std::string &serverAddress,
                const ExperimentSpec &spec, SubmitOutcome *out,
                std::string *error, double pollSeconds = 0.2);

    ResultStore &cache() { return cache_; }
    /** Shared warm checkpoint store (null when disabled). */
    Checkpointer *checkpointer() { return checkpointer_.get(); }

  private:
    SessionOptions options_;
    ResultStore cache_;
    std::unique_ptr<Checkpointer> checkpointer_;
    /** Declared last: its workers join before the stores go away. */
    ThreadPool pool_;
};

} // namespace flywheel

#endif // FLYWHEEL_API_SESSION_HH
