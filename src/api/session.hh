/**
 * @file
 * Session — the one front door to the simulator.  A Session owns a
 * SweepRunner (worker pool + content-keyed result store) and executes
 * declarative ExperimentSpecs: run() simulates a spec's grid (with
 * optional bit-exact repeat checking), verify() routes its
 * non-baseline points through the differential checker, and the
 * golden helpers wrap the figure-regression snapshots.  Benches,
 * tools and examples talk to this facade instead of wiring
 * runSim()/SweepRunner/golden.* individually.
 */

#ifndef FLYWHEEL_API_SESSION_HH
#define FLYWHEEL_API_SESSION_HH

#include <string>
#include <vector>

#include "api/experiment.hh"
#include "sweep/sweep.hh"
#include "verify/differential.hh"
#include "verify/golden.hh"

namespace flywheel {

/** Knobs for one Session. */
struct SessionOptions
{
    /** Worker threads; 0 = FLYWHEEL_JOBS env or hardware concurrency. */
    unsigned jobs = 0;
    /**
     * Result-file directory (see SweepOptions::cacheDir); a serve
     * store's `results/` works too.  Empty keeps results in memory.
     */
    std::string cacheDir;
    /**
     * Warm checkpoint store shared by every run of the session (see
     * SweepOptions::checkpointDir): "" disables checkpointing, a
     * directory persists warmup checkpoints across invocations,
     * ":memory:" shares them within this process only.
     */
    std::string checkpointDir;
    /** Store size cap (see SweepOptions::checkpointCapBytes). */
    std::uint64_t checkpointCapBytes = 0;
    /** Per-point progress callback (see SweepOptions::progress). */
    decltype(SweepOptions::progress) progress;
    /**
     * Observability attachments stamped onto every run of the session
     * (see SweepOptions::obs): stats collection and/or pipeline
     * tracing.  Observed runs bypass the result-store lookup.
     */
    ObsConfig obs;

    /**
     * Standard environment wiring: cacheDir from FLYWHEEL_CACHE,
     * checkpointDir from FLYWHEEL_CHECKPOINTS and checkpointCapBytes
     * from FLYWHEEL_CHECKPOINT_CAP_MB if set (jobs stay 0, i.e.
     * FLYWHEEL_JOBS / hardware concurrency).
     */
    static SessionOptions fromEnv();
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

/** Outcome of Session::verify() over one spec. */
struct VerifyReport
{
    struct Entry
    {
        SweepPoint point;
        DiffReport report;
    };

    std::vector<Entry> entries;

    bool ok() const;
    std::size_t failureCount() const;

    /** One line per checked point plus a verdict line. */
    std::string summary() const;
};

class Session
{
  public:
    explicit Session(SessionOptions options = {});

    /**
     * Execute every point of @p spec on the worker pool; rows come
     * back in expansion order.  When spec.repeat > 1, each point is
     * re-simulated repeat-1 more times bypassing the cache, and any
     * deviation from the first result is a fatal error (simulation
     * nondeterminism must never pass silently).
     */
    SweepTable run(const ExperimentSpec &spec);

    /** Run one ad-hoc config through the session's result store. */
    RunResult runOne(const RunConfig &config, bool *from_cache = nullptr);

    /**
     * Client mode: submit @p spec to a `flywheel_serve` daemon at
     * @p serverAddress ("HOST:PORT" or a Unix socket path), block
     * until the sweep finishes, and return its exported table.
     * Submission is idempotent — resubmitting a spec the server has
     * journaled resumes it.  False + *error on connection, protocol
     * or job failure; the local runner is untouched either way.
     */
    bool submit(const std::string &serverAddress,
                const ExperimentSpec &spec, SubmitOutcome *out,
                std::string *error, double pollSeconds = 0.2);

    /**
     * Differential verification of @p spec: every distinct
     * non-baseline (benchmark, kind, params) combination in the
     * spec's grid is cross-checked against the baseline core and the
     * workload oracle.  Tech node and power gating do not affect
     * architectural behaviour, so points differing only in those are
     * checked once.
     */
    VerifyReport verify(const ExperimentSpec &spec);

    /** Golden-figure regression against "<dir>/<figure>.json". */
    std::vector<GoldenDiff> checkGolden(const std::string &dir,
                                        const GoldenOptions &opts = {});
    /** Rebuild and overwrite the golden snapshots in @p dir. */
    bool refreshGolden(const std::string &dir,
                       const GoldenOptions &opts = {});

    SweepRunner &runner() { return runner_; }
    ResultStore &cache() { return runner_.cache(); }
    unsigned jobs() const { return runner_.jobs(); }

  private:
    SweepRunner runner_;
};

} // namespace flywheel

#endif // FLYWHEEL_API_SESSION_HH
