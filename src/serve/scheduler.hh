/**
 * @file
 * Work-unit scheduler for the sweep service.
 *
 * The unit of distribution is one grid cell — a (job, cell-index)
 * pair into the job spec's expansion — and scheduling is pull-based:
 * a worker leases its next cell when it finishes the last, so a slow
 * machine simply takes fewer and fast ones take the remainder.
 * Nothing is pre-partitioned.  A lease that finds nothing leasable
 * waits in the server, which asks again whenever a cell may have
 * become leasable.
 *
 * Each handout is a *lease*, not a transfer: the cell stays owned by
 * the scheduler until a completion lands, and a lease whose worker
 * misses its heartbeat window is expired back to pending so another
 * worker picks it up.  Work can therefore be executed twice after a
 * worker dies mid-cell; that is safe because cell execution is
 * deterministic and results are published atomically to a shared
 * store keyed by config — duplicates collapse to the same bytes.
 *
 * Handout order is expansion order: the oldest job's lowest-indexed
 * pending cell that is not held back, so jobs are served FIFO.  No
 * wall-time model ranks cells: a longest-predicted-first order
 * measured no faster on a served sweep (README, "Scheduling").
 *
 * Cells that simulate the same run (one configKey(simulatedConfig()),
 * e.g. fig15's three tech nodes) are never leased at once, in any
 * job: while one is leased its siblings are held back, so the first
 * simulates the run and stores it, and the rest are reduced from the
 * stored run.  Every distinct run is then simulated once, whatever the
 * lease order: two workers leased siblings at once would both simulate
 * it.
 *
 * Time is injected as a double-seconds value by the caller (the
 * server's poll loop, or a unit test), so lease-expiry behaviour is
 * exactly testable without sleeping.  The scheduler itself is
 * single-threaded state owned by the server loop — no locks here.
 */

#ifndef FLYWHEEL_SERVE_SCHEDULER_HH
#define FLYWHEEL_SERVE_SCHEDULER_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace flywheel::serve {

/** One leased work unit. */
struct WorkUnit
{
    std::string jobId;
    std::size_t cell = 0;
    std::string worker;  ///< the worker the unit is (or was) leased to
};

/** Progress counters for one job (status frames). */
struct JobProgress
{
    std::size_t cells = 0;
    std::size_t done = 0;
    std::size_t pending = 0;
    std::size_t leased = 0;
};

class JobScheduler
{
  public:
    /** Lease lifetime in injected-time seconds. */
    explicit JobScheduler(double leaseTimeout = 60.0)
        : leaseTimeout_(leaseTimeout) {}

    /**
     * Register a job: per cell, the key of the run it simulates
     * (cells with one run key are never leased at once), with
     * @p completed cells (journal replay) already done, at least one
     * cell not.  Re-adding a known job id is a no-op (idempotent
     * resubmission = attach).  Returns false on the no-op.
     */
    bool addJob(const std::string &jobId,
                const std::vector<std::string> &cellRun,
                const std::set<std::size_t> &completed = {});

    bool hasJob(const std::string &jobId) const;

    /**
     * Lease the oldest job's lowest-indexed pending cell whose run is
     * not leased to any worker; false when there is none (all done,
     * all leased or held back, or no jobs).
     */
    bool lease(const std::string &worker, double now, WorkUnit *out);

    /**
     * Record a completed cell and release any lease on it.  True when
     * the completion is news to journal: the cell was not done.  A job
     * whose last cell completes leaves the scheduler.  Idempotent:
     * repeats and completions for unknown cells are ignored (false).
     */
    bool completed(const std::string &jobId, std::size_t cell);

    /** What completed() would return, without recording anything. */
    bool isNews(const std::string &jobId, std::size_t cell) const;

    /** Refresh every lease held by @p worker. */
    void heartbeat(const std::string &worker, double now);

    /**
     * Re-pend leases whose heartbeat window passed; returns the
     * expired units, with the worker each was leased to, so the
     * server can log and count them.
     */
    std::vector<WorkUnit> expireLeases(double now);

    /** Immediately re-pend everything @p worker holds (clean detach). */
    std::vector<WorkUnit> releaseWorker(const std::string &worker);

    /**
     * Drop a job with its pending and leased cells, as its last
     * completion does.  False for unknown jobs, finished and
     * cancelled ones included.
     */
    bool cancel(const std::string &jobId);

    /** Progress for one job; zeroes for unknown ids. */
    JobProgress progress(const std::string &jobId) const;

  private:
    struct Lease
    {
        std::string worker;
        double deadline = 0.0;
    };

    struct Job
    {
        std::vector<std::string> cellRun;
        std::set<std::size_t> pending;        // ordered: lease order
        std::map<std::size_t, Lease> leased;
        std::set<std::size_t> done;
    };

    /** True while a sibling of @p job's @p cell is leased. */
    bool heldBack(const Job &job, std::size_t cell) const;
    /** Erase @p it from @p job's leases and release its run. */
    std::map<std::size_t, Lease>::iterator
    dropLease(Job &job, std::map<std::size_t, Lease>::iterator it);
    /** Release @p it's leases and forget the job. */
    void dropJob(std::map<std::string, Job>::iterator it);

    double leaseTimeout_;
    std::vector<std::string> order_;      // FIFO across jobs
    std::map<std::string, Job> jobs_;
    std::map<std::string, std::size_t> leasedRuns_;  // run -> leases
};

} // namespace flywheel::serve

#endif // FLYWHEEL_SERVE_SCHEDULER_HH
