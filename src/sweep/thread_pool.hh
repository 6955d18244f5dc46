/**
 * @file
 * Fixed-size worker thread pool for the sweep engine.  Workers are
 * started once and reused across submissions; tasks are arbitrary
 * callables.  parallelFor() provides the common "N independent
 * indices" shape with deterministic result placement: work items may
 * complete in any order, but each writes only its own slot, so the
 * output of a sweep is identical for any worker count.
 */

#ifndef FLYWHEEL_SWEEP_THREAD_POOL_HH
#define FLYWHEEL_SWEEP_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace flywheel {

class ThreadPool
{
  public:
    /** Start @p threads workers (0 means defaultJobs()). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains remaining tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /**
     * Run fn(i) for each i in [0, n) on the pool and block until all
     * are done.  fn is called concurrently from worker threads; with
     * a single worker the calls happen in index order.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Tasks completed since construction. */
    std::uint64_t tasksExecuted() const;

    /**
     * Cumulative wall-clock seconds workers spent inside tasks.
     * Against elapsed time x threadCount() this yields the pool
     * utilization a sweep achieved.
     */
    double busySeconds() const;

    /**
     * Worker count used when none is requested: the FLYWHEEL_JOBS
     * environment variable if it holds a valid count, else the
     * hardware concurrency (min 1).  An invalid FLYWHEEL_JOBS —
     * empty, non-numeric, trailing garbage, zero, negative, or
     * beyond kMaxJobs — is rejected with a warning rather than
     * silently starting a wrong-sized (or unstartable) pool.
     */
    static unsigned defaultJobs();

    /** Upper bound defaultJobs() accepts from the environment. */
    static constexpr unsigned kMaxJobs = 4096;

    /**
     * Strict FLYWHEEL_JOBS parser (exposed for tests): true and *out
     * filled only for a plain decimal in [1, kMaxJobs]
     * (parseDecimal(), common/decimal.hh).
     */
    static bool parseJobsValue(const char *text, unsigned *out);

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    std::queue<std::function<void()>> tasks_;
    std::vector<std::thread> workers_;
    std::size_t running_ = 0;   ///< tasks currently executing
    bool stopping_ = false;
    std::uint64_t tasksExecuted_ = 0;
    double busySeconds_ = 0.0;
};

} // namespace flywheel

#endif // FLYWHEEL_SWEEP_THREAD_POOL_HH
