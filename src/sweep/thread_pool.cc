#include "sweep/thread_pool.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>

#include "common/decimal.hh"
#include "common/log.hh"

namespace flywheel {

bool
ThreadPool::parseJobsValue(const char *text, unsigned *out)
{
    std::uint64_t v = 0;
    if (!text || parseDecimal(text, 1, kMaxJobs, &v) != DecimalParse::Ok)
        return false;
    *out = static_cast<unsigned>(v);
    return true;
}

unsigned
ThreadPool::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    if (const char *env = std::getenv("FLYWHEEL_JOBS")) {
        unsigned v = 0;
        if (parseJobsValue(env, &v))
            return v;
        FW_WARN("ignoring FLYWHEEL_JOBS='%s' (want an integer in "
                "1..%u); using hardware concurrency (%u)",
                env, kMaxJobs, hw);
    }
    return hw;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultJobs();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        tasks_.push(std::move(task));
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return tasks_.empty() && running_ == 0; });
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    // One task per worker; each claims indices from a shared cursor.
    // Cheaper than n queue entries and keeps claim order sequential.
    auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
    std::size_t tasks = std::min<std::size_t>(workers_.size(), n);
    for (std::size_t t = 0; t < tasks; ++t) {
        submit([cursor, n, &fn] {
            for (;;) {
                std::size_t i = cursor->fetch_add(1);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    wait();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock,
                            [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
            ++running_;
        }
        // lint: wallclock(worker busy-time telemetry, not sim state)
        const auto start = std::chrono::steady_clock::now();
        task();
        // lint: wallclock(worker busy-time telemetry)
        const auto end = std::chrono::steady_clock::now();
        const double busy =
            std::chrono::duration<double>(end - start).count();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --running_;
            ++tasksExecuted_;
            busySeconds_ += busy;
            if (tasks_.empty() && running_ == 0)
                allDone_.notify_all();
        }
    }
}

std::uint64_t
ThreadPool::tasksExecuted() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return tasksExecuted_;
}

double
ThreadPool::busySeconds() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return busySeconds_;
}

} // namespace flywheel
