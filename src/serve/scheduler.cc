#include "serve/scheduler.hh"

#include <algorithm>

namespace flywheel::serve {

bool
JobScheduler::heldBack(const Job &job, std::size_t cell) const
{
    return leasedRuns_.count(job.cellRun[cell]) != 0;
}

std::map<std::size_t, JobScheduler::Lease>::iterator
JobScheduler::dropLease(Job &job,
                        std::map<std::size_t, Lease>::iterator it)
{
    auto run = leasedRuns_.find(job.cellRun[it->first]);
    if (--run->second == 0)
        leasedRuns_.erase(run);
    return job.leased.erase(it);
}

void
JobScheduler::dropJob(std::map<std::string, Job>::iterator it)
{
    Job &job = it->second;
    for (auto lease = job.leased.begin(); lease != job.leased.end();)
        lease = dropLease(job, lease);
    order_.erase(std::find(order_.begin(), order_.end(), it->first));
    jobs_.erase(it);
}

bool
JobScheduler::addJob(const std::string &jobId,
                     const std::vector<std::string> &cellRun,
                     const std::set<std::size_t> &completed)
{
    if (jobs_.count(jobId))
        return false;
    Job job;
    job.cellRun = cellRun;
    for (std::size_t cell = 0; cell < cellRun.size(); ++cell) {
        if (completed.count(cell))
            job.done.insert(cell);
        else
            job.pending.insert(cell);
    }
    order_.push_back(jobId);
    jobs_.emplace(jobId, std::move(job));
    return true;
}

bool
JobScheduler::hasJob(const std::string &jobId) const
{
    return jobs_.count(jobId) != 0;
}

bool
JobScheduler::lease(const std::string &worker, double now, WorkUnit *out)
{
    // FIFO across jobs: drain the oldest job with a leasable cell
    // first.
    for (const std::string &jobId : order_) {
        Job &job = jobs_.at(jobId);
        // Expansion order: the lowest-indexed cell not held back
        // (std::set iteration order).
        for (std::size_t cell : job.pending) {
            if (heldBack(job, cell))
                continue;
            job.pending.erase(cell);
            job.leased[cell] = Lease{worker, now + leaseTimeout_};
            ++leasedRuns_[job.cellRun[cell]];
            out->jobId = jobId;
            out->cell = cell;
            out->worker = worker;
            return true;
        }
    }
    return false;
}

bool
JobScheduler::completed(const std::string &jobId, std::size_t cell)
{
    const bool news = isNews(jobId, cell);
    auto it = jobs_.find(jobId);
    if (it == jobs_.end() || cell >= it->second.cellRun.size())
        return false;
    Job &job = it->second;
    job.pending.erase(cell);
    if (auto lease = job.leased.find(cell); lease != job.leased.end())
        dropLease(job, lease);
    job.done.insert(cell);
    // Every cell done leaves nothing pending or leased: the job goes,
    // so what lease, heartbeat and expiry walk is work in flight.
    if (job.done.size() == job.cellRun.size())
        dropJob(it);
    return news;
}

bool
JobScheduler::isNews(const std::string &jobId, std::size_t cell) const
{
    auto it = jobs_.find(jobId);
    return it != jobs_.end() && cell < it->second.cellRun.size() &&
           !it->second.done.count(cell);
}

void
JobScheduler::heartbeat(const std::string &worker, double now)
{
    for (auto &entry : jobs_)
        for (auto &lease : entry.second.leased)
            if (lease.second.worker == worker)
                lease.second.deadline = now + leaseTimeout_;
}

std::vector<WorkUnit>
JobScheduler::expireLeases(double now)
{
    std::vector<WorkUnit> expired;
    for (auto &entry : jobs_) {
        Job &job = entry.second;
        for (auto it = job.leased.begin(); it != job.leased.end();) {
            if (it->second.deadline < now) {
                expired.push_back(
                    WorkUnit{entry.first, it->first, it->second.worker});
                job.pending.insert(it->first);
                it = dropLease(job, it);
            } else {
                ++it;
            }
        }
    }
    return expired;
}

std::vector<WorkUnit>
JobScheduler::releaseWorker(const std::string &worker)
{
    std::vector<WorkUnit> released;
    for (auto &entry : jobs_) {
        Job &job = entry.second;
        for (auto it = job.leased.begin(); it != job.leased.end();) {
            if (it->second.worker == worker) {
                released.push_back(WorkUnit{entry.first, it->first, worker});
                job.pending.insert(it->first);
                it = dropLease(job, it);
            } else {
                ++it;
            }
        }
    }
    return released;
}

bool
JobScheduler::cancel(const std::string &jobId)
{
    auto it = jobs_.find(jobId);
    if (it == jobs_.end())
        return false;
    dropJob(it);
    return true;
}

JobProgress
JobScheduler::progress(const std::string &jobId) const
{
    JobProgress p;
    auto it = jobs_.find(jobId);
    if (it == jobs_.end())
        return p;
    const Job &job = it->second;
    p.cells = job.cellRun.size();
    p.done = job.done.size();
    p.pending = job.pending.size();
    p.leased = job.leased.size();
    return p;
}

} // namespace flywheel::serve
