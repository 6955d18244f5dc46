/**
 * @file
 * Worker side of the sweep service: connect to a ServeDaemon, pull
 * leased cells, simulate them, publish results.
 *
 * Everything a worker needs to know (the shared store path and the
 * heartbeat interval in `welcome`, the job spec in every `work` frame)
 * arrives over the wire, so `flywheel_serve --worker --connect
 * HOST:PORT` on another machine joins a sweep with no shared
 * filesystem assumption beyond the store directory itself.  Between
 * cells it keeps only what it can rebuild: the expansion of the job it
 * last ran (a work unit of another job replaces it).  Its result and
 * checkpoint stores are the shared `results/` and `checkpoints/`
 * directories, which keep nothing in memory between cells unless a
 * write failed.  Cells run through the same CellExecutor and
 * ResultStore as a local Session, which is what keeps distributed
 * results byte-identical to single-process ones.
 *
 * Per cell: the executor checks the shared `results/` store first
 * (another worker, or a previous life of this sweep, may have done
 * it), otherwise simulates and publishes the result file *before* the
 * worker reports `done`, which carries none: the server reads it from
 * the store, so a worker whose store is not the server's fails at its
 * first cell.  A heartbeat thread pings the
 * server so leases survive long cells.
 */

#ifndef FLYWHEEL_SERVE_WORKER_HH
#define FLYWHEEL_SERVE_WORKER_HH

#include <string>

#include "serve/protocol.hh"

namespace flywheel::serve {

/** Worker configuration. */
struct WorkerOptions
{
    /** Server to attach to. */
    ServeAddress connect;
    /** Shard name in server stats; "" derives one from the pid. */
    std::string name;
    /**
     * Store directory override for workers that mount the shared
     * store at a different path; "" uses the path the server's
     * `welcome` frame announces.
     */
    std::string storeDir;
};

/**
 * Run the pull loop until the server says `bye` (0) or the
 * connection/protocol fails (1).  Runnable from several threads of
 * one process with distinct names (the in-process tests do).
 */
int runWorker(const WorkerOptions &options);

} // namespace flywheel::serve

#endif // FLYWHEEL_SERVE_WORKER_HH
