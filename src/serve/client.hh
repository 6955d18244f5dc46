/**
 * @file
 * Client side of the sweep service: a thin lockstep RPC wrapper over
 * FrameSocket that the `flywheel_serve` CLI and Session::submit()
 * share.  One method per protocol verb; every call sends one frame
 * and blocks for its reply, surfacing server `error` frames as false
 * + *error.  waitForCompletion() sends `status {wait}`, which the
 * server answers when the job leaves the running state or the wait
 * runs out, so completion is reported as it happens.  A killed and
 * restarted server loses parked requests with the connection; the
 * client reconnects and resubmits, which resumes rather than
 * restarts.
 */

#ifndef FLYWHEEL_SERVE_CLIENT_HH
#define FLYWHEEL_SERVE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "api/experiment.hh"
#include "serve/protocol.hh"

namespace flywheel::serve {

class ServeClient
{
  public:
    /** submit() reply. */
    struct Submitted
    {
        std::string jobId;
        std::uint64_t cells = 0;
        bool resumed = false;
    };

    bool connect(const ServeAddress &address, std::string *error);
    bool connected() const { return socket_.connected(); }
    void close() { socket_.close(); }

    /** Submit @p spec; idempotent (a known spec resumes/attaches). */
    bool submit(const ExperimentSpec &spec, Submitted *out,
                std::string *error);

    /**
     * Status frame for @p jobId: state, cells, done, pending and
     * leased (per-worker counters are in stats()).  With
     * @p waitSeconds > 0 the server holds a running job's reply until
     * the job ends or the wait runs out.
     */
    bool status(const std::string &jobId, Json *out,
                std::string *error, double waitSeconds = 0.0);

    /**
     * Fetch a finished job's table; false while it is still
     * running.  Either output may be null.
     */
    bool results(const std::string &jobId, std::string *tableJson,
                 std::string *tableCsv, std::string *error);

    bool cancel(const std::string &jobId, std::string *error);

    /** Server stats document (flywheel.stats.v1, per-shard groups). */
    bool stats(Json *out, std::string *error);

    /** Ask the daemon to exit. */
    bool shutdown(std::string *error);

    /**
     * Block until the job completes (true) or is cancelled / the
     * connection fails (false); completion returns at once.
     * @p onStatus, when set, sees every status frame: one per
     * @p pollSeconds while the job runs, then the final one
     * (progress display).
     */
    bool waitForCompletion(
        const std::string &jobId, double pollSeconds,
        const std::function<void(const Json &status)> &onStatus,
        std::string *error);

  private:
    bool request(const Json &frame, const char *expectType,
                 Json *reply, std::string *error);

    FrameSocket socket_;
};

} // namespace flywheel::serve

#endif // FLYWHEEL_SERVE_CLIENT_HH
