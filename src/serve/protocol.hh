/**
 * @file
 * Wire protocol for the distributed sweep service (`flywheel_serve`):
 * newline-delimited JSON frames over a TCP or Unix-domain stream
 * socket, schema `flywheel.serve.v4`.
 *
 * Every frame is one compact JSON object terminated by '\n' with a
 * mandatory string member "type".  The opening frame of a connection
 * ("submit" from a client, "hello" from a worker) must also carry
 * `"v": "flywheel.serve.v4"`; a version mismatch is rejected before
 * any state changes.  Frames and replies:
 *
 *   client -> server                 server -> client
 *     submit {v, spec}                 submitted {job, cells, resumed}
 *     status {job, wait?}              status {job, state, cells, done,
 *                                              pending, leased}
 *     results {job}                    table {job, json, csv}
 *     cancel {job}                     ok {} (error once complete)
 *     stats {}                         stats {stats: <flywheel.stats.v1>}
 *     shutdown {}                      ok {}
 *
 *   worker -> server                 server -> worker
 *     hello {v, worker}                welcome {store, heartbeatSeconds}
 *     lease {worker}                   work {job, cell, spec} | bye {}
 *     done {worker, job, cell, key,    ack {}
 *           wall, storeHit}
 *     ping {worker}                    (no reply — pings may be sent
 *                                      from a heartbeat thread while a
 *                                      lease/done exchange is pending)
 *
 *   lease, done and ping count only on the connection that said hello
 *   and only for the worker it named; any other is rejected.  Every
 *   `work` frame carries its job's resolved spec document, so neither
 *   side records which specs a connection has seen.  A `done` carries
 *   no result: the server loads it from the shared store.
 *
 *   any error path                   error {error}
 *
 * The server pushes instead of making its peers poll.  A `lease` that
 * finds no leasable cell gets no reply until one becomes leasable
 * (`work`) or the server shuts down (`bye`).  A `status` with
 * `wait: S` seconds on a running job is answered when the job
 * completes or is cancelled, or after S seconds, whichever is first;
 * without `wait` it is answered at once.  Replies keep request order:
 * while a request waits, the connection's later frames (pings
 * excepted) wait behind it.
 *
 * The codec layer here is transport-free and fully deterministic, so
 * it is unit-testable without sockets; FrameSocket adds the blocking
 * stream transport used by the worker and client (the server runs its
 * own poll loop over FrameBuffers).
 */

#ifndef FLYWHEEL_SERVE_PROTOCOL_HH
#define FLYWHEEL_SERVE_PROTOCOL_HH

#include <cstddef>
#include <mutex>
#include <string>

#include "common/json.hh"

namespace flywheel::serve {

/** Protocol schema tag carried by every connection-opening frame. */
inline constexpr const char *kServeSchema = "flywheel.serve.v4";

/**
 * Upper bound on one encoded frame, delimiter included.  The server
 * sends an `error` instead of a reply that would exceed it, and
 * refuses at submit a spec whose table cannot fit (fig12's is 150 KB).
 */
inline constexpr std::size_t kMaxFrameBytes = 8u << 20;

/** Serialize @p frame as one wire frame (compact JSON + '\n'). */
std::string encodeFrame(const Json &frame);

/**
 * Parse one frame line (without the trailing '\n').  Rejects
 * non-JSON, non-object and missing/non-string "type" payloads:
 * false + *error, *out untouched.
 */
bool decodeFrame(const std::string &line, Json *out, std::string *error);

/**
 * True if @p frame is a valid connection-opening frame of the
 * protocol version this build speaks ("v" == kServeSchema).
 */
bool checkFrameVersion(const Json &frame, std::string *error);

/**
 * Incremental NDJSON splitter for one connection.  Bytes go in via
 * append(); complete lines come out via nextLine().  A line longer
 * than kMaxFrameBytes poisons the buffer (overflowed() stays true and
 * nextLine() returns false) — the owner must drop the connection.
 */
class FrameBuffer
{
  public:
    void append(const char *data, std::size_t n);

    /** Extract the next complete line (without '\n'); false if none. */
    bool nextLine(std::string *line);

    /** Copy the next complete line without extracting it. */
    bool peekLine(std::string *line);

    bool overflowed() const { return overflowed_; }
    std::size_t pending() const { return buffer_.size(); }

  private:
    std::string buffer_;
    bool overflowed_ = false;
};

/** Parsed server address: "HOST:PORT" for TCP, anything else a
 *  Unix-domain socket path. */
struct ServeAddress
{
    bool tcp = false;
    std::string host;   ///< TCP only
    int port = 0;       ///< TCP only
    std::string path;   ///< Unix-domain only

    /** Canonical display form ("host:port" or the socket path). */
    std::string display() const;
};

/**
 * Parse @p text into a ServeAddress.  "HOST:PORT" (a final ':' run
 * of digits, no '/') selects TCP; everything else names a Unix
 * socket path.  False + *error on an empty string or a TCP port
 * above 65535 (port 0 is accepted: it asks a listener for an
 * ephemeral port).
 */
bool parseServeAddress(const std::string &text, ServeAddress *out,
                       std::string *error);

/**
 * Blocking framed stream socket for the worker and client sides.
 * sendFrame() is mutex-serialized so a heartbeat thread may write
 * concurrently with the owner's request/response exchanges;
 * recvFrame() must only be called from one thread.
 */
class FrameSocket
{
  public:
    FrameSocket() = default;
    ~FrameSocket();

    FrameSocket(const FrameSocket &) = delete;
    FrameSocket &operator=(const FrameSocket &) = delete;

    /** Connect to @p address; false + *error on failure. */
    bool connectTo(const ServeAddress &address, std::string *error);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * Encode and send one frame (thread-safe).  False when the peer
     * is gone (connection reset / closed).
     */
    bool sendFrame(const Json &frame);

    /**
     * Block until one complete frame arrives; false + *error on EOF,
     * transport error, frame overflow or a malformed frame.
     */
    bool recvFrame(Json *out, std::string *error);

  private:
    int fd_ = -1;
    std::mutex sendMutex_;
    FrameBuffer inbuf_;
};

} // namespace flywheel::serve

#endif // FLYWHEEL_SERVE_PROTOCOL_HH
