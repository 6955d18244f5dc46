/**
 * @file
 * Warmup checkpoint engine.  A Checkpointer maps a checkpoint key —
 * the canonical description of everything that shapes post-warmup
 * simulator state: benchmark profile knobs, the behaviour-affecting
 * CoreParams subset, the core kind and the warmup length — to a
 * saved Snapshot, so the detailed warmup is paid once per distinct
 * key instead of once per run.
 *
 * Every acquire of a key runs under a per-key compute-once lock: when
 * a sweep launches many grid cells with the same key concurrently,
 * exactly one worker simulates the warmup and every other worker
 * blocks briefly and then restores.  Where the snapshot lives depends
 * on the store:
 *  - with a directory, the directory is the store (one content-hashed
 *    snapshot file per key, like the sweep ResultStore's result
 *    files).  A snapshot made or loaded by an acquire goes to its
 *    caller and is not kept; waiting and later callers, in this or
 *    any later process, read the file.  So memory holds at most one
 *    snapshot per acquire in flight, however many warm states the
 *    process has seen.  Memory keeps a snapshot only when its persist
 *    failed, since memory is then its only copy;
 *  - without one (":memory:"), process memory is the only tier and
 *    keeps every snapshot, so cells of one process share warm state.
 *
 * Keys canonicalize away everything that provably cannot influence
 * warm state: the energy-model tech node and gating flag, the
 * measurement length — and, for the baseline core, the Flywheel-only
 * parameters and the FE/BE clock plan it never reads.  See
 * checkpointKey().
 */

#ifndef FLYWHEEL_SNAPSHOT_CHECKPOINTER_HH
#define FLYWHEEL_SNAPSHOT_CHECKPOINTER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "snapshot/snapshot.hh"

namespace flywheel {

struct RunConfig;

/**
 * Canonical checkpoint key for the post-warmup state of @p config.
 * Two configs share a key iff their warmed-up simulator state is
 * guaranteed to be identical.
 */
std::string checkpointKey(const RunConfig &config);

/** Thread-safe checkpoint store on disk or in process memory. */
class Checkpointer
{
  public:
    /** Sentinel dir meaning "in-process memory only, no disk". */
    static constexpr const char *kMemoryOnly = ":memory:";

    /**
     * @param dir  on-disk store directory ("" or ":memory:" keeps
     *             checkpoints in process memory only).  Created on
     *             first save if missing — including parents, so a
     *             nested --checkpoint-dir a/b/c works.
     */
    explicit Checkpointer(std::string dir = "");

    /** Builds the snapshot for a key nobody has computed yet. */
    using Factory = std::function<std::shared_ptr<const Snapshot>()>;

    /**
     * Return the snapshot for @p key, sourcing in order from process
     * memory, the disk store, or @p make.  Concurrent callers for one
     * key block until the first finishes and then find what it
     * published, so @p make runs once per key per store.  A made
     * snapshot is written to the directory when there is one; memory
     * keeps it only when there is no directory or the write failed,
     * and never keeps a loaded one.  So on a disk-backed store every
     * acquire after the first is a disk hit.
     *
     * @param created  set true iff @p make ran in this call — the
     *                 caller's own simulator already holds the warm
     *                 state and must not restore.
     */
    std::shared_ptr<const Snapshot> acquire(const std::string &key,
                                            const Factory &make,
                                            bool *created = nullptr);

    /** Snapshot file path for @p key ("" when memory-only). */
    std::string pathFor(const std::string &key) const;

    const std::string &dir() const { return dir_; }
    bool onDisk() const { return !dir_.empty(); }

    std::uint64_t memoryHits() const;
    std::uint64_t diskHits() const;
    std::uint64_t computes() const;
    std::uint64_t diskBytesWritten() const;
    std::uint64_t diskBytesRead() const;
    /** Persist attempts that failed (disk full, permissions, ...). */
    std::uint64_t persistFailures() const;

    /** One-line store summary for end-of-session reporting. */
    std::string summaryLine() const;

  private:
    struct Entry
    {
        std::mutex mutex;  ///< per-key compute-once
        /** The snapshot while memory is its only copy, else null. */
        std::shared_ptr<const Snapshot> snap;
        /** Acquires of this key under way; guarded by mutex_. */
        std::size_t inFlight = 0;
    };

    /**
     * acquire()'s lookup, under @p entry's key lock: memory, then the
     * disk store, then @p make.
     */
    std::shared_ptr<const Snapshot> fetch(const std::string &key,
                                          Entry &entry,
                                          const Factory &make,
                                          bool *created);

    /** Write @p snap to the store; false if it could not. */
    bool persist(const std::shared_ptr<const Snapshot> &snap,
                 const std::string &key);

    std::string dir_;  ///< "" = memory only
    mutable std::mutex mutex_;
    /** Keys with an acquire under way or a snapshot in memory. */
    std::map<std::string, std::shared_ptr<Entry>> entries_;
    std::uint64_t memoryHits_ = 0;
    std::uint64_t diskHits_ = 0;
    std::uint64_t computes_ = 0;
    std::uint64_t diskBytesWritten_ = 0;
    std::uint64_t diskBytesRead_ = 0;
    std::uint64_t persistFailures_ = 0;
    bool persistFailureWarned_ = false;  ///< warn once per session
};

} // namespace flywheel

#endif // FLYWHEEL_SNAPSHOT_CHECKPOINTER_HH
