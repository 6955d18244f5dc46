/**
 * @file
 * Warmup checkpoint engine.  A Checkpointer maps a checkpoint key —
 * the canonical description of everything that shapes post-warmup
 * simulator state: benchmark profile knobs, the behaviour-affecting
 * CoreParams subset, the core kind and the warmup length — to a
 * saved Snapshot, so the detailed warmup is paid once per distinct
 * key instead of once per run.
 *
 * Two storage tiers compose:
 *  - an in-process, thread-safe memory cache with per-key
 *    compute-once semantics: when a sweep launches many grid cells
 *    with the same key concurrently, exactly one worker simulates the
 *    warmup and every other worker blocks briefly and then restores;
 *  - an optional on-disk store (one content-hashed snapshot file per
 *    key under a directory, alongside the ResultCache in spirit), so
 *    later processes reuse checkpoints across invocations.
 *
 * Keys canonicalize away everything that provably cannot influence
 * warm state: the energy-model tech node and gating flag, the
 * measurement length, the snapshot policy itself — and, for the
 * baseline core, the Flywheel-only parameters and the FE/BE clock
 * plan it never reads.  See checkpointKey().
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

namespace obs { class StatsGroup; }

struct RunConfig;

/**
 * Canonical checkpoint key for the post-warmup state of @p config.
 * Two configs share a key iff their warmed-up simulator state is
 * guaranteed to be identical.
 */
std::string checkpointKey(const RunConfig &config);

/** Thread-safe two-tier (memory + optional disk) checkpoint store. */
class Checkpointer
{
  public:
    /** Sentinel dir meaning "in-process memory only, no disk". */
    static constexpr const char *kMemoryOnly = ":memory:";

    /** Store lifecycle knobs beyond the directory itself. */
    struct Options
    {
        /**
         * Size cap for the on-disk store in bytes (0 = unlimited).
         * After every persist the store is pruned oldest-first
         * (mtime LRU) until it fits; pruned files count as evictions
         * and re-warm on next use.
         */
        std::uint64_t capBytes = 0;
    };

    /**
     * @param dir  on-disk store directory ("" or ":memory:" keeps
     *             checkpoints in process memory only).  Created on
     *             first save if missing — including parents, so a
     *             nested --checkpoint-dir a/b/c works.
     */
    explicit Checkpointer(std::string dir = "");
    Checkpointer(std::string dir, Options options);

    /**
     * Delete checkpoint files under @p dir, oldest mtime first, until
     * the store holds at most @p cap_bytes (0 = remove every
     * checkpoint file).  Non-checkpoint files are never touched.
     * @return the number of files removed.
     */
    static std::size_t pruneStore(const std::string &dir,
                                  std::uint64_t cap_bytes,
                                  std::uint64_t *bytes_removed = nullptr);

    /**
     * Strict parse of a decimal megabyte count ("512") into bytes —
     * the FLYWHEEL_CHECKPOINT_CAP_MB / --checkpoint-cap-mb value.
     * Same discipline as FLYWHEEL_JOBS: digits only, no sign, no
     * trailing text, no overflow.  0 is accepted (= uncapped).
     */
    static bool parseCapMegabytes(const char *text,
                                  std::uint64_t *out_bytes);

    /** Builds the snapshot for a key nobody has computed yet. */
    using Factory = std::function<std::shared_ptr<const Snapshot>()>;

    /**
     * Return the snapshot for @p key, sourcing in order from process
     * memory, the disk store, or @p make — which runs at most once
     * per key per process (concurrent callers for the same key block
     * until the first one finishes).  A freshly made snapshot is
     * published to memory and, when a directory is configured,
     * written to disk.
     *
     * @param refresh  skip memory/disk and recompute (save-after-
     *                 warmup semantics: refresh a stale store).
     * @param created  set true iff @p make ran in this call — the
     *                 caller's own simulator already holds the warm
     *                 state and must not restore.
     */
    std::shared_ptr<const Snapshot> acquire(const std::string &key,
                                            const Factory &make,
                                            bool refresh = false,
                                            bool *created = nullptr);

    /** Snapshot file path for @p key ("" when memory-only). */
    std::string pathFor(const std::string &key) const;

    const std::string &dir() const { return dir_; }
    bool onDisk() const { return !dir_.empty(); }

    std::uint64_t memoryHits() const;
    std::uint64_t diskHits() const;
    std::uint64_t computes() const;
    /**
     * Refresh recomputes that replaced an already-published snapshot,
     * plus on-disk files pruned by the size cap.
     */
    std::uint64_t evictions() const;
    std::uint64_t diskBytesWritten() const;
    std::uint64_t diskBytesRead() const;
    /** Persist attempts that failed (disk full, permissions, ...). */
    std::uint64_t persistFailures() const;

    /** Register the store's counters with @p group (live values). */
    void registerStats(obs::StatsGroup &group) const;

    /** One-line store summary for end-of-session reporting. */
    std::string summaryLine() const;

  private:
    struct Entry
    {
        std::mutex mutex;                      ///< per-key compute-once
        std::shared_ptr<const Snapshot> snap;  ///< null until computed
    };

    void persist(const std::shared_ptr<const Snapshot> &snap,
                 const std::string &key);

    std::string dir_;  ///< "" = memory only
    Options options_;
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<Entry>> entries_;
    std::uint64_t memoryHits_ = 0;
    std::uint64_t diskHits_ = 0;
    std::uint64_t computes_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t diskBytesWritten_ = 0;
    std::uint64_t diskBytesRead_ = 0;
    std::uint64_t persistFailures_ = 0;
    bool persistFailureWarned_ = false;  ///< warn once per session
};

} // namespace flywheel

#endif // FLYWHEEL_SNAPSHOT_CHECKPOINTER_HH
