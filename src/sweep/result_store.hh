/**
 * @file
 * The result store: finished simulation runs keyed by configuration.
 * A RunConfig is reduced to a canonical key string naming every field
 * that can influence the simulation outcome (workload profile knobs,
 * core parameters, clocks, technology node, run lengths); the store
 * maps that key to the finished RunResult.  Repeating a sweep — or
 * enlarging one axis of it — then re-simulates only the new points.
 *
 * Without a directory the store is a thread-safe in-memory map.  With
 * one, each key is a file, `result-<fnv1a64(key)>.json`, published
 * with unique-temp + rename (common/atomic_file.hh) as soon as the
 * cell finishes and read on every lookup; memory keeps only a result
 * whose write failed.  Any number of threads and processes — local
 * sweeps, distributed-service workers on other machines — can share
 * one directory without tearing each other's files.  The file records
 * the complete key beside the result, so a digest collision, a foreign
 * or malformed file, or one written with an older field set reads as
 * a miss, never as a wrong result.
 *
 * The same store backs a local Session (`--cache DIR`) and the
 * distributed sweep service (`<store>/results`), so a served grid is
 * a local cache and vice versa.
 */

#ifndef FLYWHEEL_SWEEP_RESULT_STORE_HH
#define FLYWHEEL_SWEEP_RESULT_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/sim_driver.hh"

namespace flywheel {

/**
 * Canonical key for @p config: a "field=value;" list covering every
 * simulation-relevant field.  Two configs produce the same key iff
 * runSim() is guaranteed to produce the same result for both.
 */
std::string configKey(const RunConfig &config);

/** FNV-1a 64-bit hash, used for compact key digests in files/exports. */
std::uint64_t fnv1a64(const std::string &s);

/**
 * @p h as 16 lower-case hex digits: the one spelling of a 64-bit
 * digest in file names, exports, job ids and dumps (a 64-bit hash
 * does not fit a JSON double exactly).
 */
std::string hexDigest(std::uint64_t h);

/**
 * Result-file format tag: bump it when RunResult serialization
 * changes, so files from the old field set read as misses.
 */
inline constexpr const char *kResultSchema = "flywheel.serve.result.v1";

class ResultStore
{
  public:
    /** Store over result files in @p dir; "" keeps results in memory. */
    explicit ResultStore(std::string dir = "");

    /** True when saved results are also published to files. */
    bool persistent() const { return !dir_.empty(); }

    /** Result-file path for @p key. */
    std::string pathFor(const std::string &key) const;

    /**
     * True and *out filled if @p key is in memory or has a valid
     * result file; a file read is not kept in memory.
     */
    bool lookup(const std::string &key, RunResult *out);

    /**
     * Publish @p result's file under @p key.  False when the file
     * cannot be written: the first such failure warns, and the store
     * keeps the result in memory (as it keeps all without a directory).
     */
    bool save(const std::string &key, const RunResult &result);

    std::uint64_t hits() const;
    std::uint64_t misses() const;

  private:
    bool readFile(const std::string &key, RunResult *out) const;

    std::string dir_;
    mutable std::mutex mutex_;  // guards every member below
    std::unordered_map<std::string, RunResult> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    bool warned_ = false;
};

} // namespace flywheel

#endif // FLYWHEEL_SWEEP_RESULT_STORE_HH
