/**
 * @file
 * Latency-oriented set-associative cache model with LRU replacement,
 * as used by SimpleScalar-class simulators: the cache tracks tags
 * only (the simulator is trace-driven, data values are not modelled)
 * and reports hit/miss so the core can charge the right latency and
 * the power model can count array accesses.
 */

#ifndef FLYWHEEL_MEM_CACHE_HH
#define FLYWHEEL_MEM_CACHE_HH

#include <cstdint>
#include <string>

#include "common/arena.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace flywheel {

namespace obs { class StatsGroup; }
class BinWriter;
class BinReader;

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 32;
    std::uint32_t hitCycles = 2;   ///< pipelined access time
    std::uint32_t ports = 1;       ///< simultaneous accesses per cycle
};

/**
 * Set-associative LRU cache.  access() performs a lookup and, on a
 * miss, allocates the line (write-allocate for stores).
 */
class Cache
{
  public:
    /** @param arena owns the line array for the cache's lifetime. */
    Cache(Arena &arena, const CacheParams &params);

    /** Look up @p addr; allocate on miss. @return true on hit. */
    bool access(Addr addr, bool is_write);

    /** Look up without allocating or updating LRU (probe). */
    bool probe(Addr addr) const;

    /** Invalidate all lines (e.g. after register redistribution
     *  invalidates the Execution Cache). */
    void invalidateAll();

    const CacheParams &params() const { return params_; }

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    double
    missRate() const
    {
        return accesses() ? double(misses()) / double(accesses()) : 0.0;
    }

    /** Register live counters and miss rate with the obs registry. */
    void registerStats(obs::StatsGroup &group) const;

    /**
     * Serialize the array state: per set the ways' recency order and
     * the valid ways' tags, then the counters.
     */
    void save(BinWriter &w) const;
    /** Restore state saved by save() (geometry must match). */
    void restore(BinReader &r);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> lineShift_) & setMask_;
    }

    Addr tagOf(Addr addr) const { return addr >> tagShift_; }

    CacheParams params_;     // lint: nosnapshot(geometry checked by restore, not mutated)
    std::uint32_t numSets_;  // lint: nosnapshot(derived from params)
    // Line size and set count are asserted powers of two, so the
    // index/tag split is pure shift/mask (this is fetch-path code:
    // one lookup per simulated fetch group and data access).
    unsigned lineShift_ = 0;     // lint: nosnapshot(derived from params)
    unsigned tagShift_ = 0;      // lint: nosnapshot(derived from params)
    std::uint32_t setMask_ = 0;  // lint: nosnapshot(derived from params)
    ArenaVector<Line> lines_;  ///< numSets_ x assoc, row-major
    std::uint64_t useClock_ = 0;  // lint: nosnapshot(restore sets it above the saved recency ranks)

    Counter accesses_;
    Counter misses_;
    Counter writes_;
};

} // namespace flywheel

#endif // FLYWHEEL_MEM_CACHE_HH
