/**
 * @file
 * Three-level memory hierarchy (Table 2 of the paper): split 64K L1
 * caches, a unified 512K L2 and a flat main memory.  The hierarchy
 * reports *which level* served an access; the core converts that into
 * cycles, because L1/L2 latencies are clocked in the accessing
 * domain's cycles while main memory latency is fixed wall-clock time
 * ("scaled accordingly when clock speed is increased", Table 2).
 */

#ifndef FLYWHEEL_MEM_HIERARCHY_HH
#define FLYWHEEL_MEM_HIERARCHY_HH

#include <cstdint>

#include "common/stats.hh"
#include "mem/cache.hh"

namespace flywheel {

namespace obs { class StatsRegistry; }

/** Which level of the hierarchy served an access. */
enum class MemLevel : std::uint8_t { L1, L2, Memory };

/** Parameters for the full hierarchy (defaults = paper Table 2). */
struct HierarchyParams
{
    CacheParams icache{"icache", 64 * 1024, 2, 32, 2, 1};
    CacheParams dcache{"dcache", 64 * 1024, 4, 32, 2, 2};
    CacheParams l2{"l2", 512 * 1024, 4, 64, 10, 1};
    std::uint32_t l2Cycles = 10;       ///< L2 hit time (accessor cycles)
    std::uint32_t memBaselineCycles = 100; ///< memory time in baseline cycles
};

/**
 * The cache hierarchy.  Instruction fetches go through the I-cache,
 * loads/stores through the D-cache; both miss into the shared L2.
 */
class MemoryHierarchy
{
  public:
    /** @param arena owns all three levels' line arrays. */
    MemoryHierarchy(Arena &arena, const HierarchyParams &params);

    /** Instruction fetch of the line containing @p pc. */
    MemLevel fetch(Addr pc);

    /** Data access at @p addr. */
    MemLevel data(Addr addr, bool is_write);

    const HierarchyParams &params() const { return params_; }
    const Cache &icache() const { return icache_; }
    const Cache &dcache() const { return dcache_; }
    const Cache &l2() const { return l2_; }

    std::uint64_t memAccesses() const { return memAccesses_.value(); }

    /**
     * Register all three cache levels plus the memory access counter
     * as "<prefix>.icache" / ".dcache" / ".l2" / ".mem" groups.
     */
    void registerStats(obs::StatsRegistry &registry,
                       const std::string &prefix) const;

    /** Serialize all three cache arrays plus the memory counter. */
    void save(BinWriter &w) const;
    /** Restore state saved by save(). */
    void restore(BinReader &r);

  private:
    HierarchyParams params_;  // lint: nosnapshot(construction-time config)
    Cache icache_;
    Cache dcache_;
    Cache l2_;
    Counter memAccesses_;
};

} // namespace flywheel

#endif // FLYWHEEL_MEM_HIERARCHY_HH
