/**
 * @file
 * Two-phase, pool-based register renaming (paper Sections 3.4/3.5).
 *
 * Every architected register owns a private pool of physical entries
 * used as a circular buffer: a write always allocates the next entry
 * of its own pool, so false dependencies disappear without a global
 * free list — which is what allows trace replays from the Execution
 * Cache to regenerate physical register addresses without the
 * original program order (Register Rename assigns logical ids, the
 * Register Update stage remaps them through the Remapping Table).
 *
 * The timing-relevant behaviour modelled here:
 *  - a pool of size S admits at most S-1 in-flight writes to its
 *    architected register (one entry always holds the committed
 *    value); Rename/Update stalls otherwise;
 *  - dynamic pool redistribution [12]: stall/write counters are
 *    examined periodically and pool sizes are re-proportioned, which
 *    invalidates the Execution Cache and costs a fixed stall.
 *
 * Physical register indices returned by allocate() index the core's
 * readiness scoreboard, so wake-up and bypass work unchanged.
 */

#ifndef FLYWHEEL_FLYWHEEL_POOL_RENAME_HH
#define FLYWHEEL_FLYWHEEL_POOL_RENAME_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "common/types.hh"

namespace flywheel {

namespace obs { class StatsGroup; }
class BinWriter;
class BinReader;

/** Per-architected-register circular rename pools. */
class PoolRenameUnit
{
  public:
    /**
     * @param phys_regs total physical entries (paper: 512)
     * @param min_pool  smallest pool size after redistribution
     */
    PoolRenameUnit(Arena &arena, unsigned phys_regs, unsigned min_pool);

    /** True if a write to @p r can be renamed now. */
    bool canAllocate(ArchReg r) const;

    /**
     * Allocate the next pool entry of @p r.
     * @param prev_slot_out receives the rollback cursor.
     * @return physical index for the readiness scoreboard.
     */
    PhysReg allocate(ArchReg r, std::uint16_t &prev_slot_out);

    /** Retire the oldest in-flight write to @p r. */
    void release(ArchReg r);

    /** Undo the youngest allocation for @p r (trace squash). */
    void rollback(ArchReg r, std::uint16_t prev_slot);

    /** Physical entry holding the newest (possibly in-flight) value. */
    PhysReg current(ArchReg r) const;

    /** Record a Rename/Update stall caused by @p r's pool. */
    void noteStall(ArchReg r);

    /** In-flight writes to @p r. */
    unsigned inflight(ArchReg r) const { return pools_[r].inflight; }
    unsigned poolSize(ArchReg r) const { return pools_[r].size; }

    /** Total stalls recorded since the last redistribution. */
    std::uint64_t stallsSinceCheck() const { return stallsSinceCheck_; }

    /**
     * Re-proportion pool sizes from the write/stall counters
     * (requires an empty pipeline: no in-flight writes).
     * @return true if any pool size changed (EC must be invalidated).
     */
    bool redistribute();

    /** Number of architected registers whose pool exceeds @p n. */
    unsigned poolsLargerThan(unsigned n) const;

    /** Start a fresh observation window without redistributing. */
    void resetWindow();

    /** Register aggregate write/stall counts with the obs registry. */
    void registerStats(obs::StatsGroup &group) const;

    /** Serialize every pool's layout, cursors and counters. */
    void save(BinWriter &w) const;
    /** Restore state saved by save() (total size must match). */
    void restore(BinReader &r);

  private:
    struct Pool
    {
        std::uint32_t base = 0;
        std::uint32_t size = 0;
        std::uint16_t lastSlot = 0;   ///< newest allocation cursor
        std::uint32_t inflight = 0;   ///< unretired writes
        std::uint64_t writes = 0;
        std::uint64_t stalls = 0;
    };

    void layoutPools(const std::vector<std::uint32_t> &sizes);

    unsigned physRegs_;  // lint: nosnapshot(geometry checked by restore, not mutated)
    unsigned minPool_;   // lint: nosnapshot(construction-time config)
    ArenaVector<Pool> pools_;
    std::uint64_t stallsSinceCheck_ = 0;
};

} // namespace flywheel

#endif // FLYWHEEL_FLYWHEEL_POOL_RENAME_HH
