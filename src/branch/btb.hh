/**
 * @file
 * Branch Target Buffer: a small set-associative cache of taken-branch
 * targets.  A predicted-taken branch that misses in the BTB cannot
 * redirect fetch until decode, costing a fetch bubble.
 */

#ifndef FLYWHEEL_BRANCH_BTB_HH
#define FLYWHEEL_BRANCH_BTB_HH

#include <cstdint>
#include <optional>

#include "common/arena.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace flywheel {

namespace obs { class StatsGroup; }
class BinWriter;
class BinReader;

/** BTB geometry. */
struct BtbParams
{
    unsigned entries = 512;
    unsigned assoc = 4;
};

/** Branch target buffer. */
class Btb
{
  public:
    explicit Btb(Arena &arena, const BtbParams &params = {});

    /** Target of the branch at @p pc, if cached. */
    std::optional<Addr> lookup(Addr pc) const;

    /** Install/refresh the target for the branch at @p pc. */
    void update(Addr pc, Addr target);

    /** Register lookup/hit counters with the obs registry. */
    void registerStats(obs::StatsGroup &group) const;

    /** Serialize each set's recency order and entries, and counters. */
    void save(BinWriter &w) const;
    /** Restore state saved by save() (geometry must match). */
    void restore(BinReader &r);

  private:
    struct Entry
    {
        Addr pc = 0;
        Addr target = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    BtbParams params_;    // lint: nosnapshot(construction-time config)
    unsigned numSets_;    // lint: nosnapshot(derived from params)
    mutable ArenaVector<Entry> entries_;  ///< lookup refreshes LRU
    mutable std::uint64_t useClock_ = 0;  // lint: nosnapshot(restore sets it above the saved recency ranks)

    mutable Counter lookups_;
    mutable Counter hits_;
};

} // namespace flywheel

#endif // FLYWHEEL_BRANCH_BTB_HH
