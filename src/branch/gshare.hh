/**
 * @file
 * G-share conditional branch direction predictor (Table 2: 12 bits of
 * global history, 2048 two-bit counters).  The simulator is
 * trace-driven with fetch stalling on a mispredict, so the global
 * history register only ever sees correct-path outcomes; pattern
 * table counters are updated at retire time, as in the paper
 * (predictor updates travel from Retire to Fetch).
 */

#ifndef FLYWHEEL_BRANCH_GSHARE_HH
#define FLYWHEEL_BRANCH_GSHARE_HH

#include <cstdint>

#include "common/arena.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace flywheel {

namespace obs { class StatsGroup; }
class BinWriter;
class BinReader;

/** Configuration of the direction predictor. */
struct GshareParams
{
    unsigned historyBits = 12;
    unsigned tableEntries = 2048;  ///< 2-bit saturating counters
};

/** G-share direction predictor. */
class Gshare
{
  public:
    explicit Gshare(Arena &arena, const GshareParams &params = {});

    /** Predict direction for the conditional branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Record the architectural outcome into the global history
     * (called at prediction time on the correct path).
     */
    void pushHistory(bool taken);

    /**
     * Train the pattern table for the branch at @p pc with the
     * history that was live when it was predicted.
     */
    void update(Addr pc, std::uint16_t history_at_predict, bool taken);

    /** Current global history (captured at predict, used at update). */
    std::uint16_t history() const { return history_; }

    std::uint64_t lookups() const { return lookups_.value(); }

    /** Register lookup/update counters with the obs registry. */
    void registerStats(obs::StatsGroup &group) const;

    /**
     * Serialize the history register, the pattern table (four
     * counters per byte) and the lookup and update counts.
     */
    void save(BinWriter &w) const;
    /** Restore state saved by save() (geometry must match). */
    void restore(BinReader &r);

  private:
    std::uint32_t index(Addr pc, std::uint16_t history) const;

    GshareParams params_;       // lint: nosnapshot(construction-time config)
    std::uint16_t historyMask_; // lint: nosnapshot(derived from params)
    std::uint32_t tableMask_;   // lint: nosnapshot(derived from params)
    std::uint16_t history_ = 0;
    ArenaVector<std::uint8_t> table_;  ///< 2-bit counters

    mutable Counter lookups_;
    Counter updates_;
};

} // namespace flywheel

#endif // FLYWHEEL_BRANCH_GSHARE_HH
