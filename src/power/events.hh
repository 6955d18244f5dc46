/**
 * @file
 * Activity event counters incremented by the cores and consumed by
 * the energy model (Wattch-style architectural power accounting: the
 * simulator counts structure accesses, the model assigns per-access
 * energies).
 */

#ifndef FLYWHEEL_POWER_EVENTS_HH
#define FLYWHEEL_POWER_EVENTS_HH

#include <cstdint>

#include "common/types.hh"

namespace flywheel {

/** All per-structure activity counts plus active-time accounting. */
struct EnergyEvents
{
    // Front-end.
    std::uint64_t icacheAccesses = 0;   ///< fetch group reads
    std::uint64_t bpredLookups = 0;     ///< gshare reads
    std::uint64_t btbLookups = 0;
    std::uint64_t decodedOps = 0;
    std::uint64_t renameOps = 0;        ///< map table read+write per inst
    std::uint64_t dispatchOps = 0;      ///< IW + ROB insertion per inst

    // Issue window.
    std::uint64_t iwBroadcasts = 0;     ///< dest tag CAM broadcasts
    std::uint64_t iwIssues = 0;         ///< selected instructions
    std::uint64_t ratAccesses = 0;      ///< availability table accesses

    // Execution.
    std::uint64_t rfReads = 0;
    std::uint64_t rfWrites = 0;
    std::uint64_t aluOps = 0;
    std::uint64_t mulOps = 0;           ///< integer mul+div
    std::uint64_t fpOps = 0;            ///< all FP operations
    std::uint64_t resultBusOps = 0;

    // Memory system.
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t lsqOps = 0;           ///< searches + inserts

    // Reorder buffer.
    std::uint64_t robOps = 0;           ///< inserts + retires

    // Flywheel-only structures.
    std::uint64_t ecTaLookups = 0;
    std::uint64_t ecDaReads = 0;        ///< block reads
    std::uint64_t ecDaWrites = 0;       ///< block writes
    std::uint64_t fillBufferOps = 0;    ///< issue-unit transfers
    std::uint64_t updateOps = 0;        ///< Register Update RT/SRT accesses
    std::uint64_t checkpointOps = 0;    ///< FRT->RT / SRT swaps

    // Active-time accounting for clock grids and leakage.
    Tick totalTicks = 0;       ///< simulated wall-clock duration (ps)
    Tick feActiveTicks = 0;    ///< wall-clock time the front-end is live
    std::uint64_t feCycles = 0;    ///< FE-domain cycles actually clocked
    std::uint64_t beCycles = 0;    ///< BE-domain cycles actually clocked
    std::uint64_t iwActiveCycles = 0; ///< BE cycles with the IW clocked

    /** Element-wise difference (for warm-up window subtraction). */
    EnergyEvents operator-(const EnergyEvents &o) const;
};

inline EnergyEvents
EnergyEvents::operator-(const EnergyEvents &o) const
{
    EnergyEvents d;
    d.icacheAccesses = icacheAccesses - o.icacheAccesses;
    d.bpredLookups = bpredLookups - o.bpredLookups;
    d.btbLookups = btbLookups - o.btbLookups;
    d.decodedOps = decodedOps - o.decodedOps;
    d.renameOps = renameOps - o.renameOps;
    d.dispatchOps = dispatchOps - o.dispatchOps;
    d.iwBroadcasts = iwBroadcasts - o.iwBroadcasts;
    d.iwIssues = iwIssues - o.iwIssues;
    d.ratAccesses = ratAccesses - o.ratAccesses;
    d.rfReads = rfReads - o.rfReads;
    d.rfWrites = rfWrites - o.rfWrites;
    d.aluOps = aluOps - o.aluOps;
    d.mulOps = mulOps - o.mulOps;
    d.fpOps = fpOps - o.fpOps;
    d.resultBusOps = resultBusOps - o.resultBusOps;
    d.dcacheAccesses = dcacheAccesses - o.dcacheAccesses;
    d.l2Accesses = l2Accesses - o.l2Accesses;
    d.memAccesses = memAccesses - o.memAccesses;
    d.lsqOps = lsqOps - o.lsqOps;
    d.robOps = robOps - o.robOps;
    d.ecTaLookups = ecTaLookups - o.ecTaLookups;
    d.ecDaReads = ecDaReads - o.ecDaReads;
    d.ecDaWrites = ecDaWrites - o.ecDaWrites;
    d.fillBufferOps = fillBufferOps - o.fillBufferOps;
    d.updateOps = updateOps - o.updateOps;
    d.checkpointOps = checkpointOps - o.checkpointOps;
    d.totalTicks = totalTicks - o.totalTicks;
    d.feActiveTicks = feActiveTicks - o.feActiveTicks;
    d.feCycles = feCycles - o.feCycles;
    d.beCycles = beCycles - o.beCycles;
    d.iwActiveCycles = iwActiveCycles - o.iwActiveCycles;
    return d;
}

} // namespace flywheel

#endif // FLYWHEEL_POWER_EVENTS_HH
