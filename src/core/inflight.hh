/**
 * @file
 * The microarchitectural record of one in-flight instruction: the
 * architectural DynInst plus renamed registers, pipeline timestamps
 * (in picosecond Ticks so multiple clock domains compose) and status
 * flags.  Instances live in the core's reorder buffer; the issue
 * window and LSQ reference them by pointer (the arena-backed ROB
 * ring guarantees element stability under push_back/pop_front/
 * pop_back).
 */

#ifndef FLYWHEEL_CORE_INFLIGHT_HH
#define FLYWHEEL_CORE_INFLIGHT_HH

#include "common/types.hh"
#include "isa/instruction.hh"

namespace flywheel {

/**
 * In-flight instruction state.
 *
 * Field order follows a measured field-access profile: wake-up,
 * select and the completion gate touch iwVisible, src1Phys/src2Phys,
 * iwPos and completeTick millions of times per simulated second, so
 * the scheduling state leads the struct (one cache line), the
 * architectural payload follows, and the rarely-read rollback/branch
 * bookkeeping trails.  Snapshots serialize field by field
 * (inflightToBin), so the order here is free to chase the profile.
 */
struct InFlightInst
{
    // Hot scheduling state: wake-up, select, completion.
    Tick iwVisible = kTickMax; ///< visible to Wake-Up/Select (sync)
    Tick completeTick = kTickMax;  ///< result write / branch resolve
    bool issued = false;
    bool completed = false;
    bool squashed = false;    ///< wrong-path trace replay slot
    bool inIw = false;
    std::uint32_t iwPos = 0;  ///< slot in the window's age array

    // Renamed registers: indices into the physical readiness array.
    PhysReg destPhys = kNoPhysReg;
    PhysReg src1Phys = kNoPhysReg;
    PhysReg src2Phys = kNoPhysReg;

    DynInst arch;

    // Warm but not per-cycle: dispatch and issue bookkeeping.
    Tick dispatchReady = 0;   ///< earliest dispatch (front-end depth)
    Tick issueTick = kTickMax;

    // Cold tail: rollback and branch/trace bookkeeping.
    PhysReg oldDestPhys = kNoPhysReg;  ///< freed at retire (baseline)
    std::uint16_t poolPrevSlot = 0;    ///< pool rollback (Flywheel)
    bool mispredicted = false;      ///< direction mispredict
    bool predictedTaken = false;
    bool btbMissBubble = false;
    std::uint16_t historyAtPredict = 0;
    bool fromEc = false;      ///< issued on the alternative path
    std::uint32_t traceRank = 0;  ///< program-order rank inside a trace

    bool isLoad() const { return arch.isLoad(); }
    bool isStore() const { return arch.isStore(); }
    bool isMem() const { return isMemOp(arch.op); }
};

} // namespace flywheel

#endif // FLYWHEEL_CORE_INFLIGHT_HH
