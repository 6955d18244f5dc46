/**
 * @file
 * Instruction model for the simulated RISC-like ISA.  This plays the
 * role SimpleScalar's PISA plays in the paper's infrastructure: a
 * fixed-width load/store ISA with 32 integer and 32 floating point
 * architected registers and at most two sources / one destination per
 * instruction.
 */

#ifndef FLYWHEEL_ISA_INSTRUCTION_HH
#define FLYWHEEL_ISA_INSTRUCTION_HH

#include <string>

#include "common/types.hh"

namespace flywheel {

/**
 * Functional classes of instructions; each maps onto one functional
 * unit kind and an execution latency (see core/functional_units.hh).
 */
enum class OpClass : std::uint8_t
{
    IntAlu,   ///< single-cycle integer op (also branch condition eval)
    IntMul,   ///< pipelined integer multiply
    IntDiv,   ///< unpipelined integer divide
    FpAdd,    ///< floating point add/sub/cmp
    FpMul,    ///< floating point multiply
    FpDiv,    ///< unpipelined floating point divide / sqrt
    Load,     ///< memory read through a memory port
    Store,    ///< memory write through a memory port
    Branch,   ///< control transfer (conditional or unconditional)
    Nop,      ///< no-op (fills alignment holes)
};

/** Human-readable mnemonic for an OpClass. */
const char *opClassName(OpClass op);

/** True for Load/Store classes. */
inline bool
isMemOp(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store;
}

/** True for the floating point classes. */
inline bool
isFpOp(OpClass op)
{
    return op == OpClass::FpAdd || op == OpClass::FpMul ||
           op == OpClass::FpDiv;
}

/**
 * One dynamic instruction as produced by the workload generator.
 * This is the *architectural* record: program counter, operation,
 * register names, resolved branch behaviour and effective address.
 * Microarchitectural state (renamed registers, timestamps, ROB/IW
 * slots) lives in the cores' in-flight records, not here.
 */
struct DynInst
{
    InstSeqNum seq = 0;       ///< dynamic sequence number (1-based)
    Addr pc = 0;              ///< address of this instruction
    OpClass op = OpClass::Nop;

    ArchReg dest = kNoArchReg; ///< destination register or kNoArchReg
    ArchReg src1 = kNoArchReg; ///< first source or kNoArchReg
    ArchReg src2 = kNoArchReg; ///< second source or kNoArchReg

    bool isCondBranch = false; ///< conditional control transfer
    bool taken = false;        ///< actual outcome (branches only)
    Addr target = 0;           ///< actual next PC for taken branches

    Addr effAddr = 0;          ///< effective address (mem ops only)

    /** Architecturally correct next program counter. */
    Addr
    nextPc() const
    {
        if (op == OpClass::Branch && taken)
            return target;
        return pc + kInstBytes;
    }

    bool isBranch() const { return op == OpClass::Branch; }
    bool isLoad() const { return op == OpClass::Load; }
    bool isStore() const { return op == OpClass::Store; }
    bool hasDest() const { return dest != kNoArchReg; }

    /** Number of register sources actually used. */
    unsigned
    numSrcs() const
    {
        return (src1 != kNoArchReg ? 1u : 0u) +
               (src2 != kNoArchReg ? 1u : 0u);
    }

    /** Debug string: "pc=0x.. op=LD r3 <- r1, r2". */
    std::string toString() const;
};

} // namespace flywheel

#endif // FLYWHEEL_ISA_INSTRUCTION_HH
