/**
 * @file
 * Synthetic static program model.  The paper evaluates on SPEC95 /
 * SPEC2000 binaries run under a SimpleScalar-derived simulator; we do
 * not have those binaries, so each benchmark is modelled as a
 * synthetic *static program* — a control flow graph of basic blocks
 * organized into regions, loop nests and diamonds, with a fixed
 * register dataflow assigned at build time — that a deterministic
 * interpreter (workload/generator.hh) turns into a dynamic
 * instruction stream.
 *
 * Because the dataflow, code footprint and branch structure are fixed
 * per benchmark profile, the properties the paper's evaluation
 * depends on are first-class, controllable parameters: instruction
 * level parallelism (dependency distances), branch predictability
 * (loop trip counts and branch bias), trace locality (static code
 * footprint vs. Execution Cache capacity) and rename-pool pressure
 * (destination register working set size).
 *
 * An instruction's static fields (op, registers, conditional flag,
 * branch target) are a function of its PC in the program
 * (StaticProgram::decodeAt), so checkpoints store only the dynamic
 * fields of the instructions they hold (InstRecordCodec).
 */

#ifndef FLYWHEEL_WORKLOAD_PROGRAM_HH
#define FLYWHEEL_WORKLOAD_PROGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace flywheel {

/** One non-branch instruction slot of a basic block. */
struct StaticOp
{
    OpClass op = OpClass::IntAlu;
    ArchReg dest = kNoArchReg;
    ArchReg src1 = kNoArchReg;
    ArchReg src2 = kNoArchReg;
    std::uint16_t memObj = 0;  ///< data object index (mem ops)
    std::uint16_t stride = 0;  ///< access stride in bytes (mem ops)
};

/** Dynamic behaviour class of a block-terminating branch. */
enum class TermKind : std::uint8_t
{
    None,    ///< block falls through without a branch instruction
    Jump,    ///< unconditional, always taken
    Loop,    ///< backward conditional; taken trip-1 times per entry
    Biased,  ///< forward conditional taken with fixed probability
    Call,    ///< rarely-taken far transfer into another region
};

/** Block terminator description. */
struct Terminator
{
    TermKind kind = TermKind::None;
    std::uint32_t target = 0;   ///< taken-path block id
    double pTaken = 0.0;        ///< Biased/Call taken probability
    double tripMean = 0.0;      ///< Loop mean trip count
    ArchReg condSrc = kNoArchReg; ///< register read by the branch
};

/** A basic block: straight-line ops plus an optional terminator. */
struct BasicBlock
{
    Addr pc = 0;                    ///< address of the first op
    std::vector<StaticOp> ops;      ///< non-branch instructions
    Terminator term;                ///< control transfer out
    std::uint32_t fallthrough = 0;  ///< not-taken successor block id

    /** Total instructions including the terminator branch. */
    unsigned
    size() const
    {
        return static_cast<unsigned>(ops.size()) +
               (term.kind != TermKind::None ? 1u : 0u);
    }

    /** Address of the terminator branch (valid if kind != None). */
    Addr branchPc() const { return pc + ops.size() * kInstBytes; }
};

/** A data object accessed by the program's loads and stores. */
struct DataObject
{
    Addr base = 0;
    std::uint32_t size = 0;  ///< bytes
};

/**
 * Tunable knobs describing one benchmark.  See
 * workload/profiles.hh for the ten calibrated SPEC stand-ins.
 */
struct BenchProfile
{
    const char *name = "custom";
    std::uint64_t seed = 1;

    unsigned staticBlocks = 300;   ///< code footprint in basic blocks
    double avgBlockSize = 6.0;     ///< mean non-branch ops per block
    unsigned regions = 4;          ///< code regions cycled through

    double loadFrac = 0.24;        ///< fraction of ops that are loads
    double storeFrac = 0.10;       ///< fraction of ops that are stores
    double fpFrac = 0.0;           ///< fraction of ops that are FP
    double mulFrac = 0.03;         ///< fraction of int ops that multiply
    double divFrac = 0.004;        ///< fraction of int ops that divide

    double avgDepDist = 3.0;       ///< mean distance to source producer
    double diamondFrac = 0.35;     ///< blocks ending in a biased branch
    double branchBias = 0.85;      ///< taken bias of biased branches
    double loopTripMean = 12.0;    ///< mean loop trip count
    double callProb = 0.02;        ///< per-block chance of a Call branch

    unsigned regWorkingSet = 16;   ///< distinct dest registers per region
    unsigned dataFootprintKB = 1024; ///< total data touched
    double memRandomFrac = 0.15;   ///< random (vs. strided) accesses
};

/**
 * The built static program: blocks, data objects and entry point.
 * Construction is fully deterministic given the profile.
 */
class StaticProgram
{
  public:
    /** Build a synthetic program from @p profile. */
    explicit StaticProgram(const BenchProfile &profile);

    const BenchProfile &profile() const { return profile_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    const std::vector<DataObject> &objects() const { return objects_; }
    std::uint32_t entryBlock() const { return entry_; }

    /**
     * Fill @p out's static fields (op, registers, conditional flag
     * and branch target) from instruction @p idx of @p blk, where
     * idx == blk.ops.size() is the terminator branch.  The stream and
     * decodeAt() both read instructions through it.
     */
    void
    staticFields(const BasicBlock &blk, std::size_t idx,
                 DynInst *out) const
    {
        if (idx < blk.ops.size()) {
            const StaticOp &sop = blk.ops[idx];
            out->op = sop.op;
            out->dest = sop.dest;
            out->src1 = sop.src1;
            out->src2 = sop.src2;
            out->isCondBranch = false;
            out->target = 0;
            return;
        }
        out->op = OpClass::Branch;
        out->dest = kNoArchReg;
        out->src1 = blk.term.condSrc;
        out->src2 = kNoArchReg;
        out->isCondBranch = blk.term.kind != TermKind::Jump;
        out->target = blocks_[blk.term.target].pc;
    }

    /**
     * The static fields of the instruction at @p pc (staticFields()),
     * or false when @p pc is not an instruction of the program: below
     * codeBase(), past the last block, or misaligned.  Blocks lie in
     * id order from codeBase(), so a binary search finds the block.
     * A decoder walking a list passes @p block, the index of the block
     * that held its previous PC: it is tried before the search, and
     * on success holds the block of @p pc.
     */
    bool decodeAt(Addr pc, DynInst *out, std::size_t *block = nullptr) const;

    /** Base address of the code segment. */
    static constexpr Addr codeBase() { return 0x1000; }
    /** Base address of the data segment. */
    static constexpr Addr dataBase() { return 0x10000000; }

  private:
    void build();
    void assignAddresses();

    BenchProfile profile_;
    std::vector<BasicBlock> blocks_;
    std::vector<DataObject> objects_;
    std::uint32_t entry_ = 0;
};

class BinWriter;
class BinReader;

/**
 * Snapshot codec for one list of DynInst records (the ROB, the
 * front-end queue, the stream's lookahead, a replay's correct path):
 * a record keeps only what the program cannot re-derive.  Each is one
 * flags byte (taken; static fields match the program), its sequence
 * number and PC as svar deltas from the list's previous record, and
 * for loads and stores its address as an svar delta from the
 * previous memory record's.  A record whose static fields differ
 * from the program at its PC (a wrong-path replay entry carries
 * target 0 and may have dropped its destination) writes them in
 * full.  One codec object encodes or decodes one list, in order.
 */
class InstRecordCodec
{
  public:
    /** Fewest bytes a record takes: flags, sequence and PC deltas. */
    static constexpr std::size_t kMinBytes = 3;

    explicit InstRecordCodec(const StaticProgram &program)
        : prog_(program)
    {
    }

    void put(BinWriter &w, const DynInst &d);
    DynInst get(BinReader &r);

  private:
    const StaticProgram &prog_;
    InstSeqNum seq_ = 0;
    Addr pc_ = 0;
    Addr addr_ = 0;
    std::size_t block_ = 0;  ///< the last record's block (decodeAt hint)
};

} // namespace flywheel

#endif // FLYWHEEL_WORKLOAD_PROGRAM_HH
