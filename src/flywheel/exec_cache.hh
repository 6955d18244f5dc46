/**
 * @file
 * The Execution Cache (paper Section 3.3): a trace store placed
 * *after* the Issue stage that records instructions in issue order,
 * grouped into Issue Units (instructions selected in the same cycle).
 *
 * Structure modelled (Fig 7): an associative Tag Array mapping a
 * trace's start PC to its Data Array location, and a banked,
 * set-associative Data Array holding fixed-size blocks of instruction
 * slots (default eight) with next-set chaining and an end-of-trace
 * marker.  Here the TA is an exact map with an entry-count limit and
 * the DA a block-budget pool with trace-granular LRU replacement:
 * capacity and lookup behaviour (which drive the vortex-style
 * thrashing results) are preserved, while intra-set conflict misses
 * — which the paper's chained-set layout makes rare by construction
 * — are not modelled.  Each slot additionally records its
 * program-order rank inside the trace so replays retire in correct
 * order (an implicit requirement of any real implementation).
 */

#ifndef FLYWHEEL_FLYWHEEL_EXEC_CACHE_HH
#define FLYWHEEL_FLYWHEEL_EXEC_CACHE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace flywheel {

namespace obs { class StatsGroup; }
class BinWriter;
class BinReader;
class StaticProgram;

/**
 * One recorded instruction slot.  Field order follows a measured
 * field-access profile: replay touches pc/rank/op and the register
 * fields on every slot, while recordedEffAddr is only read when a
 * wrong-path slot is synthesized — it trails the struct.
 */
struct TraceSlot
{
    Addr pc = 0;
    std::uint32_t rank = 0;     ///< program order within the trace
    OpClass op = OpClass::Nop;
    ArchReg dest = kNoArchReg;
    ArchReg src1 = kNoArchReg;
    ArchReg src2 = kNoArchReg;
    bool isCondBranch = false;
    Addr recordedEffAddr = 0;   ///< build-time address (mem ops)
};

/** A group of slots issued in the same cycle. */
struct IssueUnit
{
    std::uint32_t firstSlot = 0;
    std::uint32_t count = 0;
};

/** A complete trace as stored in the Execution Cache. */
struct Trace
{
    Addr startPc = 0;
    std::vector<TraceSlot> slots;   ///< issue order
    std::vector<IssueUnit> units;
    std::vector<std::uint32_t> rankToSlot;  ///< rank -> slot index

    std::uint32_t
    numBlocks(unsigned block_slots) const
    {
        return static_cast<std::uint32_t>(
            (slots.size() + block_slots - 1) / block_slots);
    }

    std::uint32_t length() const
    {
        return static_cast<std::uint32_t>(slots.size());
    }

    /** Rebuild rankToSlot from the slots' ranks. */
    void indexRanks();
};

/**
 * Snapshot codec of a trace body, starting at @p start_pc: per slot,
 * its PC as an instruction delta from the previous slot's, its rank
 * as a delta from its slot index, and for loads and stores its
 * address as a delta from the previous memory slot's; then the issue
 * units' slot counts.  A slot's op, registers and conditional flag
 * are the program's at its PC (builders record only correct-path
 * instructions): the writer asserts so and the reader derives them
 * with StaticProgram::decodeAt.  Shared by the Execution Cache and
 * the Flywheel trace builders.  The reader bounds each count by the
 * bytes left before it reserves.
 */
void traceBodyToBin(BinWriter &w, const StaticProgram &program,
                    Addr start_pc, const std::vector<TraceSlot> &slots,
                    const std::vector<IssueUnit> &units);
void traceBodyFromBin(BinReader &r, const StaticProgram &program,
                      Addr start_pc, std::vector<TraceSlot> *slots,
                      std::vector<IssueUnit> *units);

/**
 * Trace store with a block budget (DA capacity) and an entry budget
 * (TA capacity); trace-granular LRU replacement.
 */
class ExecCache
{
  public:
    /**
     * @param total_blocks DA capacity in blocks (128K/64B = 2048)
     * @param block_slots  instruction slots per block (8)
     * @param ta_entries   Tag Array capacity
     */
    ExecCache(unsigned total_blocks, unsigned block_slots,
              unsigned ta_entries);

    /** Search the TA for a trace starting at @p pc (LRU touch). */
    Trace *lookup(Addr pc);

    /**
     * Find without touching the LRU state (snapshot restore rebinds
     * live replay pointers through this; a lookup() here would skew
     * replacement behaviour against an uninterrupted run).
     */
    Trace *find(Addr pc);

    /** True if a trace starting at @p pc exists (no LRU update). */
    bool contains(Addr pc) const;

    /**
     * Store @p trace, evicting least-recently-used traces as needed.
     * A trace with the same start PC is replaced.  Traces larger than
     * the whole DA are rejected.
     * @return true if stored.
     */
    bool insert(std::unique_ptr<Trace> trace);

    /** Drop every trace (register pool redistribution). */
    void invalidateAll();

    /**
     * Pin/unpin the trace starting at @p pc: pinned traces (the one
     * currently replaying and the one queued to replay next) are
     * never chosen as replacement victims.
     */
    void pin(Addr pc) { pinned_.push_back(pc); }
    void unpin(Addr pc);

    /** Drop the trace starting at @p pc (must not be pinned). */
    void erase(Addr pc);

    /**
     * Start PCs of every resident trace, in ascending order (for
     * inspection and fault-injection tests; pair with lookup() to
     * reach the stored traces).
     */
    std::vector<Addr> tracePcs() const;

    unsigned blockSlots() const { return blockSlots_; }
    unsigned usedBlocks() const { return usedBlocks_; }
    unsigned totalBlocks() const { return totalBlocks_; }
    std::size_t traceCount() const { return traces_.size(); }
    std::uint64_t evictions() const { return evictions_.value(); }

    /** Register occupancy gauges and eviction counter. */
    void registerStats(obs::StatsGroup &group) const;

    /**
     * Serialize every resident trace with its recency rank, plus the
     * pin and budget state.  Every slot must be an instruction of
     * @p program, which supplies its static fields on restore.
     */
    void save(BinWriter &w, const StaticProgram &program) const;
    /**
     * Restore state saved by save() (geometry must match) over the
     * same @p program.
     */
    void restore(BinReader &r, const StaticProgram &program);

  private:
    // The trace store stays on the heap (unordered_map of owning
    // pointers): trace insert/evict churn is unbounded over a run,
    // which a lifetime-scoped arena cannot recycle.
    struct Entry
    {
        std::unique_ptr<Trace> trace;
        std::uint64_t lastUse = 0;
    };

    bool isPinned(Addr pc) const;
    /** @return false if every resident trace is pinned. */
    bool evictLru();

    unsigned totalBlocks_;  // lint: nosnapshot(geometry checked by restore, not mutated)
    unsigned blockSlots_;   // lint: nosnapshot(construction-time config)
    unsigned taEntries_;    // lint: nosnapshot(construction-time config)
    unsigned usedBlocks_ = 0;
    std::uint64_t useClock_ = 0;  // lint: nosnapshot(restore sets it above the saved recency ranks)
    std::unordered_map<Addr, Entry> traces_;
    std::vector<Addr> pinned_;
    Counter evictions_;
};

} // namespace flywheel

#endif // FLYWHEEL_FLYWHEEL_EXEC_CACHE_HH
