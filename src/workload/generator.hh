/**
 * @file
 * Deterministic interpreter that turns a StaticProgram into a dynamic
 * instruction stream (the simulator's "oracle" correct path).  All
 * cores are trace-driven from this stream: fetch consumes it, and the
 * Flywheel's Execution Cache replay is validated against it.
 */

#ifndef FLYWHEEL_WORKLOAD_GENERATOR_HH
#define FLYWHEEL_WORKLOAD_GENERATOR_HH

#include <cstdint>

#include "common/arena.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "workload/program.hh"

namespace flywheel {

/**
 * Pull-based dynamic instruction stream.  next() returns the next
 * architecturally executed instruction; the stream is infinite (the
 * program cycles through its regions forever) and fully deterministic
 * for a given program and seed.
 *
 * peek(k) provides bounded lookahead without consuming, which the
 * Flywheel core uses to validate Execution Cache traces against the
 * correct path (see flywheel/flywheel_core.cc).
 */
class WorkloadStream
{
  public:
    /** @param program static program to interpret.
     *  @param seed    seed for dynamic behaviour (branch outcomes,
     *                 trip counts, random addresses). */
    explicit WorkloadStream(const StaticProgram &program,
                            std::uint64_t seed = 0xfeedULL);

    /** Consume and return the next correct-path instruction. */
    const DynInst &
    next()
    {
        if (head_ == lookahead_.size())
            produce();
        current_ = lookahead_[head_++];
        recycleLookahead();
        ++consumed_;
        return current_;
    }

    /**
     * Look ahead k instructions (k=0 is what next() would return).
     *
     * The returned reference is only valid until the next peek() or
     * next() call: the lookahead buffer is a recycling vector, so any
     * later production or consumption may grow, shift or clear it.
     * Copy the fields you need (every current caller reads .pc/.seq
     * immediately) instead of holding the reference.
     */
    const DynInst &
    peek(std::size_t k = 0)
    {
        while (lookahead_.size() - head_ <= k)
            produce();
        return lookahead_[head_ + k];
    }

    /** Instructions consumed so far. */
    std::uint64_t consumed() const { return consumed_; }

    /**
     * Fast-forward: consume @p n instructions without simulating them
     * (the stream's raw generation cost, with no core attached).  The
     * stream advances exactly as if next() had been called n times.
     */
    void skip(std::uint64_t n);

    /**
     * Serialize the complete dynamic stream state (RNG, control-flow
     * cursors, pending lookahead) into @p w.
     */
    void save(BinWriter &w) const;

    /**
     * Restore state saved by save().  The stream must have been
     * constructed over an identical program (same profile knobs and
     * seed); a mismatch is a panic, not a silent divergence.
     */
    void restore(BinReader &r);

    const StaticProgram &program() const { return prog_; }

  private:
    /** Generate one more instruction into the lookahead buffer. */
    void produce();

    /**
     * Reclaim consumed lookahead slots.  The buffer drains completely
     * between fetch groups in the common case, so the cheap
     * reset-to-zero covers almost every call; the erase path only
     * triggers under very deep replay validation lookahead.
     */
    void
    recycleLookahead()
    {
        if (head_ == lookahead_.size()) {
            lookahead_.clear();
            head_ = 0;
        } else if (head_ >= 4096) {
            lookahead_.eraseFront(head_);
            head_ = 0;
        }
    }

    const StaticProgram &prog_;
    Pcg32 rng_;

    std::uint32_t curBlock_;
    std::uint32_t opIdx_ = 0;

    /**
     * The stream owns its arena (streams are constructed standalone
     * in tests/benches and per measurement window, not only inside a
     * core): the cursor tables and lookahead become contiguous
     * trivially-copyable buffers the snapshot codec can bulk-copy.
     */
    Arena arena_;  // lint: nosnapshot(backing store; contents saved via the buffers)

    /** Remaining trips for each Loop terminator (by block id);
     *  0 means "not currently armed". */
    ArenaVector<std::uint32_t> tripsLeft_{arena_};

    /** Stable per-loop base trip count (drawn on first activation).
     *  Real loops have largely stable trip counts, which is what
     *  makes their exit branches learnable by a g-share predictor;
     *  occasional re-draws model data-dependent variation. */
    ArenaVector<std::uint32_t> baseTrips_{arena_};

    /** Strided cursor per data object. */
    ArenaVector<std::uint32_t> cursors_{arena_};

    /** Lookahead buffer; [head_, size) are the pending instructions. */
    ArenaVector<DynInst> lookahead_{arena_};
    std::size_t head_ = 0;
    DynInst current_;
    std::uint64_t consumed_ = 0;
    InstSeqNum nextSeq_ = 1;
};

} // namespace flywheel

#endif // FLYWHEEL_WORKLOAD_GENERATOR_HH
