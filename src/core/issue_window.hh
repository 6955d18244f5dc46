/**
 * @file
 * The Issue Window: a monolithic scheduling window in the style of
 * the MIPS R10000 issue queue [6].  Entries are written at Dispatch
 * and become visible to the Wake-Up/Select logic at a per-entry tick
 * — one cycle later in the synchronous baseline, or after the
 * synchronization latency of the Dual Clock Issue Window when the
 * front-end runs in its own domain (Section 3.2).
 *
 * Wake-up is event-driven, as in the paper's tag broadcast.  The
 * core's physical-register scoreboard holds kTickMax for a register
 * whose producer has not issued yet, and the tick its value can be
 * bypassed once it has (no wake-up is ever lost, exactly the
 * behaviour the paper's two-cycle duplicated tag match guarantees,
 * Fig 5).  An entry therefore sits in one of three places:
 *
 *  - on the wait list of one source register that is still unknown
 *    (at most one at a time: the first unknown source in order);
 *  - timed, once every source is known, until its ready tick: the
 *    latest of its visibility and both operands;
 *  - in the ready set once that tick has passed.
 *
 * When a producer issues, the core writes its scoreboard entry and
 * calls wake(), which moves each waiter onto its other unknown source
 * or into the timed set.  Select walks only the ready set.
 *
 * This relies on one invariant: while a window entry reads a
 * register, the register's scoreboard entry only moves from kTickMax
 * to a finite tick (through issue), so a computed ready tick never
 * changes.  Writers that reset the scoreboard run with an empty
 * window.
 *
 * Layout: dispatch inserts in program order (sequence numbers are
 * globally monotonic — replays bypass the window entirely), so
 * entries are kept in an age-ordered array with tombstones for
 * selected entries, and the ready set is a bitmap over its slots: a
 * walk in slot order is oldest-first with no per-cycle sort.  A
 * second bitmap marks the slots holding loads, so select can pass
 * over them once loads are blocked.  Tombstones are compacted once
 * they fill the array.  Slot positions are part of the snapshot; the
 * wait lists, the timed set and the bitmaps are derived from the
 * entries and the scoreboard and are rebuilt after restore() and
 * compaction.
 */

#ifndef FLYWHEEL_CORE_ISSUE_WINDOW_HH
#define FLYWHEEL_CORE_ISSUE_WINDOW_HH

#include <cstdint>
#include <functional>

#include "common/arena.hh"
#include "common/types.hh"
#include "core/inflight.hh"

namespace flywheel {

namespace obs { class StatsGroup; }
class BinWriter;
class BinReader;

/** Monolithic issue window holding pointers to ROB-resident state. */
class IssueWindow
{
  public:
    /**
     * @p reg_ready is the core's scoreboard of @p phys_regs entries;
     * the window only reads it.
     */
    IssueWindow(Arena &arena, unsigned entries,
                const ArenaVector<Tick> &reg_ready, unsigned phys_regs);

    bool full() const { return used_ >= capacity_; }
    bool empty() const { return used_ == 0; }
    unsigned occupancy() const { return used_; }
    unsigned capacity() const { return capacity_; }

    /**
     * Insert at Dispatch, after renaming; visibility is recorded in
     * the inst.
     */
    void insert(InFlightInst *inst);

    /** Remove @p inst after it has been selected (it must be ready). */
    void remove(InFlightInst *inst);

    /**
     * The scoreboard entry of @p reg has just become known (its
     * producer issued): re-examine every entry waiting on it.
     */
    void
    wake(PhysReg reg)
    {
        if (waitHead_[reg] != kNoSlot)
            wakeWaiters(reg);
    }

    /**
     * Oldest entry that is ready at @p now — visible, both operands
     * available — after moving every entry whose ready tick has
     * passed into the ready set; nullptr if none.  @p now must not
     * decrease from one call to the next (restore() resets it).
     */
    InFlightInst *
    firstReady(Tick now)
    {
        now_ = now;
        if ((!visQueue_.empty() && visQueue_.front().at <= now) ||
            (!timed_.empty() && timed_.front().at <= now))
            promote();
        return readyFrom(0, false);
    }

    /**
     * Next-younger ready entry after @p after, which may have been
     * removed since; with @p skip_loads, ready loads are passed over.
     * Entries woken ready at the current tick in the meantime are
     * included, as a live scan would see them.
     */
    InFlightInst *
    nextReady(const InFlightInst *after, bool skip_loads) const
    {
        return readyFrom(std::size_t(after->iwPos) + 1, skip_loads);
    }

    /**
     * Serialize the window (simulator snapshots).  The window stores
     * ROB pointers, so @p index_of maps each live entry to its ROB
     * index; tombstone positions are preserved exactly (each entry's
     * recorded iwPos stays valid).
     */
    void save(BinWriter &w,
              const std::function<std::uint64_t(const InFlightInst *)>
                  &index_of) const;

    /**
     * Restore state saved by save(); @p at resolves ROB indices.  The
     * scoreboard must already hold its restored values.
     */
    void restore(BinReader &r,
                 const std::function<InFlightInst *(std::uint64_t)> &at);

    /** Register occupancy/capacity gauges with the obs registry. */
    void registerStats(obs::StatsGroup &group) const;

  private:
    /** A known future ready tick of the entry at a slot. */
    struct Timed
    {
        Tick at;
        std::uint32_t slot;
    };
    /** Heap order for timed_: the earliest ready tick on top. */
    struct Later
    {
        bool
        operator()(const Timed &a, const Timed &b) const
        {
            return a.at > b.at;
        }
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    void compact();
    /** Re-derive the wait lists, timed set and bitmaps from the entries. */
    void rebuild();
    /** Place the entry at @p slot on a wait list, timed or ready. */
    void schedule(std::uint32_t slot);
    void wakeWaiters(PhysReg reg);
    /** Move every timed entry due by now_ into the ready set. */
    void promote();
    void setLoadBit(std::uint32_t slot);

    void
    markReady(std::uint32_t slot)
    {
        readyBits_[slot / 64] |= std::uint64_t(1) << (slot % 64);
    }

    /** Oldest ready entry at or after @p slot. */
    InFlightInst *
    readyFrom(std::size_t slot, bool skip_loads) const
    {
        // order_ is age-ordered by construction, so a walk in slot
        // order is already oldest-first.
        const std::size_t words = (order_.size() + 63) / 64;
        for (std::size_t w = slot / 64; w < words; ++w) {
            std::uint64_t bits = readyBits_[w];
            if (skip_loads)
                bits &= ~loadBits_[w];
            if (w == slot / 64)
                bits &= ~std::uint64_t(0) << (slot % 64);
            if (bits != 0)
                return order_[w * 64 + unsigned(__builtin_ctzll(bits))];
        }
        return nullptr;
    }

    /** Live entries in age order, nullptr = tombstone. */
    ArenaVector<InFlightInst *> order_;
    // lint: nosnapshot(the core's scoreboard, saved by the core)
    const ArenaVector<Tick> &regReady_;
    // lint: nosnapshot(derived; rebuilt by restore and compaction)
    ArenaVector<std::uint32_t> waitHead_;  ///< per register: first waiter
    // lint: nosnapshot(derived; rebuilt by restore and compaction)
    ArenaVector<std::uint32_t> waitNext_;  ///< per slot: next waiter
    /**
     * The timed set.  Entries bound by visibility alone, the common
     * case, arrive in tick order and queue in visQueue_; every other
     * timed entry goes to the min-heap timed_.
     */
    // lint: nosnapshot(derived; rebuilt by restore and compaction)
    ArenaRing<Timed> visQueue_;
    // lint: nosnapshot(derived; rebuilt by restore and compaction)
    ArenaVector<Timed> timed_;
    // lint: nosnapshot(derived; rebuilt by restore and compaction)
    ArenaVector<std::uint64_t> readyBits_;  ///< per slot: ready
    // lint: nosnapshot(derived; rebuilt by restore and compaction)
    ArenaVector<std::uint64_t> loadBits_;  ///< per slot: holds a load
    Tick now_ = 0;  // lint: nosnapshot(last select tick; restore resets it)
    unsigned capacity_;  // lint: nosnapshot(geometry checked by restore, not mutated)
    unsigned used_ = 0;  // lint: nosnapshot(recounted from entries in restore)
    InstSeqNum lastSeq_ = 0;   ///< insertion-order guard
};

} // namespace flywheel

#endif // FLYWHEEL_CORE_ISSUE_WINDOW_HH
