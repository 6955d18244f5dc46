#include "flywheel/exec_cache.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/stats_registry.hh"
#include "snapshot/bincodec.hh"
#include "workload/program.hh"

namespace flywheel {

ExecCache::ExecCache(unsigned total_blocks, unsigned block_slots,
                     unsigned ta_entries)
    : totalBlocks_(total_blocks), blockSlots_(block_slots),
      taEntries_(ta_entries)
{
    FW_ASSERT(block_slots >= 1, "blocks must hold at least one slot");
    FW_ASSERT(total_blocks >= 2, "DA too small");
}

Trace *
ExecCache::lookup(Addr pc)
{
    auto it = traces_.find(pc);
    if (it == traces_.end())
        return nullptr;
    it->second.lastUse = ++useClock_;
    return it->second.trace.get();
}

Trace *
ExecCache::find(Addr pc)
{
    auto it = traces_.find(pc);
    return it == traces_.end() ? nullptr : it->second.trace.get();
}

bool
ExecCache::contains(Addr pc) const
{
    return traces_.count(pc) != 0;
}

bool
ExecCache::isPinned(Addr pc) const
{
    for (Addr p : pinned_) {
        if (p == pc)
            return true;
    }
    return false;
}

void
ExecCache::unpin(Addr pc)
{
    for (auto it = pinned_.begin(); it != pinned_.end(); ++it) {
        if (*it == pc) {
            pinned_.erase(it);
            return;
        }
    }
}

bool
ExecCache::evictLru()
{
    auto victim = traces_.end();
    // lint: detorder(min over unique lastUse stamps; order-independent)
    for (auto it = traces_.begin(); it != traces_.end(); ++it) {
        if (isPinned(it->first))
            continue;
        if (victim == traces_.end() ||
            it->second.lastUse < victim->second.lastUse) {
            victim = it;
        }
    }
    if (victim == traces_.end())
        return false;
    usedBlocks_ -= victim->second.trace->numBlocks(blockSlots_);
    traces_.erase(victim);
    ++evictions_;
    return true;
}

bool
ExecCache::insert(std::unique_ptr<Trace> trace)
{
    const std::uint32_t blocks = trace->numBlocks(blockSlots_);
    if (blocks > totalBlocks_)
        return false;

    auto existing = traces_.find(trace->startPc);
    if (existing != traces_.end()) {
        if (isPinned(trace->startPc))
            return false;  // never replace a live trace mid-replay
        usedBlocks_ -= existing->second.trace->numBlocks(blockSlots_);
        traces_.erase(existing);
    }

    while (usedBlocks_ + blocks > totalBlocks_ ||
           traces_.size() >= taEntries_) {
        if (!evictLru())
            return false;  // everything resident is pinned
    }

    usedBlocks_ += blocks;
    Addr pc = trace->startPc;
    traces_[pc] = Entry{std::move(trace), ++useClock_};
    return true;
}

void
ExecCache::erase(Addr pc)
{
    FW_ASSERT(!isPinned(pc), "erasing a pinned trace");
    auto it = traces_.find(pc);
    if (it == traces_.end())
        return;
    usedBlocks_ -= it->second.trace->numBlocks(blockSlots_);
    traces_.erase(it);
}

void
ExecCache::invalidateAll()
{
    traces_.clear();
    usedBlocks_ = 0;
}

std::vector<Addr>
ExecCache::tracePcs() const
{
    std::vector<Addr> pcs;
    pcs.reserve(traces_.size());
    for (const auto &e : traces_)  // lint: detorder(sorted below)
        pcs.push_back(e.first);
    std::sort(pcs.begin(), pcs.end());
    return pcs;
}

namespace {

/** Fewest bytes a slot takes: PC delta and rank. */
constexpr std::size_t kMinSlotBytes = 2;
/** Fewest bytes a trace takes: start delta, slot and unit counts, rank. */
constexpr std::size_t kMinTraceBytes = 4;

/**
 * The program's instruction at @p pc as a slot (rank and address 0);
 * @p block is the decodeAt() hint of the trace's previous slot.
 */
TraceSlot
programSlot(const StaticProgram &program, Addr pc, std::size_t *block)
{
    DynInst d;
    FW_ASSERT(program.decodeAt(pc, &d, block),
              "trace slot at pc 0x%llx is not an instruction of "
              "program %s",
              (unsigned long long)pc, program.profile().name);
    TraceSlot s;
    s.pc = pc;
    s.op = d.op;
    s.dest = d.dest;
    s.src1 = d.src1;
    s.src2 = d.src2;
    s.isCondBranch = d.isCondBranch;
    return s;
}

} // namespace

void
Trace::indexRanks()
{
    rankToSlot.assign(slots.size(), 0);
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        FW_ASSERT(slots[i].rank < rankToSlot.size(),
                  "trace rank out of range");
        rankToSlot[slots[i].rank] = i;
    }
}

void
traceBodyToBin(BinWriter &w, const StaticProgram &program, Addr start_pc,
               const std::vector<TraceSlot> &slots,
               const std::vector<IssueUnit> &units)
{
    // A builder records only correct-path instructions, so a slot's
    // op, registers and conditional flag are the program's at its PC.
    // Neighbouring slots sit a few instructions apart, their ranks
    // near their issue positions and their addresses near the last
    // memory slot's, so each stored field is a small delta.
    w.uvar(slots.size());
    Addr pc = start_pc;
    Addr eff_addr = 0;
    std::size_t block = 0;
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        const TraceSlot &s = slots[i];
        const TraceSlot p = programSlot(program, s.pc, &block);
        FW_ASSERT(p.op == s.op && p.dest == s.dest && p.src1 == s.src1 &&
                      p.src2 == s.src2 && p.isCondBranch == s.isCondBranch,
                  "trace slot at pc 0x%llx differs from the program",
                  (unsigned long long)s.pc);
        w.svar(instDelta(s.pc, pc));
        pc = s.pc;
        w.svar(std::int64_t(s.rank) - std::int64_t(i));
        if (isMemOp(s.op)) {
            w.svar(static_cast<std::int64_t>(s.recordedEffAddr - eff_addr));
            eff_addr = s.recordedEffAddr;
        } else {
            FW_ASSERT(s.recordedEffAddr == 0,
                      "non-memory trace slot carries an address");
        }
    }
    // Units are contiguous runs of slots (a builder starts each at
    // its slot count), so their counts say everything.
    w.uvar(units.size());
    std::uint32_t next = 0;
    for (const IssueUnit &u : units) {
        FW_ASSERT(u.firstSlot == next, "issue units are not contiguous");
        w.uvar(u.count);
        next += u.count;
    }
    FW_ASSERT(next == slots.size(), "issue units do not cover the slots");
}

void
traceBodyFromBin(BinReader &r, const StaticProgram &program,
                 Addr start_pc, std::vector<TraceSlot> *slots,
                 std::vector<IssueUnit> *units)
{
    const std::uint64_t count = r.uvarCount(kMinSlotBytes);
    slots->clear();
    slots->reserve(static_cast<std::size_t>(count));
    Addr pc = start_pc;
    Addr eff_addr = 0;
    std::size_t block = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        pc = plusInsts(pc, r.svar());
        TraceSlot s = programSlot(program, pc, &block);
        s.rank = static_cast<std::uint32_t>(
            i + static_cast<std::uint64_t>(r.svar()));
        if (isMemOp(s.op))
            s.recordedEffAddr = eff_addr += static_cast<Addr>(r.svar());
        slots->push_back(s);
    }
    const std::uint64_t unit_count = r.uvarCount(1);
    units->clear();
    units->reserve(static_cast<std::size_t>(unit_count));
    std::uint64_t next = 0;
    for (std::uint64_t i = 0; i < unit_count; ++i) {
        const std::uint64_t n = r.uvar();
        FW_ASSERT(n <= count - next,
                  "trace snapshot issue units overrun the slots");
        units->push_back(IssueUnit{static_cast<std::uint32_t>(next),
                                   static_cast<std::uint32_t>(n)});
        next += n;
    }
    FW_ASSERT(next == count,
              "trace snapshot issue units cover %llu of %llu slots",
              (unsigned long long)next, (unsigned long long)count);
}

void
ExecCache::save(BinWriter &w, const StaticProgram &program) const
{
    // Traces in ascending start-PC order (deterministic regardless of
    // hash-map iteration order), each start a delta from the last.
    // Eviction compares lastUse stamps only with each other, so each
    // trace carries its recency rank over all traces (1 = LRU).
    std::vector<std::uint64_t> stamps;
    stamps.reserve(traces_.size());
    for (const auto &e : traces_)  // lint: detorder(sorted below)
        stamps.push_back(e.second.lastUse);
    std::sort(stamps.begin(), stamps.end());

    w.uvar(traces_.size());
    Addr prev = 0;
    for (Addr pc : tracePcs()) {
        const Entry &e = traces_.at(pc);
        w.svar(instDelta(pc, prev));
        prev = pc;
        traceBodyToBin(w, program, pc, e.trace->slots, e.trace->units);
        w.uvar(1 + (std::lower_bound(stamps.begin(), stamps.end(),
                                     e.lastUse) -
                    stamps.begin()));
    }
    w.podArray(pinned_.data(), pinned_.size());
    w.u32(usedBlocks_);
    w.u64(evictions_.value());
}

void
ExecCache::restore(BinReader &r, const StaticProgram &program)
{
    traces_.clear();
    usedBlocks_ = 0;
    const std::uint64_t count = r.uvarCount(kMinTraceBytes);
    std::vector<bool> ranked(count + 1, false);
    Addr pc = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        pc = plusInsts(pc, r.svar());
        auto t = std::make_unique<Trace>();
        t->startPc = pc;
        traceBodyFromBin(r, program, pc, &t->slots, &t->units);
        t->indexRanks();
        const std::uint64_t rank = r.uvar();
        FW_ASSERT(rank >= 1 && rank <= count && !ranked[rank],
                  "Execution Cache snapshot ranks are not a recency "
                  "order");
        ranked[rank] = true;
        usedBlocks_ += t->numBlocks(blockSlots_);
        FW_ASSERT(traces_.count(pc) == 0,
                  "duplicate trace in Execution Cache snapshot");
        traces_[pc] = Entry{std::move(t), rank};
    }
    // Every later use stamps above every restored rank.
    useClock_ = count;
    r.podVec(pinned_);
    const std::uint32_t stored_used = r.u32();
    FW_ASSERT(usedBlocks_ == stored_used &&
                  usedBlocks_ <= totalBlocks_ &&
                  traces_.size() <= taEntries_,
              "Execution Cache snapshot exceeds configured capacity");
    evictions_.set(r.u64());
}

void
ExecCache::registerStats(obs::StatsGroup &group) const
{
    group.counter("evictions", evictions_);
    group.formula("usedBlocks", [this] { return double(usedBlocks_); });
    group.formula("totalBlocks",
                  [this] { return double(totalBlocks_); });
    group.formula("traceCount",
                  [this] { return double(traces_.size()); });
}

} // namespace flywheel
