#include "core/issue_window.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/stats_registry.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

IssueWindow::IssueWindow(Arena &arena, unsigned entries,
                         const ArenaVector<Tick> &reg_ready,
                         unsigned phys_regs)
    : order_(arena),
      regReady_(reg_ready),
      waitHead_(arena),
      waitNext_(arena),
      visQueue_(arena, entries),
      timed_(arena),
      readyBits_(arena),
      loadBits_(arena),
      capacity_(entries)
{
    const std::size_t slots = static_cast<std::size_t>(entries) * 2;
    order_.reserve(slots);
    waitHead_.assign(phys_regs, kNoSlot);
    waitNext_.assign(slots, kNoSlot);
    timed_.reserve(entries);
    readyBits_.assign((slots + 63) / 64, 0);
    loadBits_.assign((slots + 63) / 64, 0);
}

void
IssueWindow::insert(InFlightInst *inst)
{
    FW_ASSERT(used_ < capacity_, "issue window overflow");
    FW_ASSERT(inst->arch.seq > lastSeq_,
              "issue window inserts must be age-ordered");
    lastSeq_ = inst->arch.seq;
    if (order_.size() == order_.capacity())
        compact();
    const auto slot = static_cast<std::uint32_t>(order_.size());
    inst->iwPos = slot;
    order_.push_back(inst);
    inst->inIw = true;
    ++used_;
    setLoadBit(slot);
    schedule(slot);
}

void
IssueWindow::remove(InFlightInst *inst)
{
    const std::uint32_t slot = inst->iwPos;
    const std::uint64_t bit = std::uint64_t(1) << (slot % 64);
    FW_ASSERT(inst->inIw && slot < order_.size() &&
                  order_[slot] == inst,
              "removing instruction not in the window");
    FW_ASSERT(readyBits_[slot / 64] & bit,
              "removing an instruction that is not ready");
    readyBits_[slot / 64] &= ~bit;
    order_[slot] = nullptr;
    inst->inIw = false;
    --used_;
    // Only ready entries leave, so an empty window has no waiters and
    // no timed entries: the slots can restart from zero.
    if (used_ == 0)
        order_.clear();
}

void
IssueWindow::setLoadBit(std::uint32_t slot)
{
    const std::uint64_t bit = std::uint64_t(1) << (slot % 64);
    if (order_[slot]->isLoad())
        loadBits_[slot / 64] |= bit;
    else
        loadBits_[slot / 64] &= ~bit;
}

void
IssueWindow::schedule(std::uint32_t slot)
{
    const InFlightInst *p = order_[slot];
    Tick at = p->iwVisible;
    for (const PhysReg src : {p->src1Phys, p->src2Phys}) {
        if (src == kNoPhysReg)
            continue;
        const Tick t = regReady_[src];
        if (t == kTickMax) {
            // Producer not issued yet: wait for its wake().
            waitNext_[slot] = waitHead_[src];
            waitHead_[src] = slot;
            return;
        }
        at = std::max(at, t);
    }
    if (at <= now_) {
        markReady(slot);
        return;
    }
    if (at == p->iwVisible &&
        (visQueue_.empty() || visQueue_.back().at <= at)) {
        visQueue_.push_back({at, slot});
        return;
    }
    timed_.push_back({at, slot});
    std::push_heap(timed_.begin(), timed_.end(), Later());
}

void
IssueWindow::wakeWaiters(PhysReg reg)
{
    std::uint32_t slot = waitHead_[reg];
    waitHead_[reg] = kNoSlot;
    while (slot != kNoSlot) {
        // schedule() may relink the entry onto its other source.
        const std::uint32_t next = waitNext_[slot];
        schedule(slot);
        slot = next;
    }
}

void
IssueWindow::promote()
{
    while (!visQueue_.empty() && visQueue_.front().at <= now_) {
        const std::uint32_t slot = visQueue_.front().slot;
        visQueue_.pop_front();
        markReady(slot);
    }
    while (!timed_.empty() && timed_.front().at <= now_) {
        const std::uint32_t slot = timed_.front().slot;
        std::pop_heap(timed_.begin(), timed_.end(), Later());
        timed_.pop_back();
        markReady(slot);
    }
}

void
IssueWindow::compact()
{
    std::size_t live = 0;
    for (std::size_t i = 0; i < order_.size(); ++i) {
        if (order_[i] == nullptr)
            continue;
        order_[i]->iwPos = static_cast<std::uint32_t>(live);
        order_[live] = order_[i];
        ++live;
    }
    order_.resize(live);
    rebuild();
}

void
IssueWindow::rebuild()
{
    std::fill(waitHead_.begin(), waitHead_.end(), kNoSlot);
    std::fill(readyBits_.begin(), readyBits_.end(), 0);
    visQueue_.clear();
    timed_.clear();
    for (std::size_t i = 0; i < order_.size(); ++i) {
        if (order_[i] == nullptr)
            continue;
        setLoadBit(static_cast<std::uint32_t>(i));
        schedule(static_cast<std::uint32_t>(i));
    }
}

void
IssueWindow::save(BinWriter &w,
                  const std::function<std::uint64_t(const InFlightInst *)>
                      &index_of) const
{
    // Tombstones are kept (as 0; an entry is 1 + its ROB index) so
    // the restored array matches slot for slot: every entry's
    // recorded iwPos remains valid without re-deriving anything.  The
    // wake-up state is derived and is not serialized.
    w.uvar(order_.size());
    for (const InFlightInst *p : order_)
        w.uvar(p == nullptr ? 0 : index_of(p) + 1);
    w.uvar(lastSeq_);
}

void
IssueWindow::restore(BinReader &r,
                     const std::function<InFlightInst *(std::uint64_t)>
                         &at)
{
    order_.clear();
    used_ = 0;
    const std::uint64_t slots = r.uvar();
    FW_ASSERT(slots <= order_.capacity(),
              "issue-window snapshot has too many slots");
    for (std::uint64_t i = 0; i < slots; ++i) {
        const std::uint64_t entry = r.uvar();
        if (entry == 0) {
            order_.push_back(nullptr);
            continue;
        }
        InFlightInst *p = at(entry - 1);
        FW_ASSERT(p != nullptr && p->inIw &&
                      p->iwPos == order_.size(),
                  "issue-window snapshot inconsistent with the ROB");
        order_.push_back(p);
        ++used_;
    }
    FW_ASSERT(used_ <= capacity_, "issue-window snapshot overflows");
    lastSeq_ = r.uvar();
    now_ = 0;
    rebuild();
}

void
IssueWindow::registerStats(obs::StatsGroup &group) const
{
    group.formula("occupancy", [this] { return double(used_); });
    group.formula("capacity", [this] { return double(capacity_); });
}

} // namespace flywheel
