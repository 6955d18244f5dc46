#include "core/rename_map.hh"

#include "common/log.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

RenameMap::RenameMap(Arena &arena, unsigned phys_regs)
    : map_(arena), freeList_(arena)
{
    FW_ASSERT(phys_regs > kNumArchRegs,
              "need more physical than architected registers");
    map_.resize(kNumArchRegs);
    freeList_.reserve(phys_regs - kNumArchRegs);
    for (unsigned i = 0; i < kNumArchRegs; ++i)
        map_[i] = static_cast<PhysReg>(i);
    for (unsigned i = kNumArchRegs; i < phys_regs; ++i)
        freeList_.push_back(static_cast<PhysReg>(i));
}

std::pair<PhysReg, PhysReg>
RenameMap::allocate(ArchReg arch_reg)
{
    FW_ASSERT(!freeList_.empty(), "allocate() without hasFree() check");
    PhysReg fresh = freeList_.back();
    freeList_.pop_back();
    PhysReg old = map_[arch_reg];
    map_[arch_reg] = fresh;
    return {fresh, old};
}

void
RenameMap::release(PhysReg phys_reg)
{
    freeList_.push_back(phys_reg);
}

void
RenameMap::save(BinWriter &w) const
{
    // The free list is a LIFO stack: its exact order decides which
    // physical register the next allocation hands out, so it is
    // preserved element for element.
    w.podArray(map_.data(), map_.size());
    w.podArray(freeList_.data(), freeList_.size());
}

void
RenameMap::restore(BinReader &r)
{
    r.podArray(map_.data(), map_.size());
    r.podVec(freeList_);
}

} // namespace flywheel
