#include "mem/hierarchy.hh"

#include "obs/stats_registry.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

MemoryHierarchy::MemoryHierarchy(Arena &arena,
                                 const HierarchyParams &params)
    : params_(params),
      icache_(arena, params.icache),
      dcache_(arena, params.dcache),
      l2_(arena, params.l2)
{}

MemLevel
MemoryHierarchy::fetch(Addr pc)
{
    if (icache_.access(pc, false))
        return MemLevel::L1;
    if (l2_.access(pc, false))
        return MemLevel::L2;
    ++memAccesses_;
    return MemLevel::Memory;
}

MemLevel
MemoryHierarchy::data(Addr addr, bool is_write)
{
    if (dcache_.access(addr, is_write))
        return MemLevel::L1;
    if (l2_.access(addr, is_write))
        return MemLevel::L2;
    ++memAccesses_;
    return MemLevel::Memory;
}

void
MemoryHierarchy::save(BinWriter &w) const
{
    icache_.save(w);
    dcache_.save(w);
    l2_.save(w);
    w.u64(memAccesses_.value());
}

void
MemoryHierarchy::restore(BinReader &r)
{
    icache_.restore(r);
    dcache_.restore(r);
    l2_.restore(r);
    memAccesses_.set(r.u64());
}

void
MemoryHierarchy::registerStats(obs::StatsRegistry &registry,
                               const std::string &prefix) const
{
    icache_.registerStats(registry.group(prefix + ".icache"));
    dcache_.registerStats(registry.group(prefix + ".dcache"));
    l2_.registerStats(registry.group(prefix + ".l2"));
    registry.group(prefix + ".mem").counter("accesses", memAccesses_);
}

} // namespace flywheel
