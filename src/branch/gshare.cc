#include "branch/gshare.hh"

#include "common/log.hh"
#include "obs/stats_registry.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

Gshare::Gshare(Arena &arena, const GshareParams &params)
    : params_(params), table_(arena)
{
    FW_ASSERT(params_.historyBits <= 16, "history register is 16 bits");
    FW_ASSERT((params_.tableEntries & (params_.tableEntries - 1)) == 0,
              "table size must be a power of 2");
    historyMask_ =
        static_cast<std::uint16_t>((1u << params_.historyBits) - 1);
    tableMask_ = params_.tableEntries - 1;
    table_.assign(params_.tableEntries, 2);  // weakly taken
}

std::uint32_t
Gshare::index(Addr pc, std::uint16_t history) const
{
    return (static_cast<std::uint32_t>(pc >> 2) ^ history) & tableMask_;
}

bool
Gshare::predict(Addr pc) const
{
    ++lookups_;
    return table_[index(pc, history_)] >= 2;
}

void
Gshare::pushHistory(bool taken)
{
    history_ = static_cast<std::uint16_t>(((history_ << 1) | (taken ? 1 : 0))
                                          & historyMask_);
}

void
Gshare::update(Addr pc, std::uint16_t history_at_predict, bool taken)
{
    ++updates_;
    std::uint8_t &ctr = table_[index(pc, history_at_predict)];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

void
Gshare::registerStats(obs::StatsGroup &group) const
{
    group.counter("lookups", lookups_);
    group.counter("updates", updates_);
}

void
Gshare::save(BinWriter &w) const
{
    w.u16(history_);
    w.podArray(table_.data(), table_.size());
    w.u64(lookups_.value());
    w.u64(updates_.value());
}

void
Gshare::restore(BinReader &r)
{
    history_ = r.u16();
    r.podArray(table_.data(), table_.size());
    lookups_.set(r.u64());
    updates_.set(r.u64());
}

} // namespace flywheel
