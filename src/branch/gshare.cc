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
    // Two-bit counters, four per byte, the first in the low bits.
    w.uvar(table_.size());
    for (std::size_t i = 0; i < table_.size(); i += 4) {
        unsigned byte = 0;
        for (std::size_t j = 0; j < 4 && i + j < table_.size(); ++j)
            byte |= unsigned(table_[i + j]) << (2 * j);
        w.u8(static_cast<std::uint8_t>(byte));
    }
    w.uvar(lookups_.value());
    w.uvar(updates_.value());
}

void
Gshare::restore(BinReader &r)
{
    history_ = r.u16();
    const std::uint64_t counters = r.uvar();
    FW_ASSERT(counters == table_.size(),
              "gshare snapshot holds %llu counters, expected %zu",
              (unsigned long long)counters, table_.size());
    for (std::size_t i = 0; i < table_.size(); i += 4) {
        const std::uint8_t byte = r.u8();
        for (std::size_t j = 0; j < 4 && i + j < table_.size(); ++j)
            table_[i + j] = (byte >> (2 * j)) & 3;
    }
    lookups_.set(r.uvar());
    updates_.set(r.uvar());
}

} // namespace flywheel
