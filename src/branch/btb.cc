#include "branch/btb.hh"

#include "common/log.hh"
#include "obs/stats_registry.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

Btb::Btb(Arena &arena, const BtbParams &params)
    : params_(params), entries_(arena)
{
    FW_ASSERT(params_.entries % params_.assoc == 0,
              "BTB entries must divide evenly into ways");
    numSets_ = params_.entries / params_.assoc;
    FW_ASSERT((numSets_ & (numSets_ - 1)) == 0,
              "BTB set count must be a power of 2");
    entries_.resize(params_.entries);
}

std::optional<Addr>
Btb::lookup(Addr pc) const
{
    ++lookups_;
    ++useClock_;
    unsigned set = static_cast<unsigned>(pc >> 2) & (numSets_ - 1);
    Entry *base = &entries_[static_cast<std::size_t>(set) *
                            params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].pc == pc) {
            ++hits_;
            base[w].lastUse = useClock_;
            return base[w].target;
        }
    }
    return std::nullopt;
}

void
Btb::update(Addr pc, Addr target)
{
    ++useClock_;
    unsigned set = static_cast<unsigned>(pc >> 2) & (numSets_ - 1);
    Entry *base = &entries_[static_cast<std::size_t>(set) * params_.assoc];
    Entry *victim = base;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.pc == pc) {
            e.target = target;
            e.lastUse = useClock_;
            return;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->pc = pc;
    victim->target = target;
    victim->lastUse = useClock_;
}

void
Btb::registerStats(obs::StatsGroup &group) const
{
    group.counter("lookups", lookups_);
    group.counter("hits", hits_);
    group.formula("hitRate", [this] {
        return lookups_.value()
                   ? double(hits_.value()) / double(lookups_.value())
                   : 0.0;
    });
}

void
Btb::save(BinWriter &w) const
{
    // Field-by-field: Entry has padding bytes.
    w.u64(entries_.size());
    for (const Entry &e : entries_) {
        w.u64(e.pc);
        w.u64(e.target);
        w.b(e.valid);
        w.u64(e.lastUse);
    }
    w.u64(useClock_);
    w.u64(lookups_.value());
    w.u64(hits_.value());
}

void
Btb::restore(BinReader &r)
{
    const std::uint64_t count = r.u64();
    FW_ASSERT(count == entries_.size(),
              "BTB snapshot geometry mismatch");
    for (Entry &e : entries_) {
        e.pc = r.u64();
        e.target = r.u64();
        e.valid = r.b();
        e.lastUse = r.u64();
    }
    useClock_ = r.u64();
    lookups_.set(r.u64());
    hits_.set(r.u64());
}

} // namespace flywheel
