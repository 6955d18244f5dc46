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
    // Per set: its recency order, then each valid way's PC and its
    // target as an offset from it, both in instructions.
    w.uvar(numSets_);
    for (std::size_t set = 0; set < numSets_; ++set) {
        const Entry *base = &entries_[set * params_.assoc];
        recencyToBin(w, base, params_.assoc);
        for (unsigned i = 0; i < params_.assoc; ++i) {
            const Entry &e = base[i];
            if (!e.valid)
                continue;
            w.uvar(e.pc / kInstBytes);
            w.svar(instDelta(e.target, e.pc));
        }
    }
    w.uvar(lookups_.value());
    w.uvar(hits_.value());
}

void
Btb::restore(BinReader &r)
{
    const std::uint64_t sets = r.uvar();
    FW_ASSERT(sets == numSets_, "BTB snapshot geometry mismatch");
    for (std::size_t set = 0; set < numSets_; ++set) {
        Entry *base = &entries_[set * params_.assoc];
        recencyFromBin(r, base, params_.assoc);
        for (unsigned i = 0; i < params_.assoc; ++i) {
            Entry &e = base[i];
            e.pc = e.target = 0;
            if (!e.valid)
                continue;
            e.pc = r.uvar() * kInstBytes;
            e.target = plusInsts(e.pc, r.svar());
        }
    }
    useClock_ = params_.assoc;
    lookups_.set(r.uvar());
    hits_.set(r.uvar());
}

} // namespace flywheel
