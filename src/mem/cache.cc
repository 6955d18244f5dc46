#include "mem/cache.hh"

#include "common/log.hh"
#include "obs/stats_registry.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

namespace {

bool
isPow2(std::uint32_t v)
{
    return v && !(v & (v - 1));
}

} // namespace

Cache::Cache(Arena &arena, const CacheParams &params)
    : params_(params), lines_(arena)
{
    FW_ASSERT(isPow2(params_.lineBytes), "line size must be a power of 2");
    FW_ASSERT(params_.assoc >= 1, "associativity must be >= 1");
    std::uint32_t lines = params_.sizeBytes / params_.lineBytes;
    FW_ASSERT(lines >= params_.assoc, "cache smaller than one set");
    numSets_ = lines / params_.assoc;
    FW_ASSERT(isPow2(numSets_), "number of sets must be a power of 2");
    lines_.resize(static_cast<std::size_t>(numSets_) * params_.assoc);

    while ((params_.lineBytes >> lineShift_) != 1)
        ++lineShift_;
    unsigned set_bits = 0;
    while ((numSets_ >> set_bits) != 1)
        ++set_bits;
    tagShift_ = lineShift_ + set_bits;
    setMask_ = numSets_ - 1;
}

bool
Cache::access(Addr addr, bool is_write)
{
    ++accesses_;
    if (is_write)
        ++writes_;
    ++useClock_;

    const std::uint32_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.assoc];

    Line *victim = base;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock_;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++misses_;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const std::uint32_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *base = &lines_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::invalidateAll()
{
    for (auto &line : lines_)
        line.valid = false;
}

void
Cache::registerStats(obs::StatsGroup &group) const
{
    group.counter("accesses", accesses_);
    group.counter("misses", misses_);
    group.counter("writes", writes_);
    group.formula("missRate", [this] { return missRate(); });
}

void
Cache::save(BinWriter &w) const
{
    // Per set: its recency order, then the valid ways' tags in way
    // order.  An invalid way's tag is never read, so it is not
    // written.
    w.uvar(numSets_);
    for (std::size_t set = 0; set < numSets_; ++set) {
        const Line *base = &lines_[set * params_.assoc];
        recencyToBin(w, base, params_.assoc);
        for (std::uint32_t i = 0; i < params_.assoc; ++i)
            if (base[i].valid)
                w.uvar(base[i].tag);
    }
    w.uvar(accesses_.value());
    w.uvar(misses_.value());
    w.uvar(writes_.value());
}

void
Cache::restore(BinReader &r)
{
    const std::uint64_t sets = r.uvar();
    FW_ASSERT(sets == numSets_,
              "cache snapshot geometry mismatch (%s: %llu vs %u sets)",
              params_.name.c_str(), (unsigned long long)sets,
              numSets_);
    for (std::size_t set = 0; set < numSets_; ++set) {
        Line *base = &lines_[set * params_.assoc];
        recencyFromBin(r, base, params_.assoc);
        for (std::uint32_t i = 0; i < params_.assoc; ++i)
            base[i].tag = base[i].valid ? r.uvar() : 0;
    }
    useClock_ = params_.assoc;
    accesses_.set(r.uvar());
    misses_.set(r.uvar());
    writes_.set(r.uvar());
}

} // namespace flywheel
