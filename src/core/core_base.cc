#include "core/core_base.hh"

#include <cmath>
#include <cstring>

#include "common/log.hh"
#include "core/report.hh"
#include "snapshot/snapshot.hh"

namespace flywheel {

namespace {

static_assert(sizeof(EnergyEvents) % sizeof(std::uint64_t) == 0,
              "EnergyEvents must stay an array of u64 fields");

/** A struct of u64 counters (EnergyEvents, CoreStats) as uvars. */
template <typename Counters>
void
countersToBin(BinWriter &w, const Counters &c)
{
    std::uint64_t words[sizeof(Counters) / sizeof(std::uint64_t)];
    std::memcpy(words, &c, sizeof(c));
    for (std::uint64_t v : words)
        w.uvar(v);
}

template <typename Counters>
void
countersFromBin(BinReader &r, Counters *c)
{
    std::uint64_t words[sizeof(Counters) / sizeof(std::uint64_t)];
    for (std::uint64_t &v : words)
        v = r.uvar();
    std::memcpy(c, words, sizeof(words));
}

/** A physical register as a uvar: 0 = none, else 1 + the register. */
void
physToBin(BinWriter &w, PhysReg reg)
{
    w.uvar(reg == kNoPhysReg ? 0 : std::uint64_t(reg) + 1);
}

PhysReg
physFromBin(BinReader &r)
{
    const std::uint64_t v = r.uvar();
    FW_ASSERT(v <= kNoPhysReg,
              "snapshot physical register %llu out of range",
              (unsigned long long)(v - 1));
    return v == 0 ? kNoPhysReg : static_cast<PhysReg>(v - 1);
}

/**
 * Snapshot codec for one in-flight instruction: the architectural
 * record (InstRecordCodec), one byte of the eight flags, physical
 * registers and small counters as uvars, and the four timestamps as
 * deltas from the section's base tick.  Field by field, in fixed
 * positional order (the snapshot format version gates changes).
 */
void
inflightToBin(BinWriter &w, InstRecordCodec &records, Tick base,
              const InFlightInst &i)
{
    records.put(w, i.arch);
    w.u8(static_cast<std::uint8_t>(
        (i.issued ? 0x01 : 0) | (i.completed ? 0x02 : 0) |
        (i.squashed ? 0x04 : 0) | (i.inIw ? 0x08 : 0) |
        (i.mispredicted ? 0x10 : 0) | (i.predictedTaken ? 0x20 : 0) |
        (i.btbMissBubble ? 0x40 : 0) | (i.fromEc ? 0x80 : 0)));
    physToBin(w, i.destPhys);
    physToBin(w, i.oldDestPhys);
    physToBin(w, i.src1Phys);
    physToBin(w, i.src2Phys);
    w.uvar(i.poolPrevSlot);
    tickToBin(w, base, i.dispatchReady);
    tickToBin(w, base, i.iwVisible);
    tickToBin(w, base, i.issueTick);
    tickToBin(w, base, i.completeTick);
    w.uvar(i.iwPos);
    w.uvar(i.historyAtPredict);
    w.uvar(i.traceRank);
}

InFlightInst
inflightFromBin(BinReader &r, InstRecordCodec &records, Tick base)
{
    InFlightInst i;
    i.arch = records.get(r);
    const std::uint8_t flags = r.u8();
    i.issued = flags & 0x01;
    i.completed = flags & 0x02;
    i.squashed = flags & 0x04;
    i.inIw = flags & 0x08;
    i.mispredicted = flags & 0x10;
    i.predictedTaken = flags & 0x20;
    i.btbMissBubble = flags & 0x40;
    i.fromEc = flags & 0x80;
    i.destPhys = physFromBin(r);
    i.oldDestPhys = physFromBin(r);
    i.src1Phys = physFromBin(r);
    i.src2Phys = physFromBin(r);
    i.poolPrevSlot = static_cast<std::uint16_t>(r.uvar());
    i.dispatchReady = tickFromBin(r, base);
    i.iwVisible = tickFromBin(r, base);
    i.issueTick = tickFromBin(r, base);
    i.completeTick = tickFromBin(r, base);
    i.iwPos = static_cast<std::uint32_t>(r.uvar());
    i.historyAtPredict = static_cast<std::uint16_t>(r.uvar());
    i.traceRank = static_cast<std::uint32_t>(r.uvar());
    return i;
}

void
instRingToBin(BinWriter &w, const StaticProgram &program, Tick base,
              const ArenaRing<InFlightInst> &q)
{
    InstRecordCodec records(program);
    w.uvar(q.size());
    for (const InFlightInst &i : q)
        inflightToBin(w, records, base, i);
}

void
instRingFromBin(BinReader &r, const StaticProgram &program, Tick base,
                ArenaRing<InFlightInst> *out)
{
    out->clear();
    const std::uint64_t count = r.uvar();
    FW_ASSERT(count <= out->capacity(),
              "instruction-queue snapshot exceeds configured capacity");
    InstRecordCodec records(program);
    for (std::uint64_t i = 0; i < count; ++i)
        out->push_back(inflightFromBin(r, records, base));
}

} // namespace

CoreBase::CoreBase(const CoreParams &params, WorkloadStream &stream,
                   unsigned phys_regs)
    : params_(params),
      stream_(stream),
      hier_(arena_, params.mem),
      gshare_(arena_, params.bpred),
      btb_(arena_, params.btb),
      fus_(arena_, params.fus, params.lat),
      lsq_(arena_, params.lsqEntries),
      iw_(arena_, params.iwEntries, regReady_, phys_regs),
      rob_(arena_, params.robEntries),
      feQueue_(arena_,
               static_cast<std::size_t>(params.feStages - 1 +
                                        params.extraFrontEndStages + 2) *
                   params.fetchWidth),
      regReady_(arena_),
      issuedPending_(arena_)
{
    regReady_.assign(phys_regs, 0);
    feDepth_ = params_.feStages - 1 + params_.extraFrontEndStages;
    feQueueCap_ = static_cast<std::size_t>(feDepth_ + 2) *
                  params_.fetchWidth;
    memTicks_ = static_cast<Tick>(std::llround(
        params_.mem.memBaselineCycles * params_.basePeriodPs));
    // Invariant per-run values, hoisted out of the per-cycle loop.
    l2StallTicks_ = static_cast<Tick>(std::llround(
        params_.mem.l2Cycles * params_.basePeriodPs));
    progressHorizonTicks_ =
        static_cast<Tick>(500000.0 * params_.basePeriodPs);
    issuedPending_.reserve(params_.robEntries);

    // One stat per CoreStats field, expanded from the same X-macro
    // that guards serialization, so new fields surface automatically.
    obs::StatsGroup &core = statsRegistry_.group("core");
#define X(f) core.counter(#f, &stats_.f);
    FW_CORE_STATS_FIELDS(X)
#undef X
    core.formula("mispredictRate", [this] {
        return stats_.condBranches
                   ? double(stats_.mispredicts) /
                         double(stats_.condBranches)
                   : 0.0;
    });
    hier_.registerStats(statsRegistry_, "core");
    gshare_.registerStats(statsRegistry_.group("core.gshare"));
    btb_.registerStats(statsRegistry_.group("core.btb"));
    lsq_.registerStats(statsRegistry_.group("core.lsq"));
    iw_.registerStats(statsRegistry_.group("core.iw"));
}

bool
CoreBase::fetchGate(Addr, Tick)
{
    return true;
}

void
CoreBase::onIssueGroup(const std::vector<InFlightInst *> &, Tick)
{}

void
CoreBase::onMispredictResolved(InFlightInst &, Tick now)
{
    // Redirect reaches Fetch for the next cycle; the subclass run
    // loop samples fetchStallUntil_ at front-end clock edges.
    waitingOnMispredict_ = false;
    resumeFetch(now + 1);
}

void
CoreBase::onRetire(InFlightInst &, Tick)
{}

void
CoreBase::stepFetch(Tick now, Tick fe_period)
{
    if (now < fetchStallUntil_ || waitingOnMispredict_)
        return;
    if (feQueue_.size() + params_.fetchWidth > feQueueCap_)
        return;

    unsigned fetched = 0;
    Addr group_pc = 0;
    for (unsigned w = 0; w < params_.fetchWidth; ++w) {
        const DynInst &next = stream_.peek(0);
        const Addr pc = next.pc;

        if (w == 0) {
            if (!fetchGate(pc, now))
                return;
            group_pc = pc;
            ++events_.icacheAccesses;
            MemLevel lvl = hier_.fetch(pc);
            if (lvl != MemLevel::L1) {
                // Pipelined L1 miss: charge L2 (back-end clocked at
                // the baseline rate) or full memory time.
                Tick stall = l2StallTicks_;
                if (lvl == MemLevel::Memory)
                    stall += memTicks_;
                fetchStallUntil_ = now + stall;
                ++stats_.icacheMissStalls;
                if (tracer_)
                    tracer_->span(obs::TraceCat::CacheMiss,
                                  lvl == MemLevel::Memory
                                      ? "icache_miss_mem"
                                      : "icache_miss_l2",
                                  now, stall, pc);
                return;
            }
        }

        InFlightInst ifi;
        ifi.arch = stream_.next();
        ifi.dispatchReady = now + static_cast<Tick>(feDepth_) * fe_period;

        bool end_group = false;
        bool stall_decode_redirect = false;
        if (ifi.arch.isBranch()) {
            ++events_.btbLookups;
            bool pred_taken;
            if (ifi.arch.isCondBranch) {
                ++events_.bpredLookups;
                ++stats_.condBranches;
                pred_taken = gshare_.predict(ifi.arch.pc);
                ifi.historyAtPredict = gshare_.history();
                gshare_.pushHistory(ifi.arch.taken);
                if (pred_taken != ifi.arch.taken) {
                    ifi.mispredicted = true;
                    ++stats_.mispredicts;
                }
            } else {
                pred_taken = true;
            }
            ifi.predictedTaken = pred_taken;

            if (ifi.mispredicted) {
                // Fetch stalls until the branch resolves in Execute.
                waitingOnMispredict_ = true;
                fetchStallUntil_ = kTickMax;
                end_group = true;
            } else if (ifi.arch.taken) {
                end_group = true;
                if (!btb_.lookup(ifi.arch.pc)) {
                    // Target produced at decode: two-cycle bubble.
                    ifi.btbMissBubble = true;
                    ++stats_.btbMissBubbles;
                    stall_decode_redirect = true;
                }
            }
        }

        feQueue_.push_back(ifi);
        ++fetched;

        if (stall_decode_redirect)
            fetchStallUntil_ = now + 3 * fe_period;
        if (end_group)
            break;
        // Fetch groups may not cross an aligned 16-byte block.
        if ((pc & 0xF) == 0xC)
            break;
    }
    if (tracer_ && fetched)
        tracer_->instant(obs::TraceCat::Fetch, "fetch", now, fetched,
                         group_pc);
}

void
CoreBase::stepDispatch(Tick now, Tick visible_delay)
{
    for (unsigned w = 0; w < params_.dispatchWidth; ++w) {
        if (feQueue_.empty())
            return;
        InFlightInst &head = feQueue_.front();
        if (head.dispatchReady > now)
            return;
        if (rob_.size() >= params_.robEntries) {
            ++stats_.robFullStalls;
            return;
        }
        if (iw_.full()) {
            ++stats_.iwFullStalls;
            return;
        }
        if (head.isMem() && lsq_.full()) {
            ++stats_.lsqFullStalls;
            return;
        }
        if (!canRenameDest(head)) {
            ++stats_.renameStalls;
            return;
        }

        renameSrcs(head);
        renameDest(head);

        ++events_.decodedOps;
        ++events_.renameOps;
        ++events_.dispatchOps;
        ++events_.robOps;
        events_.ratAccesses += head.arch.numSrcs();

        rob_.push_back(std::move(head));
        feQueue_.pop_front();
        InFlightInst *p = &rob_.back();
        p->iwVisible = now + visible_delay;
        iw_.insert(p);
        if (p->isMem()) {
            p->arch.isStore()
                ? lsq_.insert(p->arch.seq, true, p->arch.effAddr)
                : lsq_.insert(p->arch.seq, false, p->arch.effAddr);
            ++events_.lsqOps;
        }
    }
}

bool
CoreBase::operandsReady(const InFlightInst &inst, Tick now) const
{
    if (inst.src1Phys != kNoPhysReg && regReady_[inst.src1Phys] > now)
        return false;
    if (inst.src2Phys != kNoPhysReg && regReady_[inst.src2Phys] > now)
        return false;
    return true;
}

void
CoreBase::issueOne(InFlightInst *p, Tick now, Tick be_period)
{
    p->issued = true;
    p->issueTick = now;

    const unsigned rr = params_.regReadStages;
    unsigned exec_cycles = params_.execLatency(p->arch.op);
    Tick mem_extra = 0;

    if (p->isLoad()) {
        if (lsq_.loadForwards(p->arch.seq, p->arch.effAddr)) {
            exec_cycles += 1;  // LSQ forwarding
        } else {
            ++events_.dcacheAccesses;
            MemLevel lvl = hier_.data(p->arch.effAddr, false);
            exec_cycles += params_.mem.dcache.hitCycles;
            if (lvl != MemLevel::L1) {
                ++events_.l2Accesses;
                exec_cycles += params_.mem.l2Cycles;
                if (lvl == MemLevel::Memory) {
                    ++events_.memAccesses;
                    mem_extra = memTicks_;
                }
                if (tracer_)
                    tracer_->instant(obs::TraceCat::CacheMiss,
                                     lvl == MemLevel::Memory
                                         ? "dcache_miss_mem"
                                         : "dcache_miss_l2",
                                     now, p->arch.effAddr,
                                     p->arch.seq);
            }
        }
        ++events_.lsqOps;
    } else if (p->isStore()) {
        lsq_.storeIssued(p->arch.seq);
        ++events_.lsqOps;
    }

    p->completeTick = now +
        static_cast<Tick>(rr + exec_cycles) * be_period + mem_extra;
    issuedPending_.push_back(p);
    if (p->completeTick < minCompleteTick_)
        minCompleteTick_ = p->completeTick;

    if (p->arch.hasDest()) {
        // Bypass: dependents may issue exec_cycles (+ any extra
        // wake-up delay) after the producer's select.
        regReady_[p->destPhys] = now +
            static_cast<Tick>(exec_cycles + params_.wakeupExtraDelay) *
                be_period +
            mem_extra;
        iw_.wake(p->destPhys);  // tag broadcast to waiting consumers
        ++events_.resultBusOps;
        ++events_.rfWrites;
        if (!p->fromEc)
            ++events_.iwBroadcasts;  // EC replay bypasses the CAM
    }

    events_.rfReads += p->arch.numSrcs();
    if (!p->fromEc)
        ++events_.iwIssues;

    switch (p->arch.op) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Nop:
        ++events_.aluOps;
        break;
      case OpClass::IntMul:
      case OpClass::IntDiv:
        ++events_.mulOps;
        break;
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        ++events_.fpOps;
        break;
      case OpClass::Load:
      case OpClass::Store:
        ++events_.aluOps;  // address generation
        break;
    }
}

void
CoreBase::stepIssue(Tick now, Tick be_period)
{
    fus_.beginCycle(now);
    issuedGroup_.clear();

    // The window hands out only entries whose operands have arrived,
    // oldest first.  The refusals below are not about operands, so a
    // refused entry simply stays ready for the next cycle.  A load
    // refused for an older unknown store address means every younger
    // load is refused too (only younger stores can still issue this
    // cycle), so the rest of the walk passes loads over.
    bool loads_blocked = false;
    for (InFlightInst *p = iw_.firstReady(now);
         p != nullptr && issuedGroup_.size() < params_.issueWidth;
         p = iw_.nextReady(p, loads_blocked)) {
        if (p->isLoad() && !lsq_.loadMayIssue(p->arch.seq)) {
            loads_blocked = true;
            continue;
        }
        if (!fus_.tryIssue(p->arch.op, now, double(be_period)))
            continue;
        iw_.remove(p);
        issueOne(p, now, be_period);
        issuedGroup_.push_back(p);
    }

    if (!issuedGroup_.empty()) {
        if (tracer_)
            tracer_->instant(obs::TraceCat::Issue, "issue", now,
                             issuedGroup_.size(),
                             issuedGroup_.front()->arch.seq);
        onIssueGroup(issuedGroup_, now);
    }
}

void
CoreBase::dropPendingCompletion(InFlightInst *inst)
{
    if (!inst->issued || inst->completed)
        return;
    for (std::size_t i = 0; i < issuedPending_.size(); ++i) {
        if (issuedPending_[i] == inst) {
            issuedPending_[i] = issuedPending_.back();
            issuedPending_.pop_back();
            return;
        }
    }
    FW_PANIC("issued instruction missing from the completion list");
}

void
CoreBase::stepComplete(Tick now, Tick)
{
    // The list holds only issued-but-incomplete instructions, and
    // minCompleteTick_ lets the common nothing-finishes cycle return
    // without touching it at all.
    if (now < minCompleteTick_)
        return;

    // Index-based on purpose: onMispredictResolved may squash the
    // wrong-path tail of the ROB (trace divergence).  The squash path
    // calls dropPendingCompletion for every popped entry, which
    // reorders this list arbitrarily — restart the pass after any
    // callback; completion marking is idempotent within the cycle.
    std::size_t i = 0;
    std::uint64_t completed_n = 0;
    while (i < issuedPending_.size()) {
        InFlightInst *p = issuedPending_[i];
        if (p->completeTick > now) {
            ++i;
            continue;
        }
        issuedPending_[i] = issuedPending_.back();
        issuedPending_.pop_back();
        p->completed = true;
        ++completed_n;
        if (p->mispredicted && !p->squashed) {
            onMispredictResolved(*p, now);
            i = 0;
        }
    }
    if (tracer_ && completed_n)
        tracer_->instant(obs::TraceCat::Complete, "complete", now,
                         completed_n);

    minCompleteTick_ = kTickMax;
    for (const InFlightInst *p : issuedPending_) {
        if (p->completeTick < minCompleteTick_)
            minCompleteTick_ = p->completeTick;
    }
}

void
CoreBase::stepRetire(Tick now, Tick be_period)
{
    std::uint64_t retired_n = 0;
    std::uint64_t group_seq = 0;
    for (unsigned n = 0; n < params_.commitWidth && !rob_.empty(); ++n) {
        InFlightInst &h = rob_.front();
        FW_ASSERT(!h.squashed, "squashed instruction at ROB head");
        // WriteBack precedes Retire by one stage.
        if (!h.completed || h.completeTick + be_period > now)
            break;

        if (h.isStore()) {
            ++events_.dcacheAccesses;
            MemLevel lvl = hier_.data(h.arch.effAddr, true);
            if (lvl != MemLevel::L1) {
                ++events_.l2Accesses;
                if (lvl == MemLevel::Memory)
                    ++events_.memAccesses;
                if (tracer_)
                    tracer_->instant(obs::TraceCat::CacheMiss,
                                     lvl == MemLevel::Memory
                                         ? "store_miss_mem"
                                         : "store_miss_l2",
                                     now, h.arch.effAddr, h.arch.seq);
            }
        }
        // Branches replayed from the Execution Cache never consulted
        // the predictor (the front-end is shut down), so they do not
        // train it either.
        if (h.arch.isBranch() && !h.fromEc) {
            if (h.arch.isCondBranch)
                gshare_.update(h.arch.pc, h.historyAtPredict,
                               h.arch.taken);
            if (h.arch.taken)
                btb_.update(h.arch.pc, h.arch.target);
        }

        onRetire(h, now);
        if (retireHook_)
            retireHook_(h, now);

        if (h.isMem())
            lsq_.retire(h.arch.seq);
        ++events_.robOps;
        ++stats_.retired;
        if (h.fromEc)
            ++stats_.ecRetired;
        if (retired_n == 0)
            group_seq = h.arch.seq;
        ++retired_n;
        rob_.pop_front();
    }
    if (tracer_ && retired_n)
        tracer_->instant(obs::TraceCat::Retire, "retire", now,
                         retired_n, group_seq);
}

std::uint64_t
CoreBase::robIndexOf(const InFlightInst *inst) const
{
    if (inst == nullptr)
        return kNoRobIndex;
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        if (&rob_[i] == inst)
            return i;
    }
    FW_PANIC("snapshot save: tracked instruction not in the ROB");
}

InFlightInst *
CoreBase::robAt(std::uint64_t index)
{
    if (index == kNoRobIndex)
        return nullptr;
    FW_ASSERT(index < rob_.size(),
              "snapshot ROB index %llu out of range (%zu entries)",
              static_cast<unsigned long long>(index), rob_.size());
    return &rob_[index];
}

void
CoreBase::save(Snapshot &snap) const
{
    auto put = [&snap](const char *name, auto &&fill) {
        BinWriter w;
        fill(w);
        snap.addSection(name, w.take());
    };

    put("stream", [this](BinWriter &w) { stream_.save(w); });
    put("mem", [this](BinWriter &w) { hier_.save(w); });
    put("gshare", [this](BinWriter &w) { gshare_.save(w); });
    put("btb", [this](BinWriter &w) { btb_.save(w); });
    put("fus", [this](BinWriter &w) { fus_.save(w); });
    put("lsq", [this](BinWriter &w) { lsq_.save(w); });

    put("pipe", [this](BinWriter &w) {
        // Every tick is a delta from the core's clock.
        const Tick base = events_.totalTicks;
        const StaticProgram &program = stream_.program();
        w.uvar(base);
        instRingToBin(w, program, base, rob_);
        instRingToBin(w, program, base, feQueue_);
        for (Tick t : regReady_)
            tickToBin(w, base, t);
        iw_.save(w, [this](const InFlightInst *p) {
            return robIndexOf(p);
        });
        w.uvar(issuedPending_.size());
        for (const InFlightInst *p : issuedPending_)
            w.uvar(robIndexOf(p));
        tickToBin(w, base, minCompleteTick_);
        countersToBin(w, events_);
        countersToBin(w, stats_);
        tickToBin(w, base, fetchStallUntil_);
        w.b(waitingOnMispredict_);
        w.uvar(lastProgressRetired_);
        tickToBin(w, base, lastProgressTick_);
    });
}

void
CoreBase::restore(const Snapshot &snap)
{
    {
        BinReader r = snap.section("stream");
        stream_.restore(r);
    }
    {
        BinReader r = snap.section("mem");
        hier_.restore(r);
    }
    {
        BinReader r = snap.section("gshare");
        gshare_.restore(r);
    }
    {
        BinReader r = snap.section("btb");
        btb_.restore(r);
    }
    {
        BinReader r = snap.section("fus");
        fus_.restore(r);
    }
    {
        BinReader r = snap.section("lsq");
        lsq_.restore(r);
    }

    BinReader r = snap.section("pipe");
    const Tick base = r.uvar();
    const StaticProgram &program = stream_.program();
    instRingFromBin(r, program, base, &rob_);
    instRingFromBin(r, program, base, &feQueue_);
    FW_ASSERT(rob_.size() <= params_.robEntries &&
                  feQueue_.size() <= feQueueCap_,
              "core snapshot exceeds configured structure sizes");
    for (Tick &t : regReady_)
        t = tickFromBin(r, base);

    iw_.restore(r, [this](std::uint64_t idx) { return robAt(idx); });

    issuedPending_.clear();
    const std::uint64_t pending = r.uvar();
    FW_ASSERT(pending <= rob_.size(),
              "issued-pending snapshot lists %llu of %zu ROB entries",
              (unsigned long long)pending, rob_.size());
    for (std::uint64_t i = 0; i < pending; ++i) {
        InFlightInst *p = robAt(r.uvar());
        FW_ASSERT(p != nullptr && p->issued && !p->completed,
                  "issued-pending snapshot inconsistent with the ROB");
        issuedPending_.push_back(p);
    }
    minCompleteTick_ = tickFromBin(r, base);

    countersFromBin(r, &events_);
    countersFromBin(r, &stats_);
    fetchStallUntil_ = tickFromBin(r, base);
    waitingOnMispredict_ = r.b();
    lastProgressRetired_ = r.uvar();
    lastProgressTick_ = tickFromBin(r, base);
}

void
CoreBase::checkProgress(Tick now)
{
    if (stats_.retired != lastProgressRetired_) {
        lastProgressRetired_ = stats_.retired;
        lastProgressTick_ = now;
        return;
    }
    if (now - lastProgressTick_ > progressHorizonTicks_) {
        FW_PANIC("pipeline wedged: no retirement since tick %llu "
                 "(now %llu, rob %zu, iw %u, feq %zu, stall %llu) %s",
                 static_cast<unsigned long long>(lastProgressTick_),
                 static_cast<unsigned long long>(now), rob_.size(),
                 iw_.occupancy(), feQueue_.size(),
                 static_cast<unsigned long long>(fetchStallUntil_),
                 progressDebug().c_str());
    }
}

} // namespace flywheel
