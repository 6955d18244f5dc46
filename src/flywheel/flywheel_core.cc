#include "flywheel/flywheel_core.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "snapshot/bincodec.hh"
#include "snapshot/snapshot.hh"

namespace flywheel {

FlywheelCore::FlywheelCore(const CoreParams &params,
                           WorkloadStream &stream)
    : CoreBase(params, stream, params.poolPhysRegs),
      pools_(arena_, params.poolPhysRegs, params.minPoolSize),
      ec_(params.ecTotalBlocks, params.ecBlockSlots, params.ecTaEntries),
      feP_(static_cast<Tick>(std::llround(params.fePeriodPs))),
      beBase_(static_cast<Tick>(std::llround(params.basePeriodPs))),
      beFast_(static_cast<Tick>(std::llround(params.beFastPeriodPs))),
      beCur_(beBase_)
{
    // The Register Update stage adds one stage to the back-end in
    // both operating modes (Section 3.5: "it requires an additional
    // pipeline stage ... will cost about 2-3% in performance").
    params_.regReadStages = params.regReadStages + 1;

    ec_.registerStats(statsRegistry_.group("core.ec"));
    pools_.registerStats(statsRegistry_.group("core.pools"));
}

std::string
FlywheelCore::progressDebug() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "[mode=%d drain=%d neednew=%d pend=%d pendAfter=%llu "
                  "pendTick=%llu replay=%d alloc=%u/%u unit=%u/%zu "
                  "valid=%u divR=%d]",
                  int(mode_), int(draining_), int(needNewTrace_),
                  int(pending_.valid),
                  (unsigned long long)pending_.afterRetire,
                  (unsigned long long)pending_.afterRetireTick,
                  int(replayActive()), replay_.allocated,
                  replay_.allocLimit, replay_.nextUnit,
                  replay_.trace ? replay_.trace->units.size() : 0,
                  replay_.valid, int(replay_.divergenceResolved));
    char buf2[256];
    std::snprintf(buf2, sizeof(buf2),
                  "[bld act=%d bnd=%d app=%llu s=%llu e=%llu]"
                  "[fin act=%d bnd=%d app=%llu s=%llu e=%llu]",
                  int(builder_.active), int(builder_.bounded),
                  (unsigned long long)builder_.appended,
                  (unsigned long long)builder_.startSeq,
                  (unsigned long long)builder_.endSeq,
                  int(finalizing_.active), int(finalizing_.bounded),
                  (unsigned long long)finalizing_.appended,
                  (unsigned long long)finalizing_.startSeq,
                  (unsigned long long)finalizing_.endSeq);
    return std::string(buf) + buf2;
}

double
FlywheelCore::ecResidency() const
{
    return stats_.retired
        ? double(stats_.ecRetired) / double(stats_.retired)
        : 0.0;
}

// ---------------------------------------------------------------------------
// State snapshots.
// ---------------------------------------------------------------------------

namespace {

void
builderToBin(BinWriter &w, const StaticProgram &program,
             const FlywheelCore::Builder &b)
{
    w.b(b.active);
    w.b(b.bounded);
    w.u64(b.startPc);
    w.u64(b.startSeq);
    w.u64(b.endSeq);
    w.u64(b.appended);
    traceBodyToBin(w, program, b.startPc, b.slots, b.units);
}

void
builderFromBin(BinReader &r, const StaticProgram &program,
               FlywheelCore::Builder *out)
{
    *out = FlywheelCore::Builder{};
    out->active = r.b();
    out->bounded = r.b();
    out->startPc = r.u64();
    out->startSeq = r.u64();
    out->endSeq = r.u64();
    out->appended = r.u64();
    traceBodyFromBin(r, program, out->startPc, &out->slots, &out->units);
}

} // namespace

void
FlywheelCore::save(Snapshot &snap) const
{
    CoreBase::save(snap);
    const StaticProgram &program = stream_.program();
    BinWriter w;
    w.str("flywheel");

    pools_.save(w);
    ec_.save(w, program);

    w.b(mode_ == Mode::Exec);
    w.u64(beCur_);
    w.u64(nextFe_);
    w.u64(nextBe_);
    builderToBin(w, program, builder_);
    builderToBin(w, program, finalizing_);
    w.b(needNewTrace_);
    w.b(draining_);
    w.u64(drainLookupPc_);

    // A live replay/pending trace is referenced by start PC; both are
    // pinned in the EC while live, so the PC resolves on restore.
    w.u64(replay_.trace ? replay_.trace->startPc : kNoRobIndex);
    InstRecordCodec records(program);
    w.uvar(replay_.actual.size());
    for (const DynInst &d : replay_.actual)
        records.put(w, d);
    w.u32(replay_.valid);
    w.b(replay_.divergent);
    w.b(replay_.divergenceResolved);
    w.u32(replay_.nextUnit);
    w.u32(replay_.allocated);
    w.u32(replay_.allocLimit);
    w.u32(replay_.lastUnit);
    w.u32(replay_.blocksRead);
    w.u64(replay_.start);
    w.u64(replay_.baseSeq);
    w.b(replay_.endHandled);
    // byRank keeps pointers for the whole trace, including ranks that
    // already retired — those are stale (their ROB entries are gone;
    // the replay logic never touches them again) and must serialize
    // as "none".  A stale pointer may even alias a reused ring slot,
    // so membership alone is not enough: the entry must also BE that
    // rank of this replay (sequence-number identity).  Each rank is
    // 0 for none, else 1 + its ROB index.
    w.uvar(replay_.byRank.size());
    for (std::size_t rank = 0; rank < replay_.byRank.size(); ++rank) {
        const InFlightInst *p = replay_.byRank[rank];
        std::uint64_t entry = 0;
        if (p != nullptr) {
            for (std::size_t i = 0; i < rob_.size(); ++i) {
                if (&rob_[i] != p)
                    continue;
                if (rob_[i].fromEc &&
                    rob_[i].arch.seq == replay_.baseSeq + rank)
                    entry = i + 1;
                break;
            }
        }
        w.uvar(entry);
    }

    w.b(pending_.valid);
    w.u64(pending_.trace ? pending_.trace->startPc : kNoRobIndex);
    w.u64(pending_.earliest);
    w.u64(pending_.afterRetire);
    w.u64(pending_.afterRetireTick);

    w.u64(beCyclesSinceCheck_);
    w.b(redistributionArmed_);
    snap.addSection("core", w.take());
}

void
FlywheelCore::restore(const Snapshot &snap)
{
    CoreBase::restore(snap);
    const StaticProgram &program = stream_.program();
    BinReader r = snap.section("core");
    const std::string type = r.str();
    FW_ASSERT(type == "flywheel",
              "restoring a %s snapshot into a Flywheel core",
              type.c_str());

    pools_.restore(r);
    ec_.restore(r, program);

    mode_ = r.b() ? Mode::Exec : Mode::Create;
    beCur_ = r.u64();
    nextFe_ = r.u64();
    nextBe_ = r.u64();
    builderFromBin(r, program, &builder_);
    builderFromBin(r, program, &finalizing_);
    needNewTrace_ = r.b();
    draining_ = r.b();
    drainLookupPc_ = r.u64();

    replay_.reset();
    const std::uint64_t replay_pc = r.u64();
    if (replay_pc != kNoRobIndex) {
        replay_.trace = ec_.find(replay_pc);
        FW_ASSERT(replay_.trace != nullptr,
                  "replayed trace 0x%llx missing from the restored EC",
                  (unsigned long long)replay_pc);
    }
    InstRecordCodec records(program);
    const std::uint64_t actual_n =
        r.uvarCount(InstRecordCodec::kMinBytes);
    for (std::uint64_t i = 0; i < actual_n; ++i)
        replay_.actual.push_back(records.get(r));
    replay_.valid = r.u32();
    replay_.divergent = r.b();
    replay_.divergenceResolved = r.b();
    replay_.nextUnit = r.u32();
    replay_.allocated = r.u32();
    replay_.allocLimit = r.u32();
    replay_.lastUnit = r.u32();
    replay_.blocksRead = r.u32();
    replay_.start = r.u64();
    replay_.baseSeq = r.u64();
    replay_.endHandled = r.b();
    const std::uint64_t by_rank_n = r.uvarCount(1);
    for (std::uint64_t i = 0; i < by_rank_n; ++i) {
        const std::uint64_t entry = r.uvar();
        replay_.byRank.push_back(entry == 0 ? nullptr : robAt(entry - 1));
    }

    pending_ = PendingReplay{};
    pending_.valid = r.b();
    const std::uint64_t pending_pc = r.u64();
    if (pending_pc != kNoRobIndex) {
        pending_.trace = ec_.find(pending_pc);
        FW_ASSERT(pending_.trace != nullptr,
                  "pending trace 0x%llx missing from the restored EC",
                  (unsigned long long)pending_pc);
    }
    pending_.earliest = r.u64();
    pending_.afterRetire = r.u64();
    pending_.afterRetireTick = r.u64();

    beCyclesSinceCheck_ = r.u64();
    redistributionArmed_ = r.b();
}

// ---------------------------------------------------------------------------
// Renaming hooks (two-phase pool renaming; Section 3.5).
// ---------------------------------------------------------------------------

bool
FlywheelCore::canRenameDest(const InFlightInst &inst)
{
    if (!inst.arch.hasDest())
        return true;
    if (pools_.canAllocate(inst.arch.dest))
        return true;
    pools_.noteStall(inst.arch.dest);
    return false;
}

void
FlywheelCore::renameSrcs(InFlightInst &inst)
{
    if (inst.arch.src1 != kNoArchReg)
        inst.src1Phys = pools_.current(inst.arch.src1);
    if (inst.arch.src2 != kNoArchReg)
        inst.src2Phys = pools_.current(inst.arch.src2);
    // Register Update (RT/SRT read) runs in both operating modes.
    ++events_.updateOps;
}

void
FlywheelCore::renameDest(InFlightInst &inst)
{
    if (!inst.arch.hasDest())
        return;
    inst.destPhys = pools_.allocate(inst.arch.dest, inst.poolPrevSlot);
    regReady_[inst.destPhys] = kTickMax;
}

void
FlywheelCore::onRetire(InFlightInst &inst, Tick now)
{
    if (inst.arch.hasDest())
        pools_.release(inst.arch.dest);
    ++events_.updateOps;  // FRT written with the retiring PO
    if (pending_.valid && pending_.afterRetire == inst.arch.seq)
        pending_.afterRetireTick = now;
}

// ---------------------------------------------------------------------------
// Trace building (Section 3.3, trace segment build phase).
// ---------------------------------------------------------------------------

bool
FlywheelCore::fetchGate(Addr pc, Tick now)
{
    (void)now;
    if (!params_.execCacheEnabled)
        return true;
    if (draining_)
        return false;

    if (needNewTrace_) {
        FW_ASSERT(!builder_.active, "starting a trace over another");
        builder_ = Builder{};
        builder_.active = true;
        builder_.startPc = pc;
        builder_.startSeq = stream_.peek(0).seq;
        needNewTrace_ = false;
        return true;
    }

    if (builder_.active && !builder_.bounded) {
        const InstSeqNum next_seq = stream_.peek(0).seq;
        const std::uint64_t fetched = next_seq - builder_.startSeq;
        const bool closure = pc == builder_.startPc &&
                             fetched >= params_.minTraceInstrs &&
                             builder_.units.size() >=
                                 params_.minTraceUnits;
        const bool capped = fetched >= std::uint64_t(
            params_.maxTraceBlocks) * params_.ecBlockSlots;
        if (closure || capped) {
            builder_.bounded = true;
            builder_.endSeq = next_seq - 1;
            draining_ = true;
            drainLookupPc_ = pc;
            // If every instruction already issued, finalize at once.
            if (builder_.appended == builder_.expected())
                finalizeBuilder(builder_, now);
            return false;
        }
    }
    return true;
}

void
FlywheelCore::onIssueGroup(const std::vector<InFlightInst *> &group,
                           Tick now)
{
    if (!params_.execCacheEnabled)
        return;
    appendToBuilder(finalizing_, group, now);
    appendToBuilder(builder_, group, now);
}

void
FlywheelCore::appendToBuilder(Builder &b,
                              const std::vector<InFlightInst *> &group,
                              Tick)
{
    if (!b.active)
        return;
    IssueUnit unit;
    unit.firstSlot = static_cast<std::uint32_t>(b.slots.size());
    for (const InFlightInst *p : group) {
        if (p->fromEc)
            continue;
        const InstSeqNum seq = p->arch.seq;
        if (seq < b.startSeq || (b.bounded && seq > b.endSeq))
            continue;
        TraceSlot slot;
        slot.pc = p->arch.pc;
        slot.op = p->arch.op;
        slot.dest = p->arch.dest;
        slot.src1 = p->arch.src1;
        slot.src2 = p->arch.src2;
        slot.recordedEffAddr = p->arch.effAddr;
        slot.isCondBranch = p->arch.isCondBranch;
        slot.rank = static_cast<std::uint32_t>(seq - b.startSeq);
        b.slots.push_back(slot);
        ++b.appended;
        ++unit.count;
    }
    if (unit.count > 0) {
        b.units.push_back(unit);
        ++events_.fillBufferOps;
    }

    // A bounded builder whose last instruction has issued is complete.
    if (b.bounded && b.appended == b.expected())
        finalizeBuilder(b, 0);
}

void
FlywheelCore::finalizeBuilder(Builder &b, Tick)
{
    FW_ASSERT(b.active && b.bounded, "finalizing an unbounded builder");
    b.active = false;

    if (b.units.size() < params_.minTraceUnits)
        return;  // too short to be worth storing

    auto trace = std::make_unique<Trace>();
    trace->startPc = b.startPc;
    trace->slots = std::move(b.slots);
    trace->units = std::move(b.units);
    trace->indexRanks();

    events_.ecDaWrites += trace->numBlocks(ec_.blockSlots());
    if (ec_.insert(std::move(trace)))
        ++stats_.tracesBuilt;
}

void
FlywheelCore::maybeCompleteDrain(Tick now)
{
    if (!draining_ || builder_.active)
        return;  // builder finalizes from appendToBuilder
    // All of the trace's instructions have issued and the trace has
    // been stored; search the EC at the next PC (closure lookups hit
    // the trace just built).
    draining_ = false;
    Tick extra = params_.srtEnabled ? 1 : 1 + params_.ecReadCycles;
    InstSeqNum after = params_.srtEnabled ? 0 : builder_.endSeq;
    if (ecLookupAndQueue(drainLookupPc_, now, after, extra)) {
        // Hold fetch so the stream stays aligned with the replay.
        fetchStallUntil_ = kTickMax;
    } else {
        needNewTrace_ = true;  // miss: keep fetching, build a new trace
    }
}

// ---------------------------------------------------------------------------
// Mispredict handling in both modes.
// ---------------------------------------------------------------------------

void
FlywheelCore::onMispredictResolved(InFlightInst &inst, Tick now)
{
    if (inst.fromEc) {
        resolveDivergence(inst, now);
        return;
    }

    // Trace-creation mode: the trace ends at the mispredicted branch.
    waitingOnMispredict_ = false;
    if (params_.execCacheEnabled && builder_.active &&
        !builder_.bounded) {
        builder_.bounded = true;
        builder_.endSeq = inst.arch.seq;
        // In the rare case a previous trace is still waiting for
        // straggler instructions to issue, drop it rather than track
        // an unbounded finalize list.
        if (finalizing_.active)
            finalizing_ = Builder{};
        finalizing_ = std::move(builder_);
        builder_ = Builder{};
        // If everything already issued, finalize immediately.
        if (finalizing_.active &&
            finalizing_.appended == finalizing_.expected()) {
            finalizeBuilder(finalizing_, now);
        }
    }

    if (params_.execCacheEnabled &&
        ecLookupAndQueue(inst.arch.nextPc(), now, inst.arch.seq,
                         1 + params_.ecReadCycles)) {
        // Hit: switch to trace execution once the pipeline drains and
        // the checkpoint constraint is met.  Fetch stays stalled.
        fetchStallUntil_ = kTickMax;
    } else {
        // Miss (or no EC): restart the front-end.  The redirect
        // crosses the domain boundary (WriteBack -> Fetch FIFO).
        needNewTrace_ = true;
        resumeFetch(now + beCur_ + feP_);
    }
}

// ---------------------------------------------------------------------------
// Trace replay (Section 3.3, trace execution phase).
// ---------------------------------------------------------------------------

bool
FlywheelCore::ecLookupAndQueue(Addr pc, Tick now,
                               InstSeqNum after_retire,
                               Tick extra_delay_cycles)
{
    ++stats_.ecLookups;
    ++events_.ecTaLookups;
    Trace *t = ec_.lookup(pc);
    if (t == nullptr)
        return false;
    ++stats_.ecHits;
    ec_.pin(pc);
    pending_.valid = true;
    pending_.trace = t;
    pending_.earliest = now + extra_delay_cycles * beFast_;
    pending_.afterRetire = after_retire;
    pending_.afterRetireTick = kTickMax;
    return true;
}

void
FlywheelCore::maybeStartPendingReplay(Tick now)
{
    if (!pending_.valid || replayActive())
        return;
    if (!iw_.empty() || !feQueue_.empty())
        return;
    if (pending_.afterRetire != 0) {
        if (pending_.afterRetireTick == kTickMax) {
            if (now >= pending_.earliest)
                ++stats_.checkpointStallCycles;
            return;
        }
        if (now < pending_.afterRetireTick + beCur_)
            return;
    }
    if (now < pending_.earliest)
        return;
    enterExec(now);
}

void
FlywheelCore::enterExec(Tick now)
{
    Trace *t = pending_.trace;
    FW_ASSERT(t != nullptr, "entering exec without a trace");
    if (stream_.peek(0).pc != t->startPc) {
        FW_PANIC("replay misaligned: trace=0x%llx peek=0x%llx "
                 "after=%llu mode=%d drain=%d neednew=%d lookups=%llu "
                 "changes=%llu retired=%llu",
                 (unsigned long long)t->startPc,
                 (unsigned long long)stream_.peek(0).pc,
                 (unsigned long long)pending_.afterRetire, (int)mode_,
                 (int)draining_, (int)needNewTrace_,
                 (unsigned long long)stats_.ecLookups,
                 (unsigned long long)stats_.traceChanges,
                 (unsigned long long)stats_.retired);
    }

    const std::uint32_t len = t->length();
    std::uint32_t v = 0;
    while (v < len) {
        if (stream_.peek(v).pc != t->slots[t->rankToSlot[v]].pc)
            break;
        ++v;
    }
    FW_ASSERT(v >= 1, "trace start matched but first slot differs");

    replay_.reset();
    replay_.trace = t;
    replay_.valid = v;
    replay_.divergent = v < len;
    replay_.allocLimit = len;
    replay_.lastUnit = static_cast<std::uint32_t>(t->units.size()) - 1;
    replay_.actual.reserve(v);
    for (std::uint32_t k = 0; k < v; ++k)
        replay_.actual.push_back(stream_.next());
    replay_.baseSeq = replay_.actual.front().seq;
    replay_.byRank.assign(len, nullptr);
    replay_.start = now;

    if (replay_.divergent) {
        const TraceSlot &s = t->slots[t->rankToSlot[v - 1]];
        FW_ASSERT(s.isCondBranch,
                  "trace divergence not caused by a conditional branch");
    }

    pending_ = PendingReplay{};
    mode_ = Mode::Exec;
    beCur_ = beFast_;
    fetchStallUntil_ = kTickMax;  // front-end is clock gated
    ++stats_.traceChanges;
    ++events_.checkpointOps;

    if (tracer_) {
        tracer_->instant(obs::TraceCat::EcMode, "ec_enter", now, len,
                         v);
        tracer_->instant(obs::TraceCat::Replay, "replay_start", now,
                         t->startPc, len);
        tracer_->instant(obs::TraceCat::ClockPlan, "be_fast", now,
                         beFast_);
    }
}

DynInst
FlywheelCore::synthesizeWrongPath(const TraceSlot &slot,
                                  InstSeqNum seq) const
{
    DynInst d;
    d.seq = seq;
    d.pc = slot.pc;
    d.op = slot.op;
    d.dest = slot.dest;
    d.src1 = slot.src1;
    d.src2 = slot.src2;
    d.isCondBranch = slot.isCondBranch;
    d.effAddr = slot.recordedEffAddr;
    return d;
}

void
FlywheelCore::replayAllocate(Tick)
{
    if (!replayActive())
        return;
    Trace *t = replay_.trace;
    for (unsigned i = 0;
         i < params_.issueWidth && replay_.allocated < replay_.allocLimit;
         ++i) {
        const std::uint32_t rank = replay_.allocated;
        const TraceSlot &s = t->slots[t->rankToSlot[rank]];
        const bool wrong = rank >= replay_.valid;

        if (rob_.size() >= params_.robEntries)
            return;
        if (isMemOp(s.op) && lsq_.full())
            return;

        InFlightInst ifi;
        ifi.arch = wrong
            ? synthesizeWrongPath(s, replay_.baseSeq + rank)
            : replay_.actual[rank];
        ifi.fromEc = true;
        ifi.traceRank = rank;
        ifi.squashed = wrong;

        if (!canRenameDest(ifi)) {
            if (wrong) {
                // A wrong-path slot blocked on a full pool would
                // deadlock the in-order unit stream against its own
                // squash; it never retires, so drop its destination.
                ifi.arch.dest = kNoArchReg;
            } else {
                ++stats_.renameStalls;
                return;
            }
        }
        renameSrcs(ifi);
        renameDest(ifi);

        if (!wrong && replay_.divergent && rank == replay_.valid - 1)
            ifi.mispredicted = true;  // the diverging branch

        rob_.push_back(std::move(ifi));
        InFlightInst *p = &rob_.back();
        replay_.byRank[rank] = p;
        if (p->isMem()) {
            lsq_.insert(p->arch.seq, p->arch.isStore(),
                        p->arch.effAddr);
            ++events_.lsqOps;
        }
        ++events_.updateOps;
        ++events_.robOps;
        ++replay_.allocated;
    }
}

void
FlywheelCore::replayIssue(Tick now)
{
    if (!replayActive())
        return;
    Trace *t = replay_.trace;
    if (replay_.nextUnit >= t->units.size() ||
        replay_.nextUnit > replay_.lastUnit) {
        return;
    }

    const IssueUnit &u = t->units[replay_.nextUnit];

    // Gather the slots that must issue.  Wrong-path slots are
    // squashed state in flight: they consume issue slots and energy
    // but are never allowed to stall the in-order unit stream (their
    // register bindings may be arbitrarily stale, and a stalled
    // wrong-path slot could otherwise block the very branch whose
    // resolution flushes it).  Once the divergence has been resolved
    // they vanish entirely.
    std::vector<InFlightInst *> &gated = gatedScratch_;
    std::vector<InFlightInst *> &free_slots = freeSlotsScratch_;
    gated.clear();
    free_slots.clear();
    for (std::uint32_t j = u.firstSlot; j < u.firstSlot + u.count; ++j) {
        const std::uint32_t rank = t->slots[j].rank;
        const bool wrong = rank >= replay_.valid;
        if (wrong && replay_.divergenceResolved)
            continue;
        if (rank >= replay_.allocated) {
            if (wrong)
                continue;  // squashed work: drop rather than wait
            return;  // Register Update has not processed it yet
        }
        if (wrong)
            free_slots.push_back(replay_.byRank[rank]);
        else
            gated.push_back(replay_.byRank[rank]);
    }
    if (gated.empty() && free_slots.empty()) {
        ++replay_.nextUnit;
        return;
    }
    const std::vector<InFlightInst *> &active = gated;

    // Fill-buffer model: block k of the trace is available k fast
    // cycles after the replay started (the initial TA + DA latency is
    // folded into the trace-change penalty).
    const std::uint32_t block =
        (u.firstSlot + u.count - 1) / ec_.blockSlots();
    if (now < replay_.start + Tick(block) * beFast_)
        return;

    // The Issue Unit is atomic: every instruction in it must be ready
    // (in-order VLIW-style interlock at Register Update / RegRead).
    // Stores co-issued earlier in the same unit satisfy a load's
    // disambiguation check, exactly as the recorded same-cycle
    // schedule did at build time.
    std::vector<InstSeqNum> &co_stores = coStoresScratch_;
    co_stores.clear();
    for (InFlightInst *p : active) {
        if (!operandsReady(*p, now))
            return;
        if (p->isLoad() &&
            !lsq_.loadMayIssue(p->arch.seq, co_stores)) {
            return;
        }
        if (p->isStore())
            co_stores.push_back(p->arch.seq);
    }

    // Claim functional units atomically (snapshot into a reused
    // buffer; this runs every trace-execution cycle).
    fus_.save(fuStateScratch_);
    for (InFlightInst *p : active) {
        if (!fus_.tryIssue(p->arch.op, now, double(beFast_))) {
            fus_.restore(fuStateScratch_);
            return;
        }
    }

    for (InFlightInst *p : active)
        issueOne(p, now, beCur_);
    for (InFlightInst *p : free_slots)
        issueOne(p, now, beCur_);

    ++events_.fillBufferOps;
    while (replay_.blocksRead <= block) {
        ++events_.ecDaReads;
        ++replay_.blocksRead;
    }
    ++replay_.nextUnit;
}

void
FlywheelCore::resolveDivergence(InFlightInst &branch, Tick now)
{
    FW_ASSERT(replayActive(), "divergence outside a replay");
    ++stats_.traceDivergences;
    replay_.divergenceResolved = true;
    replay_.allocLimit = std::min(replay_.allocLimit, replay_.valid);

    // Squash the wrong-path tail: allocation is rank-ordered, so all
    // squashed entries sit at the back of the ROB.
    lsq_.squashFrom(replay_.baseSeq + replay_.valid);
    std::uint64_t squashed_n = 0;
    while (!rob_.empty() && rob_.back().squashed) {
        InFlightInst &b = rob_.back();
        // Completion tracking holds issued-incomplete entries by
        // pointer; forget this one while it is still alive.
        dropPendingCompletion(&b);
        if (b.arch.hasDest()) {
            pools_.rollback(b.arch.dest, b.poolPrevSlot);
            // The slot reverts to holding its previous (committed)
            // value; without this a never-written slot would poison
            // any future reader with an eternal not-ready.  Wake-up
            // relies on a register read by a window entry only going
            // from not-ready to a known tick; dispatch waits for the
            // replay, so no window entry can read this one.
            FW_ASSERT(iw_.empty(),
                      "divergence rollback with a non-empty window");
            regReady_[b.destPhys] = 0;
        }
        rob_.pop_back();
        ++squashed_n;
    }
    if (tracer_)
        tracer_->instant(obs::TraceCat::Squash, "divergence_squash",
                         now, squashed_n, replay_.valid);

    // Recompute the last unit that still contains live work.
    Trace *t = replay_.trace;
    std::uint32_t last = 0;
    for (std::uint32_t ui = 0; ui < t->units.size(); ++ui) {
        const IssueUnit &u = t->units[ui];
        for (std::uint32_t j = u.firstSlot; j < u.firstSlot + u.count;
             ++j) {
            if (t->slots[j].rank < replay_.valid)
                last = ui;
        }
    }
    replay_.lastUnit = last;

    if (!ecLookupAndQueue(branch.arch.nextPc(), now, branch.arch.seq,
                          1 + params_.ecReadCycles)) {
        // Miss: restart the front-end; the residual valid slots keep
        // draining through the shared back-end stages.
        exitToCreate(now, true);
    }
}

bool
FlywheelCore::replayAllocDone() const
{
    return replay_.allocated >= replay_.allocLimit;
}

bool
FlywheelCore::replayIssueDone() const
{
    return replay_.nextUnit > replay_.lastUnit ||
           replay_.nextUnit >= replay_.trace->units.size();
}

void
FlywheelCore::maybeHandleReplayEnd(Tick now)
{
    if (!replayActive() || replay_.endHandled)
        return;
    if (!replayAllocDone() || !replayIssueDone())
        return;
    if (replay_.divergent && !replay_.divergenceResolved)
        return;  // the diverging branch has not reached Execute yet

    replay_.endHandled = true;
    if (!replay_.divergent) {
        // Clean trace completion: with the SRT the next trace starts
        // one cycle after the swap; without it, the FRT forces a wait
        // until the last instruction retires.
        Addr next_pc = stream_.peek(0).pc;
        Tick extra = params_.srtEnabled ? 1 : 1 + params_.ecReadCycles;
        InstSeqNum after = params_.srtEnabled
            ? 0
            : replay_.baseSeq + replay_.valid - 1;
        if (!ecLookupAndQueue(next_pc, now, after, extra))
            exitToCreate(now, true);
    }
    finishReplay(now);
}

void
FlywheelCore::finishReplay(Tick now)
{
    Trace *t = replay_.trace;
    ec_.unpin(t->startPc);
    if (tracer_)
        tracer_->instant(obs::TraceCat::Replay, "replay_finish", now,
                         replay_.valid, replay_.divergent ? 1 : 0);

    // Trace quality policy: rebuild stale traces (recorded while the
    // predictor was cold or under different loop bounds) rather than
    // replaying them forever.
    if (params_.traceRebuildPolicy) {
        const bool too_short = !replay_.divergent &&
            t->length() < params_.minTraceInstrs / 2;
        const bool early_diverge = replay_.divergent &&
            replay_.valid * 4 < t->length();
        if ((too_short || early_diverge) &&
            (!pending_.valid || pending_.trace != t)) {
            ec_.erase(t->startPc);
        }
    }
    replay_.reset();
}

void
FlywheelCore::exitToCreate(Tick now, bool resume_fetch)
{
    if (tracer_ && mode_ == Mode::Exec) {
        tracer_->instant(obs::TraceCat::EcMode, "ec_exit", now);
        tracer_->instant(obs::TraceCat::ClockPlan, "be_base", now,
                         beBase_);
    }
    mode_ = Mode::Create;
    beCur_ = beBase_;
    nextFe_ = ((now / feP_) + 1) * feP_;
    needNewTrace_ = true;
    if (resume_fetch) {
        // Restart crosses the domain boundary (one BE cycle sync).
        resumeFetch(now + beFast_ + feP_);
    }
}

// ---------------------------------------------------------------------------
// Dynamic register redistribution (Section 3.5 / [12]).
// ---------------------------------------------------------------------------

void
FlywheelCore::maybeRedistribute(Tick now)
{
    // The first counter check runs early (the paper notes steady
    // state is reached rapidly); subsequent checks use the full
    // 500k-cycle interval.
    const std::uint64_t interval = stats_.redistributions == 0
        ? std::min<std::uint64_t>(50000, params_.redistributionInterval)
        : params_.redistributionInterval;
    if (++beCyclesSinceCheck_ >= interval) {
        beCyclesSinceCheck_ = 0;
        double threshold = params_.redistributionStallFrac *
                           double(interval);
        if (double(pools_.stallsSinceCheck()) > threshold)
            redistributionArmed_ = true;
        else
            pools_.resetWindow();
    }

    if (!redistributionArmed_)
        return;
    if (!rob_.empty() || replayActive() || pending_.valid ||
        !feQueue_.empty()) {
        return;
    }

    redistributionArmed_ = false;
    if (pools_.redistribute()) {
        // Pool bases moved: every physical entry now holds a
        // committed (ready) value — nothing is in flight.  Wake-up
        // relies on a register read by a window entry only going from
        // not-ready to a known tick; the empty ROB keeps the window
        // empty too.
        FW_ASSERT(iw_.empty(),
                  "register redistribution with a non-empty window");
        for (auto &r : regReady_)
            r = 0;
        // All recorded renaming information is stale (Section 3.5).
        ec_.invalidateAll();
        builder_ = Builder{};
        finalizing_ = Builder{};
        draining_ = false;
        needNewTrace_ = true;
        ++stats_.redistributions;
        events_.checkpointOps += 2;
        if (tracer_)
            tracer_->instant(obs::TraceCat::ClockPlan, "redistribute",
                             now, stats_.redistributions);
        Tick stall = Tick(params_.redistributionCost) * beBase_;
        if (fetchStallUntil_ != kTickMax)
            fetchStallUntil_ = std::max(fetchStallUntil_, now + stall);
    }
}

// ---------------------------------------------------------------------------
// Clocking.
// ---------------------------------------------------------------------------

void
FlywheelCore::feEdge(Tick now)
{
    ++events_.feCycles;
    events_.feActiveTicks += feP_;
    // New fetches may not enter the ROB before all replay residuals
    // have been allocated (rank order = program order in the ROB).
    if (!replayActive())
        stepDispatch(now, beCur_);
    stepFetch(now, feP_);
}

void
FlywheelCore::beEdge(Tick now)
{
    ++events_.beCycles;
    if (mode_ == Mode::Create) {
        ++events_.iwActiveCycles;
        stepRetire(now, beCur_);
        stepComplete(now, beCur_);
        stepIssue(now, beCur_);
        if (replayActive()) {  // residual drain after an EC miss
            replayAllocate(now);
            replayIssue(now);
            maybeHandleReplayEnd(now);
        }
        maybeCompleteDrain(now);
        maybeRedistribute(now);
        maybeStartPendingReplay(now);
    } else {
        stepRetire(now, beCur_);
        stepComplete(now, beCur_);
        fus_.beginCycle(now);
        replayAllocate(now);
        replayIssue(now);
        maybeHandleReplayEnd(now);
        maybeRedistribute(now);
        maybeStartPendingReplay(now);
    }
}

void
FlywheelCore::run(std::uint64_t n)
{
    const std::uint64_t goal = stats_.retired + n;
    while (stats_.retired < goal) {
        if (mode_ == Mode::Exec || nextBe_ <= nextFe_) {
            const Tick now = nextBe_;
            beEdge(now);
            nextBe_ = now + beCur_;
            if (now > events_.totalTicks)
                events_.totalTicks = now;
            checkProgress(now);
        } else {
            const Tick now = nextFe_;
            feEdge(now);
            nextFe_ = now + feP_;
            if (now > events_.totalTicks)
                events_.totalTicks = now;
        }
    }
}

} // namespace flywheel
