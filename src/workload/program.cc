#include "workload/program.hh"

#include <algorithm>

#include "common/log.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

namespace {

/** Integer registers r0/r1 are reserved as global base pointers. */
constexpr ArchReg kGlobalBase = 1;
constexpr unsigned kFirstAllocInt = 2;
constexpr unsigned kFirstAllocFp = kNumIntRegs;

/** Working registers available to one region. */
struct RegionRegs
{
    std::vector<ArchReg> intRegs;
    std::vector<ArchReg> fpRegs;
    std::size_t intCursor = 0;
    std::size_t fpCursor = 0;
};

} // namespace

StaticProgram::StaticProgram(const BenchProfile &profile)
    : profile_(profile)
{
    FW_ASSERT(profile_.staticBlocks >= 4, "program too small");
    FW_ASSERT(profile_.regions >= 1, "need at least one region");
    if (profile_.regions * 3 > profile_.staticBlocks)
        profile_.regions = std::max(1u, profile_.staticBlocks / 3);
    build();
    assignAddresses();
}

void
StaticProgram::build()
{
    Pcg32 rng(profile_.seed, 0x5bd1e995);

    // Data objects: two per region — a small *hot* object that fits
    // comfortably in the L1 working set (most accesses) and a large
    // *cold* object carrying the rest of the footprint (streaming /
    // pointer-chasing accesses).  This reproduces typical SPEC-era
    // locality: a 64K L1 captures the vast majority of references
    // while the cold sweeps set the L2/memory pressure.
    const unsigned num_objs = std::max(2u, profile_.regions * 2);
    const std::uint32_t cold_size = std::max<std::uint32_t>(
        4096, profile_.dataFootprintKB * 1024u / (num_objs / 2));
    const std::uint32_t hot_size = std::min<std::uint32_t>(
        16 * 1024, std::max<std::uint32_t>(1024, cold_size / 16));
    objects_.resize(num_objs);
    Addr base = dataBase();
    for (unsigned i = 0; i < num_objs; ++i) {
        const bool hot = (i % 2) == 0;
        objects_[i].base = base;
        objects_[i].size = hot ? hot_size : cold_size;
        base += static_cast<Addr>(objects_[i].size) * 2;
    }

    // Per-region destination register working sets.  A small working
    // set concentrates in-flight writes onto few architected
    // registers, which is what stresses the Flywheel's per-register
    // rename pools (Section 3.4/3.5 of the paper).
    // One global destination working set, sampled without
    // replacement: a compiler applies the same register allocation
    // conventions across the whole program, which is what makes the
    // Flywheel's dynamic pool redistribution converge quickly
    // (Section 3.5).  Every region shares it.
    RegionRegs shared_regs;
    {
        std::vector<ArchReg> int_pool;
        for (unsigned r = kFirstAllocInt; r < kNumIntRegs; ++r)
            int_pool.push_back(static_cast<ArchReg>(r));
        std::vector<ArchReg> fp_pool;
        for (unsigned r = 0; r < kNumFpRegs; ++r)
            fp_pool.push_back(static_cast<ArchReg>(kFirstAllocFp + r));
        // Fisher-Yates partial shuffle.
        auto sample = [&rng](std::vector<ArchReg> &pool, unsigned n) {
            std::vector<ArchReg> out;
            for (unsigned i = 0; i < n && i < pool.size(); ++i) {
                std::uint32_t j = i + rng.below(
                    static_cast<std::uint32_t>(pool.size()) - i);
                std::swap(pool[i], pool[j]);
                out.push_back(pool[i]);
            }
            return out;
        };
        unsigned ws = std::min<unsigned>(kNumIntRegs - kFirstAllocInt,
                                         std::max(3u,
                                                  profile_.regWorkingSet));
        shared_regs.intRegs = sample(int_pool, ws);
        shared_regs.fpRegs = sample(fp_pool, std::max(3u, ws));
    }
    std::vector<RegionRegs> region_regs(profile_.regions, shared_regs);

    // Region block budgets (region exit blocks included).
    const unsigned blocks_per_region =
        std::max(3u, profile_.staticBlocks / profile_.regions);

    blocks_.clear();
    std::vector<std::uint32_t> region_entry(profile_.regions, 0);

    // Ring of recently written registers used to create dependencies
    // with a controllable distance distribution.
    std::vector<ArchReg> recent_int{kGlobalBase};
    std::vector<ArchReg> recent_fp;

    auto pick_recent = [&](std::vector<ArchReg> &recent,
                           const std::vector<ArchReg> &ws) -> ArchReg {
        if (recent.empty() || !rng.chance(0.75))
            return ws[rng.below(static_cast<std::uint32_t>(ws.size()))];
        std::uint32_t d = rng.geometric(profile_.avgDepDist,
                                        static_cast<std::uint32_t>(
                                            std::min<size_t>(recent.size(),
                                                             64)));
        return recent[recent.size() - d];
    };

    auto push_recent = [](std::vector<ArchReg> &recent, ArchReg r) {
        recent.push_back(r);
        if (recent.size() > 64)
            recent.erase(recent.begin());
    };

    // Destination selection models live-range register allocation: a
    // compiler rotates results through distinct registers so writes
    // to the same architected register are spaced roughly a working
    // set apart (this is what bounds the per-register in-flight write
    // count that the Flywheel's rename pools must absorb).  A small
    // fraction of writes reuse a recent destination, modelling
    // loop-carried accumulators.
    auto pick_dest = [&rng](RegionRegs &rr, bool fp,
                            const std::vector<ArchReg> &recent) -> ArchReg {
        auto &ws = fp ? rr.fpRegs : rr.intRegs;
        auto &cursor = fp ? rr.fpCursor : rr.intCursor;
        if (!recent.empty() && rng.chance(0.15))
            return recent[recent.size() - 1 -
                          rng.below(static_cast<std::uint32_t>(
                              std::min<std::size_t>(recent.size(), 4)))];
        ArchReg r = ws[cursor % ws.size()];
        ++cursor;
        return r;
    };

    for (unsigned r = 0; r < profile_.regions; ++r) {
        region_entry[r] = static_cast<std::uint32_t>(blocks_.size());
        RegionRegs &rr = region_regs[r];
        const unsigned body_blocks = blocks_per_region - 1;

        unsigned placed = 0;
        while (placed < body_blocks) {
            // One loop nest: 1..5 consecutive blocks with a backward
            // conditional branch on the last one.
            unsigned body = std::min<unsigned>(
                body_blocks - placed, 1 + rng.below(5));
            std::uint32_t loop_head =
                static_cast<std::uint32_t>(blocks_.size());

            for (unsigned b = 0; b < body; ++b) {
                BasicBlock blk;
                unsigned nops = std::max<std::uint32_t>(
                    2, rng.geometric(profile_.avgBlockSize, 16));
                for (unsigned i = 0; i < nops; ++i) {
                    StaticOp op;
                    double roll = rng.uniform();
                    if (roll < profile_.loadFrac) {
                        op.op = OpClass::Load;
                    } else if (roll < profile_.loadFrac +
                                      profile_.storeFrac) {
                        op.op = OpClass::Store;
                    } else if (roll < profile_.loadFrac +
                                      profile_.storeFrac +
                                      profile_.fpFrac) {
                        double f = rng.uniform();
                        op.op = f < 0.57 ? OpClass::FpAdd
                              : f < 0.97 ? OpClass::FpMul
                                         : OpClass::FpDiv;
                    } else {
                        double f = rng.uniform();
                        op.op = f < profile_.divFrac ? OpClass::IntDiv
                              : f < profile_.divFrac + profile_.mulFrac
                                         ? OpClass::IntMul
                                         : OpClass::IntAlu;
                    }

                    bool fp = isFpOp(op.op);
                    const auto &dst_ws = fp ? rr.fpRegs : rr.intRegs;
                    auto &recent = fp ? recent_fp : recent_int;

                    switch (op.op) {
                      case OpClass::Load:
                        op.src1 = kGlobalBase;
                        op.dest = pick_dest(rr, false, recent_int);
                        // Most static memory ops reference the hot
                        // (cache-resident) object; cold references
                        // use small strides so several hit per line.
                        if (rng.chance(0.93)) {
                            op.memObj = static_cast<std::uint16_t>(r * 2);
                            op.stride = static_cast<std::uint16_t>(
                                4u << rng.below(3));
                        } else {
                            op.memObj =
                                static_cast<std::uint16_t>(r * 2 + 1);
                            op.stride = static_cast<std::uint16_t>(
                                4u << rng.below(2));
                        }
                        break;
                      case OpClass::Store:
                        op.src1 = kGlobalBase;
                        op.src2 = pick_recent(recent_int, rr.intRegs);
                        if (rng.chance(0.93)) {
                            op.memObj = static_cast<std::uint16_t>(r * 2);
                            op.stride = static_cast<std::uint16_t>(
                                4u << rng.below(3));
                        } else {
                            op.memObj =
                                static_cast<std::uint16_t>(r * 2 + 1);
                            op.stride = static_cast<std::uint16_t>(
                                4u << rng.below(2));
                        }
                        break;
                      default:
                        op.src1 = pick_recent(recent, dst_ws);
                        if (rng.chance(0.6))
                            op.src2 = pick_recent(recent, dst_ws);
                        op.dest = pick_dest(rr, fp,
                                            fp ? recent_fp : recent_int);
                        break;
                    }
                    if (op.dest != kNoArchReg)
                        push_recent(fp ? recent_fp : recent_int, op.dest);
                    blk.ops.push_back(op);
                }

                bool last_of_body = (b + 1 == body);
                if (last_of_body) {
                    blk.term.kind = TermKind::Loop;
                    blk.term.target = loop_head;
                    blk.term.tripMean = profile_.loopTripMean;
                    blk.term.condSrc =
                        pick_recent(recent_int, rr.intRegs);
                } else if (rng.chance(profile_.callProb)) {
                    blk.term.kind = TermKind::Call;
                    blk.term.target = 0;  // patched after all regions built
                    blk.term.pTaken = 0.05;
                    blk.term.condSrc =
                        pick_recent(recent_int, rr.intRegs);
                } else if (rng.chance(profile_.diamondFrac)) {
                    blk.term.kind = TermKind::Biased;
                    // Skip over the next block.
                    blk.term.target =
                        static_cast<std::uint32_t>(blocks_.size()) + 2;
                    // Real branch behaviour is bimodal: ~70% of
                    // conditional branches are almost one-sided
                    // (trivially predictable and rarely divert a
                    // recorded trace) while the rest carry the
                    // profile's "hard" bias.
                    blk.term.pTaken = rng.chance(0.70)
                        ? 0.02
                        : 1.0 - profile_.branchBias;
                    blk.term.condSrc =
                        pick_recent(recent_int, rr.intRegs);
                }
                blocks_.push_back(std::move(blk));
                ++placed;
                if (placed >= body_blocks)
                    break;
            }
        }

        // Region exit block: short, ends with an unconditional jump to
        // the next region (target patched below once all regions exist).
        BasicBlock exit_blk;
        StaticOp op;
        op.op = OpClass::IntAlu;
        op.src1 = kGlobalBase;
        op.dest = rr.intRegs[0];
        exit_blk.ops.push_back(op);
        exit_blk.term.kind = TermKind::Jump;
        exit_blk.term.target = 0;
        blocks_.push_back(std::move(exit_blk));
    }

    // Patch region-exit jumps to the next region entry (cyclic) and
    // wire fall-through successors.
    for (unsigned r = 0; r < profile_.regions; ++r) {
        std::uint32_t exit_id = (r + 1 < profile_.regions)
            ? region_entry[r + 1] - 1
            : static_cast<std::uint32_t>(blocks_.size()) - 1;
        blocks_[exit_id].term.target =
            region_entry[(r + 1) % profile_.regions];
    }
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
        blocks_[i].fallthrough =
            (i + 1 < blocks_.size()) ? i + 1 : region_entry[0];
        // Clamp diamond targets that would run off the block list.
        if (blocks_[i].term.kind == TermKind::Biased &&
            blocks_[i].term.target >= blocks_.size()) {
            blocks_[i].term.target = blocks_[i].fallthrough;
        }
    }
    // Patch call targets to the entry of a different region so they
    // model irregular inter-procedural transfers.
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
        if (blocks_[i].term.kind == TermKind::Call) {
            unsigned tgt_region = rng.below(profile_.regions);
            blocks_[i].term.target = region_entry[tgt_region];
        }
    }

    entry_ = region_entry[0];
}

void
StaticProgram::assignAddresses()
{
    Addr pc = codeBase();
    for (auto &b : blocks_) {
        b.pc = pc;
        pc += static_cast<Addr>(b.size()) * kInstBytes;
    }
}

bool
StaticProgram::decodeAt(Addr pc, DynInst *out, std::size_t *block) const
{
    if (pc < codeBase() || pc % kInstBytes != 0)
        return false;
    auto holds = [&](std::size_t b) {
        return pc >= blocks_[b].pc &&
               (pc - blocks_[b].pc) / kInstBytes < blocks_[b].size();
    };
    std::size_t b = block ? *block : 0;
    if (b >= blocks_.size() || !holds(b)) {
        // The last block starting at or before pc.
        auto it = std::upper_bound(
            blocks_.begin(), blocks_.end(), pc,
            [](Addr a, const BasicBlock &blk) { return a < blk.pc; });
        if (it == blocks_.begin())
            return false;
        b = static_cast<std::size_t>(it - blocks_.begin()) - 1;
        if (!holds(b))
            return false;
    }
    if (block)
        *block = b;
    staticFields(blocks_[b], (pc - blocks_[b].pc) / kInstBytes, out);
    return true;
}

namespace {

constexpr std::uint8_t kTaken = 0x01;
constexpr std::uint8_t kDerived = 0x02;  ///< static fields from the program

/** An architected register as a uvar: 0 = none, else 1 + the register. */
void
putReg(BinWriter &w, ArchReg reg)
{
    w.uvar(reg == kNoArchReg ? 0 : std::uint64_t(reg) + 1);
}

ArchReg
getReg(BinReader &r)
{
    const std::uint64_t v = r.uvar();
    if (v == 0)
        return kNoArchReg;
    FW_ASSERT(v <= kNumArchRegs,
              "snapshot record register %llu out of range",
              (unsigned long long)(v - 1));
    return static_cast<ArchReg>(v - 1);
}

} // namespace

void
InstRecordCodec::put(BinWriter &w, const DynInst &d)
{
    DynInst s;
    const bool derived =
        prog_.decodeAt(d.pc, &s, &block_) && s.op == d.op &&
        s.dest == d.dest && s.src1 == d.src1 && s.src2 == d.src2 &&
        s.isCondBranch == d.isCondBranch && s.target == d.target;
    w.u8((d.taken ? kTaken : 0) | (derived ? kDerived : 0));
    w.svar(static_cast<std::int64_t>(d.seq - seq_));
    w.svar(instDelta(d.pc, pc_));
    seq_ = d.seq;
    pc_ = d.pc;
    if (!derived) {
        w.u8(static_cast<std::uint8_t>(d.op));
        putReg(w, d.dest);
        putReg(w, d.src1);
        putReg(w, d.src2);
        w.b(d.isCondBranch);
        w.uvar(d.target);
    }
    if (isMemOp(d.op)) {
        w.svar(static_cast<std::int64_t>(d.effAddr - addr_));
        addr_ = d.effAddr;
    } else {
        FW_ASSERT(d.effAddr == 0,
                  "non-memory record at pc 0x%llx carries an address",
                  (unsigned long long)d.pc);
    }
}

DynInst
InstRecordCodec::get(BinReader &r)
{
    DynInst d;
    const std::uint8_t flags = r.u8();
    FW_ASSERT(flags <= (kTaken | kDerived),
              "snapshot record flags 0x%x out of range", unsigned(flags));
    d.taken = flags & kTaken;
    d.seq = seq_ += static_cast<InstSeqNum>(r.svar());
    d.pc = pc_ = plusInsts(pc_, r.svar());
    if (flags & kDerived) {
        FW_ASSERT(prog_.decodeAt(d.pc, &d, &block_),
                  "snapshot record at pc 0x%llx is not an instruction "
                  "of program %s",
                  (unsigned long long)d.pc, prog_.profile().name);
    } else {
        const std::uint8_t op = r.u8();
        FW_ASSERT(op <= static_cast<unsigned>(OpClass::Nop),
                  "snapshot record op %u out of range", unsigned(op));
        d.op = static_cast<OpClass>(op);
        d.dest = getReg(r);
        d.src1 = getReg(r);
        d.src2 = getReg(r);
        d.isCondBranch = r.b();
        d.target = r.uvar();
    }
    if (isMemOp(d.op))
        d.effAddr = addr_ += static_cast<Addr>(r.svar());
    return d;
}

} // namespace flywheel
