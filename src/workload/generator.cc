#include "workload/generator.hh"

#include "common/log.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

WorkloadStream::WorkloadStream(const StaticProgram &program,
                               std::uint64_t seed)
    : prog_(program),
      rng_(seed ^ program.profile().seed, 0x2545f491),
      curBlock_(program.entryBlock())
{
    tripsLeft_.assign(program.blocks().size(), 0);
    baseTrips_.assign(program.blocks().size(), 0);
    cursors_.assign(program.objects().size(), 0);
}

void
WorkloadStream::produce()
{
    const auto &blocks = prog_.blocks();
    const BenchProfile &prof = prog_.profile();

    // Silent fall-through: no instruction is emitted for these block
    // boundaries, so no sequence number may be consumed.
    while (opIdx_ >= blocks[curBlock_].ops.size() &&
           blocks[curBlock_].term.kind == TermKind::None) {
        opIdx_ = 0;
        curBlock_ = blocks[curBlock_].fallthrough;
    }
    const BasicBlock &blk = blocks[curBlock_];

    DynInst inst;
    inst.seq = nextSeq_++;

    if (opIdx_ < blk.ops.size()) {
        // Straight-line op.
        const StaticOp &sop = blk.ops[opIdx_];
        inst.pc = blk.pc + static_cast<Addr>(opIdx_) * kInstBytes;
        prog_.staticFields(blk, opIdx_, &inst);
        if (isMemOp(sop.op)) {
            const DataObject &obj = prog_.objects()[sop.memObj];
            std::uint32_t &cur = cursors_[sop.memObj];
            std::uint32_t offset;
            if (rng_.chance(prof.memRandomFrac)) {
                offset = rng_.below(obj.size / sop.stride) * sop.stride;
            } else {
                cur = (cur + sop.stride) % obj.size;
                offset = cur;
            }
            inst.effAddr = obj.base + offset;
        }
        ++opIdx_;
        lookahead_.push_back(inst);
        return;
    }

    // Terminator branch.
    inst.pc = blk.branchPc();
    prog_.staticFields(blk, opIdx_, &inst);

    bool taken = false;
    switch (blk.term.kind) {
      case TermKind::Jump:
        taken = true;
        break;
      case TermKind::Loop: {
        std::uint32_t &left = tripsLeft_[curBlock_];
        if (left == 0) {
            // Fresh loop activation.  The base trip count is stable
            // across activations (drawn once); 8% of activations run
            // one iteration long/short and 3% re-draw entirely,
            // modelling data-dependent loop bounds.
            std::uint32_t &base = baseTrips_[curBlock_];
            if (base == 0 || rng_.chance(0.02)) {
                base = std::max<std::uint32_t>(
                    1, rng_.geometric(blk.term.tripMean, 4096));
            }
            left = base;
            if (rng_.chance(0.05))
                left = std::max<std::uint32_t>(1, left + rng_.below(3) - 1);
        }
        --left;
        taken = (left > 0);  // re-enter the body until trips exhausted
        break;
      }
      case TermKind::Biased:
      case TermKind::Call:
        taken = rng_.chance(blk.term.pTaken);
        break;
      case TermKind::None:
        FW_PANIC("unreachable terminator kind");
    }

    inst.taken = taken;
    opIdx_ = 0;
    curBlock_ = taken ? blk.term.target : blk.fallthrough;
    lookahead_.push_back(inst);
}

void
WorkloadStream::skip(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        next();
}

void
WorkloadStream::save(BinWriter &w) const
{
    // Program identity guard: a snapshot restored over a different
    // program would silently desynchronize everything downstream.
    w.str(std::string(prog_.profile().name));
    w.u64(prog_.profile().seed);
    const Pcg32::State rng = rng_.getState();
    w.u64(rng.state);
    w.u64(rng.inc);
    w.u32(curBlock_);
    w.u32(opIdx_);
    w.podArray(tripsLeft_.data(), tripsLeft_.size());
    w.podArray(baseTrips_.data(), baseTrips_.size());
    w.podArray(cursors_.data(), cursors_.size());
    // The last consumed instruction, then the pending ones: one list
    // in program order.
    InstRecordCodec records(prog_);
    records.put(w, current_);
    w.uvar(lookahead_.size() - head_);
    for (std::size_t i = head_; i < lookahead_.size(); ++i)
        records.put(w, lookahead_[i]);
    w.u64(consumed_);
    w.u64(nextSeq_);
}

void
WorkloadStream::restore(BinReader &r)
{
    const std::string profile = r.str();
    const std::uint64_t seed = r.u64();
    FW_ASSERT(profile == prog_.profile().name &&
                  seed == prog_.profile().seed,
              "stream snapshot belongs to a different program (%s/%llu)",
              profile.c_str(), (unsigned long long)seed);
    Pcg32::State rng;
    rng.state = r.u64();
    rng.inc = r.u64();
    rng_.setState(rng);
    curBlock_ = r.u32();
    opIdx_ = r.u32();
    // The cursor tables are geometry-fixed at construction; the
    // stored counts must match the program exactly.
    r.podArray(tripsLeft_.data(), tripsLeft_.size());
    r.podArray(baseTrips_.data(), baseTrips_.size());
    r.podArray(cursors_.data(), cursors_.size());
    InstRecordCodec records(prog_);
    current_ = records.get(r);
    const std::uint64_t pending = r.uvarCount(InstRecordCodec::kMinBytes);
    lookahead_.clear();
    head_ = 0;
    for (std::uint64_t i = 0; i < pending; ++i)
        lookahead_.push_back(records.get(r));
    consumed_ = r.u64();
    nextSeq_ = r.u64();
}

} // namespace flywheel
