/**
 * @file
 * Shared cycle-level pipeline engine for the baseline and Flywheel
 * cores.
 *
 * The engine is trace-driven from a WorkloadStream (the architectural
 * correct path).  Wrong-path fetch is not simulated: on a direction
 * mispredict, fetch stalls until the branch resolves and the full
 * redirect penalty is charged in time — the standard SimpleScalar-
 * class simplification.  All inter-stage timestamps are kept in
 * picosecond Ticks so that front-end and back-end clock domains of
 * different periods compose exactly; per-domain cycle counts are
 * accumulated separately for the clock-grid energy model.
 *
 * Stage model (paper Section 3.1, nine-stage baseline):
 *   Fetch1 Fetch2 Decode Rename Dispatch | Issue RegRead Execute WB/Retire
 * Dispatch performs renaming atomically with window insertion (the
 * rename stall point is thereby one stage later than in hardware,
 * which does not change any charged penalty).  A dispatched
 * instruction becomes visible to Wake-Up/Select one consumer-domain
 * cycle later — the synchronous pipeline latch in the baseline, the
 * Dual-Clock Issue Window synchronization latency in the Flywheel.
 */

#ifndef FLYWHEEL_CORE_CORE_BASE_HH
#define FLYWHEEL_CORE_CORE_BASE_HH

#include <functional>
#include <vector>

#include "branch/btb.hh"
#include "branch/gshare.hh"
#include "common/arena.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/functional_units.hh"
#include "core/inflight.hh"
#include "core/issue_window.hh"
#include "core/lsq.hh"
#include "core/params.hh"
#include "mem/hierarchy.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "power/events.hh"
#include "workload/generator.hh"

namespace flywheel {

class Snapshot;

/** Aggregate behavioural statistics exposed by every core. */
struct CoreStats
{
    std::uint64_t retired = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t btbMissBubbles = 0;
    std::uint64_t icacheMissStalls = 0;
    std::uint64_t robFullStalls = 0;
    std::uint64_t iwFullStalls = 0;
    std::uint64_t lsqFullStalls = 0;
    std::uint64_t renameStalls = 0;   ///< free-list / pool exhaustion

    // Flywheel-only.
    std::uint64_t ecRetired = 0;      ///< retired via the EC path
    std::uint64_t ecLookups = 0;
    std::uint64_t ecHits = 0;
    std::uint64_t tracesBuilt = 0;
    std::uint64_t traceChanges = 0;
    std::uint64_t traceDivergences = 0;
    std::uint64_t redistributions = 0;
    std::uint64_t checkpointStallCycles = 0;
};

/**
 * X-macro over every CoreStats field.  The JSON serialization
 * (core/report.cc), the window-delta operators below and the field
 * count all expand from this one list, so a newly added field is
 * either carried everywhere or trips the static_assert below.
 */
#define FW_CORE_STATS_FIELDS(X) \
    X(retired) X(condBranches) X(mispredicts) X(btbMissBubbles) \
    X(icacheMissStalls) X(robFullStalls) X(iwFullStalls) \
    X(lsqFullStalls) X(renameStalls) X(ecRetired) X(ecLookups) \
    X(ecHits) X(tracesBuilt) X(traceChanges) X(traceDivergences) \
    X(redistributions) X(checkpointStallCycles)

#define X(f) +1
constexpr std::size_t kCoreStatsFieldCount = 0 FW_CORE_STATS_FIELDS(X);
#undef X
static_assert(sizeof(CoreStats) ==
                  kCoreStatsFieldCount * sizeof(std::uint64_t),
              "CoreStats gained a field: add it to "
              "FW_CORE_STATS_FIELDS so the warm-up subtraction and "
              "serialization carry it");

/** Element-wise difference (warm-up window subtraction). */
inline CoreStats
operator-(const CoreStats &a, const CoreStats &b)
{
    CoreStats d;
#define X(f) d.f = a.f - b.f;
    FW_CORE_STATS_FIELDS(X)
#undef X
    return d;
}

/**
 * Common machinery of both cores; subclasses provide renaming and
 * the top-level clocking loop.
 */
class CoreBase
{
  public:
    CoreBase(const CoreParams &params, WorkloadStream &stream,
             unsigned phys_regs);
    virtual ~CoreBase() = default;

    /** Simulate until @p n more instructions have retired. */
    virtual void run(std::uint64_t n) = 0;

    const CoreParams &params() const { return params_; }
    const CoreStats &stats() const { return stats_; }
    const EnergyEvents &events() const { return events_; }
    const MemoryHierarchy &memory() const { return hier_; }

    /**
     * Hierarchical stats registry: every component registered its
     * live counters at construction, so a dump at any retirement
     * boundary reads consistent values.
     */
    const obs::StatsRegistry &statsRegistry() const
    {
        return statsRegistry_;
    }

    /**
     * Attach (or detach with nullptr) a pipeline event tracer.  The
     * core does not own it; the caller keeps it alive across run().
     * Null tracer = tracing off; every emit site guards with one
     * pointer compare, so the disabled path costs a single branch.
     */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }
    obs::Tracer *tracer() const { return tracer_; }

    /** Simulated wall-clock time elapsed so far (ps). */
    Tick elapsedPs() const { return events_.totalTicks; }

    /**
     * Observation tap invoked after every architectural retirement,
     * in program order (the verification subsystem cross-checks cores
     * through it).  The hook must not mutate simulator state.
     */
    using RetireHook = std::function<void(const InFlightInst &, Tick)>;
    void setRetireHook(RetireHook hook) { retireHook_ = std::move(hook); }

    // ---- state snapshots -------------------------------------------------
    /**
     * Serialize the complete dynamic simulator state — including the
     * workload stream the core is attached to — into @p snap.
     * Subclasses extend the document with their own "core" section.
     * Only legal between run() calls (an instruction-retirement
     * boundary); the per-cycle issue scratch is empty there.
     */
    virtual void save(Snapshot &snap) const;

    /**
     * Restore state saved by save().  The core must be freshly
     * constructed with identical CoreParams over a stream of the
     * identical program; afterwards, run() continues bit-identically
     * to the simulation the snapshot was taken from.  The retire hook
     * is not part of the state and survives untouched.
     */
    virtual void restore(const Snapshot &snap);

  protected:
    // ---- renaming hooks -------------------------------------------------
    /** True if the destination of @p inst can be renamed now.
     *  Non-const so implementations can record stall causes. */
    virtual bool canRenameDest(const InFlightInst &inst) = 0;
    /** Map source architected registers to physical indices. */
    virtual void renameSrcs(InFlightInst &inst) = 0;
    /** Allocate the destination register (after canRenameDest). */
    virtual void renameDest(InFlightInst &inst) = 0;

    // ---- mode hooks ------------------------------------------------------
    /** Called with each cycle's issued group (trace building). */
    virtual void onIssueGroup(const std::vector<InFlightInst *> &group,
                              Tick now);
    /** Mispredicted branch resolved; schedule the fetch redirect. */
    virtual void onMispredictResolved(InFlightInst &inst, Tick now);
    /** Instruction retiring (release pool entries, FRT update...). */
    virtual void onRetire(InFlightInst &inst, Tick now);
    /**
     * Fetch is about to consume the instruction at @p pc.  Return
     * false to hold fetch this cycle (Flywheel trace self-closure and
     * replay-switch detection).
     */
    virtual bool fetchGate(Addr pc, Tick now);

    // ---- pipeline steps (called by subclass run loops) -------------------
    void stepFetch(Tick now, Tick fe_period);
    void stepDispatch(Tick now, Tick visible_delay);
    void stepIssue(Tick now, Tick be_period);
    void stepComplete(Tick now, Tick be_period);
    void stepRetire(Tick now, Tick be_period);

    // ---- helpers ---------------------------------------------------------
    /**
     * Operand readiness against the physical scoreboard (the EC
     * replay interlock; window entries are woken by issueOne).
     */
    bool operandsReady(const InFlightInst &inst, Tick now) const;
    /** Issue bookkeeping shared by window issue and EC replay. */
    void issueOne(InFlightInst *inst, Tick now, Tick be_period);
    /**
     * Forget a tracked issued-but-incomplete instruction.  Squash
     * paths MUST call this for every ROB entry they pop that may have
     * issued, while the entry is still alive — stepComplete tracks
     * such instructions by pointer and must never see a dangling one.
     */
    void dropPendingCompletion(InFlightInst *inst);
    /** Resume fetch at tick @p at (mispredict redirect). */
    void resumeFetch(Tick at) { fetchStallUntil_ = at; }
    /** Watchdog: abort if the pipeline wedges. */
    void checkProgress(Tick now);

    /** Extra state dumped by the watchdog (mode machines etc.). */
    virtual std::string progressDebug() const { return {}; }

    // ---- snapshot plumbing ----------------------------------------------
    /** Sentinel for "no instruction" in serialized pointer slots. */
    static constexpr std::uint64_t kNoRobIndex = ~std::uint64_t(0);
    /** ROB index of @p inst (kNoRobIndex for nullptr). */
    std::uint64_t robIndexOf(const InFlightInst *inst) const;
    /** ROB entry at @p index (nullptr for kNoRobIndex). */
    InFlightInst *robAt(std::uint64_t index);

    CoreParams params_;  // lint: nosnapshot(geometry checked by restore, not mutated)
    WorkloadStream &stream_;

    /**
     * Owns every per-run mutable buffer below (and inside the
     * components): state lives exactly as long as the core, laid out
     * contiguously for the hot loops and the binary snapshot codec.
     */
    Arena arena_;  // lint: nosnapshot(backing store; contents saved via the components)

    MemoryHierarchy hier_;
    Gshare gshare_;
    Btb btb_;
    FunctionalUnits fus_;
    Lsq lsq_;
    IssueWindow iw_;

    /** Reorder buffer, program order, element-stable. */
    ArenaRing<InFlightInst> rob_;
    /** Front-end latches between Fetch and Dispatch. */
    ArenaRing<InFlightInst> feQueue_;
    std::size_t feQueueCap_;  // lint: nosnapshot(derived from params in ctor)

    /** Physical register readiness scoreboard (ticks). */
    ArenaVector<Tick> regReady_;

    EnergyEvents events_;
    CoreStats stats_;

    obs::StatsRegistry statsRegistry_;  // lint: nosnapshot(live pointers, rebuilt per run)
    obs::Tracer *tracer_ = nullptr;  // lint: nosnapshot(observer attachment, not sim state)

    Tick fetchStallUntil_ = 0;
    bool waitingOnMispredict_ = false;
    unsigned feDepth_;  // lint: nosnapshot(derived from params in ctor)

    std::uint64_t lastProgressRetired_ = 0;
    Tick lastProgressTick_ = 0;

    RetireHook retireHook_;  // lint: nosnapshot(callback, re-attached by the driver)

  private:
    std::vector<InFlightInst *> issuedGroup_;  // lint: nosnapshot(per-cycle scratch)
    Tick memTicks_;  // lint: nosnapshot(derived from params in ctor)
    // lint: nosnapshot(derived from params in ctor)
    Tick l2StallTicks_;       ///< fetch-miss stall, hoisted from the loop
    Tick progressHorizonTicks_;  // lint: nosnapshot(derived from params in ctor)

    /**
     * Issued-but-incomplete instructions (ROB pointers; the ring
     * guarantees element stability) plus the earliest completion tick
     * among them.  stepComplete runs every back-end cycle, so it must
     * not rescan the whole ROB: most cycles it bails on the tick
     * check, and otherwise walks only this short list.
     */
    ArenaVector<InFlightInst *> issuedPending_;
    Tick minCompleteTick_ = kTickMax;
};

} // namespace flywheel

#endif // FLYWHEEL_CORE_CORE_BASE_HH
