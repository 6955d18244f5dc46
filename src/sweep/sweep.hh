/**
 * @file
 * The per-cell parts of the parallel experiment sweep.  Every figure
 * and table in the paper is a parameter sweep — benchmark x core kind
 * x clock boost x technology node — and Session (api/session.hh) runs
 * such grids on a worker thread pool instead of one point at a time.
 * This layer holds what that runner and the distributed serve workers
 * share: the labelled grid point (SweepPoint), the one-cell execution
 * policy (CellExecutor), and the finished table with its export
 * (SweepTable); the result store and thread pool live beside it.
 *
 * Guarantees:
 *  - deterministic results: points are returned in submission order
 *    and each point's RunResult is identical for any --jobs value,
 *    because runSim() shares no mutable state between runs (workload
 *    RNG and statistics are per-core instances; see the audit notes
 *    in README.md);
 *  - incremental re-runs: completed points are memoized in a
 *    ResultStore keyed by the full simulation-relevant config (in
 *    memory, and in one file per point under an optional cache
 *    directory), so repeating or extending a sweep only simulates new
 *    points;
 *  - structured export: a finished sweep serializes to JSON and CSV
 *    with byte-stable output.
 */

#ifndef FLYWHEEL_SWEEP_SWEEP_HH
#define FLYWHEEL_SWEEP_SWEEP_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "core/sim_driver.hh"
#include "snapshot/checkpointer.hh"
#include "sweep/result_store.hh"

namespace flywheel {

/** One (front-end, back-end) clock boost pair (the paper's FEx/BEy). */
struct ClockPoint
{
    double feBoost = 0.0;
    double beBoost = 0.0;
};

/** One grid point: a labelled RunConfig. */
struct SweepPoint
{
    std::string bench;          ///< profile name (row label)
    CoreKind kind = CoreKind::Baseline;
    ClockPoint clock;           ///< boosts baked into config.params
    RunConfig config;
    /**
     * Free-form row tag (grid-block name).  Presentation metadata
     * only: it distinguishes points that share (bench, kind, clock)
     * but came from different spec blocks; it is not part of the
     * result-store key.
     */
    std::string label;
};

/**
 * Identity of an exported row: configKey plus label.  Merged exports
 * keep the first row per identity, so figures sharing grid points
 * (fig12/13/14 run one grid) export them once, and served and local
 * tables dedup alike.
 */
std::string exportRowKey(const SweepPoint &point);

/** Short lower-case name for a core kind ("baseline", "ra", "flywheel"). */
const char *coreKindName(CoreKind kind);
/** Inverse of coreKindName(); returns false on unknown names. */
bool coreKindByName(const std::string &name, CoreKind *out);
/** Look up a TechNode from its techName() ("0.13um"); false if unknown. */
bool techNodeByName(const std::string &name, TechNode *out);

/**
 * RFC-4180 CSV field escaping: values containing commas, quotes or
 * line breaks are quoted with embedded quotes doubled; anything else
 * passes through unchanged.
 */
std::string csvField(const std::string &value);

/** One completed grid point. */
struct SweepRecord
{
    SweepPoint point;
    RunResult result;
    /** Nothing was simulated for this row: its result came from the
     *  store, or was reduced from a stored sibling's run. */
    bool fromCache = false;
    /**
     * Host wall-clock spent producing this cell (near zero on a cache
     * hit).  Telemetry only: never serialized by writeJson/writeCsv,
     * which must stay byte-identical for any worker count.
     */
    double wallSeconds = 0.0;
};

/**
 * Host-side telemetry for one sweep: wall-clock, cache effectiveness,
 * checkpoint-store traffic and worker-pool utilization.  Everything a
 * progress bar or a bench report wants to say about *how* the grid
 * ran; none of it enters writeJson/writeCsv, whose bytes describe only
 * *what* the grid computed.
 */
struct SweepTelemetry
{
    double wallSeconds = 0.0;       ///< whole-grid elapsed time
    std::size_t cells = 0;
    std::size_t cacheHits = 0;
    unsigned jobs = 0;
    std::uint64_t poolTasks = 0;
    double poolBusySeconds = 0.0;   ///< summed across workers
    // Checkpoint-store deltas over this sweep (all zero when the
    // session has no store).
    std::uint64_t checkpointMemoryHits = 0;
    std::uint64_t checkpointDiskHits = 0;
    std::uint64_t checkpointComputes = 0;
    std::uint64_t checkpointBytesWritten = 0;
    std::uint64_t checkpointBytesRead = 0;

    double cacheHitRate() const
    {
        return cells ? double(cacheHits) / double(cells) : 0.0;
    }
    /** Fraction of jobs x wallSeconds spent inside cell tasks. */
    double poolUtilization() const
    {
        const double budget = wallSeconds * double(jobs);
        return budget > 0.0 ? poolBusySeconds / budget : 0.0;
    }

    /** Structured dump (for --stats documents and bench reports). */
    Json toJson() const;
};

/** Results of a sweep, in submission order, with structured export. */
class SweepTable
{
  public:
    void add(SweepRecord record) { rows_.push_back(std::move(record)); }

    const std::vector<SweepRecord> &rows() const { return rows_; }
    std::size_t size() const { return rows_.size(); }
    const SweepRecord &at(std::size_t i) const { return rows_.at(i); }

    /** Full structured dump: config identity + complete RunResult. */
    void writeJson(std::ostream &os, int indent = 2) const;

    /** Flat spreadsheet view: one row per point, headline metrics. */
    void writeCsv(std::ostream &os) const;

    /** How the sweep ran (host-side; excluded from both writers). */
    const SweepTelemetry &telemetry() const { return telemetry_; }
    void setTelemetry(SweepTelemetry t) { telemetry_ = std::move(t); }

  private:
    std::vector<SweepRecord> rows_;
    SweepTelemetry telemetry_;
};

/**
 * One-cell execution policy — the single place that knows how a grid
 * cell runs: observability stamping (a traced cell without a label is
 * named "<bench>/<kind>/<configHash>", so each run gets its own
 * trace thread and equal names mean equal configs), result-store
 * lookup, runSim() over the checkpoint store, and the save that
 * publishes the result.  A cell whose simulatedConfig() differs from
 * it is reduced (reduceFor) from that canonical sibling's result,
 * which is looked up or simulated and saved in turn.  Observed runs
 * skip both the lookup and the derivation.  Session routes every
 * thread-pool task through this, and the distributed serve
 * workers (src/serve/) run the identical path over the shared store —
 * which is what makes a served table byte-identical to a local run.
 */
class CellExecutor
{
  public:
    /** Any of @p store / @p checkpointer may be null (disabled). */
    CellExecutor(ResultStore *store, Checkpointer *checkpointer,
                 ObsConfig obs = {})
        : store_(store), checkpointer_(checkpointer),
          obs_(std::move(obs))
    {}

    /**
     * Execute one config through the store/checkpointer policy.
     * *from_cache is true iff nothing was simulated in this call.
     */
    RunResult run(const RunConfig &config, bool *from_cache = nullptr);

  private:
    ResultStore *store_;
    Checkpointer *checkpointer_;
    ObsConfig obs_;
};

/**
 * Build the labelled grid point for @p bench_name on @p kind with the
 * given clock boosts — the standard way benches construct points.
 */
SweepPoint makePoint(const std::string &bench_name, CoreKind kind,
                     ClockPoint clock, TechNode node = TechNode::N130,
                     bool gating = false);

} // namespace flywheel

#endif // FLYWHEEL_SWEEP_SWEEP_HH
