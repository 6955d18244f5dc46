/**
 * @file
 * Parallel experiment sweep engine.  Every figure and table in the
 * paper is a parameter sweep — benchmark x core kind x clock boost x
 * technology node — and this subsystem runs such grids on a worker
 * thread pool instead of one point at a time.
 *
 * Guarantees:
 *  - deterministic results: points are returned in submission order
 *    and each point's RunResult is identical for any --jobs value,
 *    because runSim() shares no mutable state between runs (workload
 *    RNG and statistics are per-core instances; see the audit notes
 *    in README.md);
 *  - incremental re-runs: completed points are memoized in a
 *    ResultCache keyed by the full simulation-relevant config, so
 *    repeating or extending a sweep only simulates new points;
 *  - structured export: a finished sweep serializes to JSON and CSV
 *    with byte-stable output.
 */

#ifndef FLYWHEEL_SWEEP_SWEEP_HH
#define FLYWHEEL_SWEEP_SWEEP_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/sim_driver.hh"
#include "snapshot/checkpointer.hh"
#include "sweep/result_cache.hh"
#include "sweep/thread_pool.hh"

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
     * result-cache key.
     */
    std::string label;
};

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

/**
 * Composable sweep axes.  expand() produces the cartesian product in
 * a fixed nesting order (benchmark, kind, clock, node, gating) so a
 * grid always enumerates the same way.
 */
struct SweepAxes
{
    std::vector<std::string> benchmarks;            ///< empty = all ten
    std::vector<CoreKind> kinds{CoreKind::Flywheel};
    std::vector<ClockPoint> clocks{{0.0, 0.0}};
    std::vector<TechNode> nodes{TechNode::N130};
    std::vector<bool> gating{false};
    std::uint64_t warmupInstrs;    ///< defaults honour FLYWHEEL_* env vars
    std::uint64_t measureInstrs;
    /** Snapshot/sampling policy stamped onto every point. */
    SnapshotPolicy snapshot;

    SweepAxes();

    std::vector<SweepPoint> expand() const;
};

/** One completed grid point. */
struct SweepRecord
{
    SweepPoint point;
    RunResult result;
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
    // runner has no store).
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
 * cell runs: observability stamping, result-cache lookup (skipped for
 * observed runs), the checkpointer's default Reuse policy, runSim(),
 * and the store-back.  SweepRunner routes every thread-pool task
 * through this, and the distributed serve workers (src/serve/) run
 * the identical path with a null cache — which is what makes a
 * served table byte-identical to a local run.
 */
class CellExecutor
{
  public:
    /** Any of @p cache / @p checkpointer may be null (disabled). */
    CellExecutor(ResultCache *cache, Checkpointer *checkpointer,
                 ObsConfig obs = {})
        : cache_(cache), checkpointer_(checkpointer),
          obs_(std::move(obs))
    {}

    /** Execute one config through the cache/checkpointer policy. */
    RunResult run(const RunConfig &config, bool *from_cache = nullptr);

  private:
    ResultCache *cache_;
    Checkpointer *checkpointer_;
    ObsConfig obs_;
};

/** Knobs for a SweepRunner. */
struct SweepOptions
{
    /** Worker threads; 0 = FLYWHEEL_JOBS env or hardware concurrency. */
    unsigned jobs = 0;
    /** Persist the result cache at this path (empty = memory only). */
    std::string cachePath;
    /**
     * Warm checkpoint store shared by every grid cell: "" disables
     * checkpointing entirely (historical behaviour), a directory
     * persists checkpoints on disk across invocations, and
     * Checkpointer::kMemoryOnly (":memory:") shares warmups across
     * cells of this process only.  Cells whose checkpoint keys match
     * pay the detailed warmup once.
     */
    std::string checkpointDir;
    /**
     * On-disk checkpoint store size cap in bytes; 0 = unlimited.
     * Enforced after every persist by mtime-LRU pruning.
     */
    std::uint64_t checkpointCapBytes = 0;
    /**
     * Progress callback, invoked after each point completes (in
     * completion order, serialized — never concurrently).
     */
    std::function<void(std::size_t done, std::size_t total,
                       const SweepPoint &point, const RunResult &result,
                       bool from_cache)>
        progress;
    /**
     * Observability attachments stamped onto every cell that does not
     * bring its own (see ObsConfig).  Observed cells bypass the
     * result-cache lookup: a cache hit would skip the simulation the
     * stats/trace documents are supposed to describe.
     */
    ObsConfig obs;
};

/**
 * Thread-pooled experiment runner.  The pool and cache persist across
 * run() calls, so one runner can serve several grids in a session and
 * later grids reuse earlier points.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /** Logs the checkpoint-store summary line (suppressed by Quiet). */
    ~SweepRunner();

    /** Run every point; results in submission order. */
    SweepTable run(const std::vector<SweepPoint> &points);

    /** Axes convenience overload. */
    SweepTable run(const SweepAxes &axes) { return run(axes.expand()); }

    /** Run one config through the cache. */
    RunResult runOne(const RunConfig &config, bool *from_cache = nullptr);

    ResultCache &cache() { return cache_; }
    /** Shared warm checkpoint store (null when disabled). */
    Checkpointer *checkpointer() { return checkpointer_.get(); }
    ThreadPool &pool() { return pool_; }
    unsigned jobs() const { return pool_.threadCount(); }

  private:
    SweepOptions options_;
    ResultCache cache_;
    std::unique_ptr<Checkpointer> checkpointer_;
    ThreadPool pool_;
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
