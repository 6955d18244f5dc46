/**
 * @file
 * Declarative experiment descriptions — the "what to run" of every
 * paper figure, ablation and ad-hoc study as a plain value.
 *
 * An ExperimentSpec is a list of cartesian grid blocks (GridSpec)
 * plus run lengths.  Specs round-trip
 * losslessly through JSON (the shipped figure specs live under
 * specs/), so new scenarios are data: a .json file fed to
 * `flywheel_bench --spec`, not a new binary.
 *
 * Parsing is strict: unknown fields, unknown enum names and
 * malformed axes are rejected with a precise error message instead
 * of being silently ignored, so a typo in a spec file fails the run
 * (and CI) rather than quietly running the wrong grid.
 */

#ifndef FLYWHEEL_API_EXPERIMENT_HH
#define FLYWHEEL_API_EXPERIMENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sweep/sweep.hh"

namespace flywheel {

/**
 * Optional CoreParams overrides applied on top of clockedParams().
 * Only the knobs the paper's figures and ablations vary are exposed;
 * unset fields leave the Table 2 defaults untouched.
 */
struct ParamTweaks
{
    std::optional<unsigned> extraFrontEndStages; ///< Fig 2 fetch loop
    std::optional<unsigned> wakeupExtraDelay;    ///< Fig 2 / Delay Network
    std::optional<bool> srtEnabled;              ///< SRT ablation
    std::optional<unsigned> ecBlockSlots;        ///< EC block geometry
    std::optional<unsigned> ecTotalBlocks;
    std::optional<unsigned> poolPhysRegs;        ///< Flywheel RF size
    std::optional<unsigned> minPoolSize;

    /** True if no override is set. */
    bool empty() const;

    /** Apply every set override to @p params. */
    void apply(CoreParams &params) const;

    /** Object holding only the set fields. */
    Json toJson() const;

    /** Strict parse; false + *error on unknown key or bad value. */
    static bool fromJson(const Json &j, ParamTweaks *out,
                         std::string *error);
};

/**
 * One cartesian block of an experiment: benchmarks x core kinds x
 * clock points x tech nodes x gating, with optional parameter
 * tweaks.  expand() enumerates in that fixed nesting order.
 */
struct GridSpec
{
    /**
     * Row tag carried into every SweepPoint of this block, so
     * renderers can tell apart blocks that share (bench, kind,
     * clock) but differ in tweaks (e.g. Fig 2's "fetch+1" vs
     * "wakeup+1" baselines).
     */
    std::string label;
    std::vector<std::string> benchmarks;  ///< empty = all ten
    std::vector<CoreKind> kinds{CoreKind::Flywheel};
    std::vector<ClockPoint> clocks{{0.0, 0.0}};
    std::vector<TechNode> nodes{TechNode::N130};
    std::vector<bool> gating{false};
    ParamTweaks tweaks;

    std::vector<SweepPoint> expand(std::uint64_t warmup_instrs,
                                   std::uint64_t measure_instrs) const;

    Json toJson() const;
    static bool fromJson(const Json &j, GridSpec *out,
                         std::string *error);
};

/** A complete, serializable experiment description. */
struct ExperimentSpec
{
    /** Schema tag required at the top of every spec document. */
    static constexpr const char *kSchema = "flywheel-experiment-v1";

    /**
     * Most cells a parsed document may expand to: about 47 MB of
     * SweepPoints.  The largest registered figure has 60 cells.
     */
    static constexpr std::uint64_t kMaxCells = 1u << 16;

    std::string name;    ///< identifier ("fig12", "my_study")
    std::string title;   ///< one-line human description
    /**
     * Name of a registered figure renderer to present the finished
     * table with (see api/figures.hh); empty = raw CSV.
     */
    std::string render;
    std::vector<GridSpec> grids;  ///< may be empty (model-only figures)
    /**
     * Run lengths per point; 0 defers to defaultWarmupInstrs() /
     * defaultMeasureInstrs() (and thus the FLYWHEEL_*_INSTRS env
     * overrides) at expansion time.
     */
    std::uint64_t warmupInstrs = 0;
    std::uint64_t measureInstrs = 0;

    /** All grid blocks, in order, with run lengths resolved. */
    std::vector<SweepPoint> expand() const;

    /**
     * The number of points expand() returns, computed without
     * expanding; saturates at UINT64_MAX instead of overflowing.
     */
    std::uint64_t cellCount() const;

    /** Canonical document (every field, fixed order). */
    Json toJson() const;

    /**
     * Strict parse of a spec document.  Members that documents from
     * earlier builds carry are accepted only at the values that meant
     * "off": `"repeat": 1`, `"verify": false` and an all-zero
     * `sampling` block.  A document of more than kMaxCells cells is
     * rejected.
     */
    static bool fromJson(const Json &j, ExperimentSpec *out,
                         std::string *error);

    /** Read and parse @p path; false + *error on any failure. */
    static bool load(const std::string &path, ExperimentSpec *out,
                     std::string *error);
};

} // namespace flywheel

#endif // FLYWHEEL_API_EXPERIMENT_HH
