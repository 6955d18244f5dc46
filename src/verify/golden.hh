/**
 * @file
 * Golden-figure regression: the paper-reproduction outputs
 * (fig12/fig13/fig14 sweep tables and the Table 1 clock-frequency
 * model) snapshotted as JSON documents and diffed on every run.
 *
 * Each figure's document holds both the derived metric the figure
 * plots (relative performance / energy / power per benchmark and
 * front-end boost) and the underlying raw numbers (execution time,
 * energy, EC residency), so an unintended change in either the
 * simulation or the derivation shows up as a precise field-level
 * diff.  The documents use short pinned run lengths — this is a
 * regression tripwire for refactors, not a paper-accuracy check (the
 * benches remain that) — and are byte-deterministic for any worker
 * count, courtesy of the sweep engine.
 *
 * Golden files live in tests/golden/ and are refreshed with
 * `flywheel_bench --refresh-golden tests/golden` after a deliberate
 * behaviour change (see README "Testing & verification").
 */

#ifndef FLYWHEEL_VERIFY_GOLDEN_HH
#define FLYWHEEL_VERIFY_GOLDEN_HH

#include <string>
#include <vector>

#include "common/json.hh"

namespace flywheel {

/** Snapshotted figures, in build order: fig12, fig13, fig14, table1. */
const std::vector<std::string> &goldenFigureNames();

/** Knobs for rebuilding the golden documents. */
struct GoldenOptions
{
    std::uint64_t warmupInstrs = 2000;   ///< pinned: golden files must
    std::uint64_t measureInstrs = 5000;  ///< not depend on env vars
    unsigned jobs = 0;  ///< sweep pool workers (0 = default)
};

/**
 * Recompute every golden document.  fig12/13/14 share one underlying
 * sweep grid, which is simulated once.  Returns (figure, document)
 * pairs in goldenFigureNames() order.
 */
std::vector<std::pair<std::string, Json>>
buildGoldenDocs(const GoldenOptions &opts = {});

/** Result of diffing one figure against its golden file. */
struct GoldenDiff
{
    std::string figure;
    std::string path;            ///< golden file compared against
    bool missing = false;        ///< golden file absent/unreadable
    std::vector<std::string> differences;  ///< "path: expected X, got Y"

    bool ok() const { return !missing && differences.empty(); }
};

/**
 * Structural diff of two JSON documents; appends up to @p max_diffs
 * "json.path: golden X, current Y" lines to @p out.  Numbers compare
 * exactly (both sides come from the same deterministic pipeline).
 */
void jsonDiff(const Json &golden, const Json &current,
              const std::string &path, std::vector<std::string> &out,
              std::size_t max_diffs = 16);

/**
 * Rebuild all documents and diff each against "<dir>/<figure>.json".
 */
std::vector<GoldenDiff> checkGoldenFiles(const std::string &dir,
                                         const GoldenOptions &opts = {});

/**
 * Rebuild all documents and (over)write "<dir>/<figure>.json".
 * @return false if any file cannot be written.
 */
bool writeGoldenFiles(const std::string &dir,
                      const GoldenOptions &opts = {});

} // namespace flywheel

#endif // FLYWHEEL_VERIFY_GOLDEN_HH
