/**
 * @file
 * Human-readable run reports: format a RunResult as the kind of
 * summary a simulator user expects — performance, behaviour, an
 * energy breakdown and a cycle-accounting sketch.
 */

#ifndef FLYWHEEL_CORE_REPORT_HH
#define FLYWHEEL_CORE_REPORT_HH

#include <ostream>
#include <string>

#include "common/json.hh"
#include "core/sim_driver.hh"

namespace flywheel {

/** Write a full report of @p result titled @p title to @p os. */
void writeReport(std::ostream &os, const std::string &title,
                 const RunResult &result);

/**
 * Write a side-by-side comparison of two runs (e.g. baseline vs
 * Flywheel) with relative performance, energy and power.
 */
void writeComparison(std::ostream &os, const std::string &title_a,
                     const RunResult &a, const std::string &title_b,
                     const RunResult &b);

// ---- structured serialization (sweep export / result store) ----
//
// Field names are part of the on-disk format: result-store files are
// read back by fromJson, so renames require a kResultSchema bump in
// src/sweep/result_store.hh.  (Not configKey's "v=" field: that one
// is hashed into exported configHash values and checkpoint keys.)

Json toJson(const EnergyBreakdown &e);
Json toJson(const CoreStats &s);
Json toJson(const EnergyEvents &e);
Json toJson(const RunResult &r);

EnergyBreakdown energyBreakdownFromJson(const Json &j);
CoreStats coreStatsFromJson(const Json &j);
EnergyEvents energyEventsFromJson(const Json &j);
RunResult runResultFromJson(const Json &j);

/**
 * True if @p j carries every field runResultFromJson reads.  Lets
 * readers of persisted results (the result store) reject entries
 * written by an older field set instead of silently zero-filling.
 */
bool runResultJsonComplete(const Json &j);

} // namespace flywheel

#endif // FLYWHEEL_CORE_REPORT_HH
