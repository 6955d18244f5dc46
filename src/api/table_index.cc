#include "api/table_index.hh"

#include <cstdio>

#include "common/log.hh"
#include "sweep/result_store.hh"

namespace flywheel {

TableIndex::TableIndex(const SweepTable &table)
{
    std::unordered_map<std::string, std::string> configs;
    for (const SweepRecord &row : table.rows()) {
        std::string k =
            key(row.point.bench, row.point.kind, row.point.clock,
                row.point.config.node,
                row.point.config.frontEndPowerGating, row.point.label);
        // The key deliberately covers only the renderer-visible
        // identity; two blocks that differ solely in tweaks (or run
        // lengths) must be told apart by label.  Record collisions
        // and refuse to serve them — silently returning one of two
        // different configs would render wrong figure data.
        std::string full = configKey(row.point.config);
        auto [it, inserted] = configs.emplace(k, full);
        if (!inserted && it->second != full)
            ambiguous_.insert(k);
        rows_[k] = &row.result;
    }
}

std::string
TableIndex::key(const std::string &bench, CoreKind kind,
                ClockPoint clock, TechNode node, bool gating,
                const std::string &label)
{
    char clocks[64];
    std::snprintf(clocks, sizeof(clocks), "|%.6g|%.6g|", clock.feBoost,
                  clock.beBoost);
    return bench + "|" + coreKindName(kind) + clocks + techName(node) +
           (gating ? "|g1|" : "|g0|") + label;
}

const RunResult *
TableIndex::find(const std::string &bench, CoreKind kind,
                 ClockPoint clock, TechNode node, bool gating,
                 const std::string &label) const
{
    const std::string k = key(bench, kind, clock, node, gating, label);
    if (ambiguous_.count(k))
        FW_FATAL("table row '%s' is ambiguous (several rows share "
                 "this identity with different configs) — give the "
                 "grid blocks distinct labels",
                 k.c_str());
    auto it = rows_.find(k);
    return it == rows_.end() ? nullptr : it->second;
}

const RunResult &
TableIndex::get(const std::string &bench, CoreKind kind,
                ClockPoint clock, TechNode node, bool gating,
                const std::string &label) const
{
    const RunResult *r = find(bench, kind, clock, node, gating, label);
    if (!r)
        FW_FATAL("table has no point %s",
                 key(bench, kind, clock, node, gating, label).c_str());
    return *r;
}

} // namespace flywheel
