#include "sweep/sweep.hh"

#include "common/json.hh"
#include "core/report.hh"
#include "workload/profiles.hh"

namespace flywheel {

const char *
coreKindName(CoreKind kind)
{
    switch (kind) {
      case CoreKind::Baseline: return "baseline";
      case CoreKind::RegisterAllocation: return "ra";
      case CoreKind::Flywheel: return "flywheel";
    }
    return "unknown";
}

bool
coreKindByName(const std::string &name, CoreKind *out)
{
    for (CoreKind k : {CoreKind::Baseline, CoreKind::RegisterAllocation,
                       CoreKind::Flywheel}) {
        if (name == coreKindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

bool
techNodeByName(const std::string &name, TechNode *out)
{
    for (TechNode n : allTechNodes()) {
        if (name == techName(n)) {
            *out = n;
            return true;
        }
    }
    return false;
}

SweepPoint
makePoint(const std::string &bench_name, CoreKind kind, ClockPoint clock,
          TechNode node, bool gating)
{
    SweepPoint pt;
    pt.bench = bench_name;
    pt.kind = kind;
    pt.clock = clock;
    pt.config.profile = benchmarkByName(bench_name);
    pt.config.kind = kind;
    pt.config.params = clockedParams(clock.feBoost, clock.beBoost);
    pt.config.node = node;
    pt.config.frontEndPowerGating = gating;
    pt.config.warmupInstrs = defaultWarmupInstrs();
    pt.config.measureInstrs = defaultMeasureInstrs();
    return pt;
}

std::string
exportRowKey(const SweepPoint &point)
{
    return configKey(point.config) + "|" + point.label;
}

namespace {

/** configHash: the digest of @p config_key. */
std::string
configHash(const std::string &config_key)
{
    return hexDigest(fnv1a64(config_key));
}

Json
pointJson(const SweepPoint &pt)
{
    Json j = Json::object();
    j.set("bench", pt.bench);
    j.set("label", pt.label);
    j.set("kind", coreKindName(pt.kind));
    j.set("node", techName(pt.config.node));
    j.set("feBoost", pt.clock.feBoost);
    j.set("beBoost", pt.clock.beBoost);
    j.set("gating", pt.config.frontEndPowerGating);
    j.set("warmupInstrs", pt.config.warmupInstrs);
    j.set("measureInstrs", pt.config.measureInstrs);
    j.set("configHash", configHash(configKey(pt.config)));
    return j;
}

} // namespace

Json
SweepTelemetry::toJson() const
{
    Json j = Json::object();
    j.set("wallSeconds", wallSeconds);
    j.set("cells", std::uint64_t(cells));
    j.set("cacheHits", std::uint64_t(cacheHits));
    j.set("cacheHitRate", cacheHitRate());
    j.set("jobs", std::uint64_t(jobs));
    j.set("poolTasks", poolTasks);
    j.set("poolBusySeconds", poolBusySeconds);
    j.set("poolUtilization", poolUtilization());
    j.set("checkpointMemoryHits", checkpointMemoryHits);
    j.set("checkpointDiskHits", checkpointDiskHits);
    j.set("checkpointComputes", checkpointComputes);
    j.set("checkpointBytesWritten", checkpointBytesWritten);
    j.set("checkpointBytesRead", checkpointBytesRead);
    return j;
}

void
SweepTable::writeJson(std::ostream &os, int indent) const
{
    Json doc = Json::object();
    doc.set("schema", "flywheel-sweep-v1");
    Json rows = Json::array();
    for (const auto &row : rows_) {
        Json r = Json::object();
        r.set("point", pointJson(row.point));
        r.set("result", toJson(row.result));
        rows.push(std::move(r));
    }
    doc.set("points", std::move(rows));
    doc.write(os, indent);
    os << '\n';
}

std::string
csvField(const std::string &value)
{
    if (value.find_first_of(",\"\n\r") == std::string::npos)
        return value;
    std::string quoted = "\"";
    for (char c : value) {
        quoted += c;
        if (c == '"')
            quoted += '"';
    }
    quoted += '"';
    return quoted;
}

void
SweepTable::writeCsv(std::ostream &os) const
{
    os << "bench,kind,node,feBoost,beBoost,gating,instructions,timePs,"
          "ipc,ecResidency,mispredictRate,totalPj,averageWatts,label\n";
    for (const auto &r : rows_) {
        // Reuse the JSON number formatter so CSV bytes are stable too.
        auto num = [](double v) { return Json(v).dump(); };
        os << csvField(r.point.bench) << ','
           << coreKindName(r.point.kind) << ','
           << techName(r.point.config.node) << ','
           << num(r.point.clock.feBoost) << ','
           << num(r.point.clock.beBoost) << ','
           << (r.point.config.frontEndPowerGating ? 1 : 0) << ','
           << r.result.instructions << ',' << r.result.timePs << ','
           << num(r.result.ipc) << ',' << num(r.result.ecResidency)
           << ',' << num(r.result.mispredictRate) << ','
           << num(r.result.energy.totalPj()) << ','
           << num(r.result.averageWatts) << ','
           << csvField(r.point.label) << '\n';
    }
}

RunResult
CellExecutor::run(const RunConfig &config, bool *from_cache)
{
    RunConfig cfg = config;
    if (!cfg.obs.active() && obs_.active())
        cfg.obs = obs_;
    const std::string key = configKey(cfg);
    if (cfg.obs.traceSink && cfg.obs.traceLabel.empty())
        cfg.obs.traceLabel = std::string(cfg.profile.name) + "/" +
                             coreKindName(cfg.kind) + "/" +
                             configHash(key);
    RunResult result;
    // An observed run must actually execute: a cache hit or a derived
    // result would skip the simulation its stats/trace documents are
    // meant to describe.  Saving the result is still sound — the
    // stored payload excludes everything ObsConfig adds.
    if (!cfg.obs.active() && store_ && store_->lookup(key, &result)) {
        if (from_cache)
            *from_cache = true;
        return result;
    }
    // Tech node and gating reach only the reduction: reduce the
    // canonical sibling's run, looked up or simulated once and saved.
    bool sibling_cached = false;
    const RunConfig sim = simulatedConfig(cfg);
    if (!cfg.obs.active() && configKey(sim) != key)
        result = reduceFor(cfg, run(sim, &sibling_cached));
    else
        result = runSim(cfg, checkpointer_);
    if (store_)
        store_->save(key, result);
    if (from_cache)
        *from_cache = sibling_cached;
    return result;
}

} // namespace flywheel
