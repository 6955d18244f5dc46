#include "sweep/sweep.hh"

#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/json.hh"
#include "common/log.hh"
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

SweepAxes::SweepAxes()
    : warmupInstrs(defaultWarmupInstrs()),
      measureInstrs(defaultMeasureInstrs())
{}

std::vector<SweepPoint>
SweepAxes::expand() const
{
    const std::vector<std::string> &benches =
        benchmarks.empty() ? benchmarkNames() : benchmarks;

    std::vector<SweepPoint> points;
    points.reserve(benches.size() * kinds.size() * clocks.size() *
                   nodes.size() * gating.size());
    for (const auto &bench : benches)
        for (CoreKind kind : kinds)
            for (const ClockPoint &clock : clocks)
                for (TechNode node : nodes)
                    for (bool gate : gating) {
                        SweepPoint pt =
                            makePoint(bench, kind, clock, node, gate);
                        pt.config.warmupInstrs = warmupInstrs;
                        pt.config.measureInstrs = measureInstrs;
                        pt.config.snapshot = snapshot;
                        points.push_back(std::move(pt));
                    }
    return points;
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

namespace {

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
    // Hex string: 64-bit hashes do not fit a JSON double exactly.
    char hash[20];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  (unsigned long long)fnv1a64(configKey(pt.config)));
    j.set("configHash", hash);
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

SweepRunner::SweepRunner(SweepOptions options)
    : options_(options), cache_(options.cachePath), pool_(options.jobs)
{
    if (!options_.checkpointDir.empty()) {
        Checkpointer::Options store;
        store.capBytes = options_.checkpointCapBytes;
        checkpointer_ = std::make_unique<Checkpointer>(
            options_.checkpointDir, store);
    }
}

SweepRunner::~SweepRunner()
{
    if (checkpointer_)
        FW_INFORM("%s", checkpointer_->summaryLine().c_str());
}

RunResult
CellExecutor::run(const RunConfig &config, bool *from_cache)
{
    RunConfig cfg = config;
    if (!cfg.obs.active() && obs_.active())
        cfg.obs = obs_;
    const std::string key = configKey(cfg);
    RunResult result;
    // An observed run must actually execute: a cache hit would skip
    // the simulation its stats/trace documents are meant to describe.
    // Storing the result back is still sound — the cached payload
    // excludes everything ObsConfig adds.
    if (!cfg.obs.active() && cache_ && cache_->lookup(key, &result)) {
        if (from_cache)
            *from_cache = true;
        return result;
    }
    // A runner with a checkpoint store checkpoints every cell's
    // warmup by default; an explicit per-config policy wins.  The
    // cache key is unchanged (Save/Reuse are result-neutral).
    if (checkpointer_ &&
        cfg.snapshot.mode == SnapshotPolicy::Mode::Off)
        cfg.snapshot.mode = SnapshotPolicy::Mode::Reuse;
    result = runSim(cfg, checkpointer_);
    if (cache_)
        cache_->store(key, result);
    if (from_cache)
        *from_cache = false;
    return result;
}

RunResult
SweepRunner::runOne(const RunConfig &config, bool *from_cache)
{
    return CellExecutor(&cache_, checkpointer_.get(), options_.obs)
        .run(config, from_cache);
}

SweepTable
SweepRunner::run(const std::vector<SweepPoint> &points)
{
    // lint: wallclock(telemetry only; simulated results never read it)
    using Clock = std::chrono::steady_clock;
    const auto sweep_start = Clock::now();

    SweepTelemetry telem;
    telem.cells = points.size();
    telem.jobs = pool_.threadCount();
    const std::uint64_t tasks_before = pool_.tasksExecuted();
    const double busy_before = pool_.busySeconds();
    if (checkpointer_) {
        telem.checkpointMemoryHits = checkpointer_->memoryHits();
        telem.checkpointDiskHits = checkpointer_->diskHits();
        telem.checkpointComputes = checkpointer_->computes();
        telem.checkpointBytesWritten = checkpointer_->diskBytesWritten();
        telem.checkpointBytesRead = checkpointer_->diskBytesRead();
    }

    std::vector<SweepRecord> records(points.size());

    std::mutex progress_mutex; // serializes the progress callback
    std::size_t done = 0;
    const auto report = [&](std::size_t i) {
        if (!options_.progress)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++done;
        options_.progress(done, points.size(), records[i].point,
                          records[i].result, records[i].fromCache);
    };

    pool_.parallelFor(points.size(), [&](std::size_t i) {
        SweepRecord &rec = records[i];
        rec.point = points[i];
        const auto cell_start = Clock::now();
        rec.result = runOne(rec.point.config, &rec.fromCache);
        rec.wallSeconds =
            std::chrono::duration<double>(Clock::now() - cell_start)
                .count();
        report(i);
    });

    if (!options_.cachePath.empty())
        cache_.save();

    SweepTable table;
    for (auto &rec : records) {
        if (rec.fromCache)
            ++telem.cacheHits;
        table.add(std::move(rec));
    }
    telem.wallSeconds =
        std::chrono::duration<double>(Clock::now() - sweep_start).count();
    telem.poolTasks = pool_.tasksExecuted() - tasks_before;
    telem.poolBusySeconds = pool_.busySeconds() - busy_before;
    if (checkpointer_) {
        telem.checkpointMemoryHits =
            checkpointer_->memoryHits() - telem.checkpointMemoryHits;
        telem.checkpointDiskHits =
            checkpointer_->diskHits() - telem.checkpointDiskHits;
        telem.checkpointComputes =
            checkpointer_->computes() - telem.checkpointComputes;
        telem.checkpointBytesWritten =
            checkpointer_->diskBytesWritten() -
            telem.checkpointBytesWritten;
        telem.checkpointBytesRead =
            checkpointer_->diskBytesRead() - telem.checkpointBytesRead;
    }
    table.setTelemetry(std::move(telem));
    return table;
}

} // namespace flywheel
