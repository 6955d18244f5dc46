#include "perf/bench_report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#ifdef __unix__
#include <unistd.h>
#endif

namespace flywheel::perf {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / double(values.size()));
}

HostInfo
collectHostInfo()
{
    HostInfo h;

#ifdef __unix__
    char name[256] = {};
    if (gethostname(name, sizeof(name) - 1) == 0)
        h.hostname = name;
#endif
    if (h.hostname.empty())
        h.hostname = "unknown";

    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.compare(0, 10, "model name") == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::size_t start =
                    line.find_first_not_of(' ', colon + 1);
                if (start != std::string::npos)
                    h.cpu = line.substr(start);
            }
            break;
        }
    }
    if (h.cpu.empty())
        h.cpu = "unknown";

    h.hwThreads = std::max(1u, std::thread::hardware_concurrency());

    char compiler[128];
#if defined(__clang__)
    std::snprintf(compiler, sizeof(compiler), "Clang %d.%d.%d",
                  __clang_major__, __clang_minor__,
                  __clang_patchlevel__);
#elif defined(__GNUC__)
    std::snprintf(compiler, sizeof(compiler), "GNU %d.%d.%d",
                  __GNUC__, __GNUC_MINOR__, __GNUC_PATCHLEVEL__);
#else
    std::snprintf(compiler, sizeof(compiler), "unknown");
#endif
    h.compiler = compiler;

#ifdef NDEBUG
    h.build = "release";
#else
    h.build = "debug";
#endif
    return h;
}

double
BenchReport::geomeanMinstrPerSec() const
{
    std::vector<double> rates;
    rates.reserve(entries.size());
    for (const PerfEntry &e : entries)
        rates.push_back(e.minstrPerSec);
    return geomean(rates);
}

double
BenchReport::aggregateMinstrPerSec() const
{
    double instructions = 0.0;
    double seconds = 0.0;
    for (const PerfEntry &e : entries) {
        instructions += double(e.instructions);
        seconds += e.medianSeconds;
    }
    return seconds > 0.0 ? instructions / seconds / 1e6 : 0.0;
}

Json
BenchReport::toJson() const
{
    Json j = Json::object();
    j.add("schema", kBenchSchema);

    Json host_j = Json::object();
    host_j.add("hostname", host.hostname);
    host_j.add("cpu", host.cpu);
    host_j.add("hw_threads", host.hwThreads);
    host_j.add("compiler", host.compiler);
    host_j.add("build", host.build);
    j.add("host", std::move(host_j));

    Json config = Json::object();
    config.add("warmup_instrs", warmupInstrs);
    config.add("measure_instrs", measureInstrs);
    config.add("repeats", repeats);
    config.add("jobs", jobs);
    config.add("sample_windows", sampleWindows);
    config.add("obs_attached", obsAttached);
    j.add("config", std::move(config));

    Json arr = Json::array();
    for (const PerfEntry &e : entries) {
        Json entry = Json::object();
        entry.add("bench", e.bench);
        entry.add("kind", e.kind);
        entry.add("instructions", e.instructions);
        Json reps = Json::array();
        for (double s : e.repSeconds)
            reps.push(Json(s));
        entry.add("rep_seconds", std::move(reps));
        entry.add("median_seconds", e.medianSeconds);
        entry.add("minstr_per_sec", e.minstrPerSec);
        arr.push(std::move(entry));
    }
    j.add("entries", std::move(arr));
    j.add("geomean_minstr_per_sec", geomeanMinstrPerSec());
    j.add("aggregate_minstr_per_sec", aggregateMinstrPerSec());
    if (telemetry.present) {
        Json t = Json::object();
        t.add("wall_seconds", telemetry.wallSeconds);
        t.add("checkpoint_memory_hits", telemetry.checkpointMemoryHits);
        t.add("checkpoint_disk_hits", telemetry.checkpointDiskHits);
        t.add("checkpoint_computes", telemetry.checkpointComputes);
        t.add("checkpoint_bytes_written",
              telemetry.checkpointBytesWritten);
        t.add("checkpoint_bytes_read", telemetry.checkpointBytesRead);
        j.add("telemetry", std::move(t));
    }
    return j;
}

namespace {

bool
fail(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

/**
 * Reports written while the harness had a batched mode carry
 * `batch_width` (config) and `lanes` (per entry).  A value of 1 is a
 * scalar measurement and still parses; anything wider timed several
 * lanes per cell and must not gate against scalar numbers.
 */
bool
scalarWidth(const Json &obj, const char *field, std::string *error)
{
    if (!obj.has(field))
        return true;
    if (!obj[field].isNumber() || obj[field].asU64() != 1)
        return fail(error, std::string("bench report: '") + field +
                               "' must be 1 (batched reports are no "
                               "longer supported)");
    return true;
}

} // namespace

bool
BenchReport::fromJson(const Json &j, BenchReport *out,
                      std::string *error)
{
    if (!j.isObject())
        return fail(error, "bench report: not a JSON object");
    // v1 documents are still accepted: v1.1 only added the aggregate
    // throughput field, which readers recompute.
    const std::string schema = j["schema"].asString();
    if (schema != kBenchSchema && schema != kBenchSchemaV1)
        return fail(error, "bench report: missing or unsupported "
                           "schema tag (want " +
                               std::string(kBenchSchema) + ")");

    const Json &host_j = j["host"];
    const Json &config = j["config"];
    const Json &arr = j["entries"];
    if (!host_j.isObject() || !config.isObject() || !arr.isArray())
        return fail(error,
                    "bench report: host/config/entries malformed");
    // Missing members read back as empty Json (string "" / number 0),
    // which would let a typo'd hand-refreshed baseline gate against a
    // measurement discipline it does not actually record — so every
    // member is kind-checked, not defaulted.
    if (!host_j["hostname"].isString() || !host_j["cpu"].isString() ||
        !host_j["hw_threads"].isNumber() ||
        !host_j["compiler"].isString() || !host_j["build"].isString())
        return fail(error, "bench report: malformed host member");
    if (!config["warmup_instrs"].isNumber() ||
        !config["measure_instrs"].isNumber() ||
        !config["repeats"].isNumber() || !config["jobs"].isNumber())
        return fail(error, "bench report: malformed config member");

    BenchReport r;
    r.host.hostname = host_j["hostname"].asString();
    r.host.cpu = host_j["cpu"].asString();
    r.host.hwThreads = unsigned(host_j["hw_threads"].asU64());
    r.host.compiler = host_j["compiler"].asString();
    r.host.build = host_j["build"].asString();
    r.warmupInstrs = config["warmup_instrs"].asU64();
    r.measureInstrs = config["measure_instrs"].asU64();
    r.repeats = unsigned(config["repeats"].asU64());
    r.jobs = unsigned(config["jobs"].asU64());
    // Absent in pre-sampling reports (the committed baseline): 0.
    if (config.has("sample_windows")) {
        if (!config["sample_windows"].isNumber())
            return fail(error, "bench report: malformed config member");
        r.sampleWindows = unsigned(config["sample_windows"].asU64());
    }
    // Absent in pre-observability reports: false.
    if (config.has("obs_attached"))
        r.obsAttached = config["obs_attached"].asBool();
    if (!scalarWidth(config, "batch_width", error))
        return false;
    // Telemetry is optional by design (older baselines lack it).
    if (j.has("telemetry")) {
        const Json &t = j["telemetry"];
        if (!t.isObject())
            return fail(error, "bench report: malformed telemetry");
        r.telemetry.present = true;
        r.telemetry.wallSeconds = t["wall_seconds"].asDouble();
        r.telemetry.checkpointMemoryHits =
            t["checkpoint_memory_hits"].asU64();
        r.telemetry.checkpointDiskHits =
            t["checkpoint_disk_hits"].asU64();
        r.telemetry.checkpointComputes =
            t["checkpoint_computes"].asU64();
        r.telemetry.checkpointBytesWritten =
            t["checkpoint_bytes_written"].asU64();
        r.telemetry.checkpointBytesRead =
            t["checkpoint_bytes_read"].asU64();
    }

    for (const Json &entry : arr.items()) {
        if (!entry.isObject() || !entry["bench"].isString() ||
            !entry["kind"].isString() ||
            !entry["instructions"].isNumber() ||
            !entry["rep_seconds"].isArray() ||
            !entry["median_seconds"].isNumber() ||
            !entry["minstr_per_sec"].isNumber()) {
            return fail(error, "bench report: malformed entry");
        }
        PerfEntry e;
        e.bench = entry["bench"].asString();
        e.kind = entry["kind"].asString();
        if (!scalarWidth(entry, "lanes", error))
            return false;
        e.instructions = entry["instructions"].asU64();
        for (const Json &s : entry["rep_seconds"].items()) {
            if (!s.isNumber())
                return fail(error,
                            "bench report: non-numeric rep_seconds");
            e.repSeconds.push_back(s.asDouble());
        }
        e.medianSeconds = entry["median_seconds"].asDouble();
        e.minstrPerSec = entry["minstr_per_sec"].asDouble();
        r.entries.push_back(std::move(e));
    }
    *out = std::move(r);
    return true;
}

std::vector<PerfDelta>
comparePerf(const BenchReport &current, const BenchReport &baseline,
            double max_regression, bool relative)
{
    // In relative mode each side is normalized by its own geomean,
    // cancelling uniform machine-speed differences.  A non-positive
    // geomean on either side (empty grid, or a cell recorded at 0)
    // cannot normalize anything: scaling by 0 would zero every cell's
    // rate and flag the entire healthy grid as regressed, so such a
    // degenerate report falls back to the absolute comparison.
    double cur_scale = 1.0;
    double base_scale = 1.0;
    if (relative) {
        const double cg = current.geomeanMinstrPerSec();
        const double bg = baseline.geomeanMinstrPerSec();
        if (cg > 0.0 && bg > 0.0) {
            cur_scale = 1.0 / cg;
            base_scale = 1.0 / bg;
        }
    }

    std::vector<PerfDelta> deltas;
    for (const PerfEntry &base : baseline.entries) {
        PerfDelta d;
        d.bench = base.bench;
        d.kind = base.kind;
        d.baselineMinstrPerSec = base.minstrPerSec;
        const PerfEntry *cur = nullptr;
        for (const PerfEntry &e : current.entries) {
            if (e.bench == base.bench && e.kind == base.kind) {
                cur = &e;
                break;
            }
        }
        if (cur != nullptr) {
            d.currentMinstrPerSec = cur->minstrPerSec;
            const double base_rate = base.minstrPerSec * base_scale;
            d.ratio = base_rate > 0.0
                ? cur->minstrPerSec * cur_scale / base_rate
                : 0.0;
        }
        d.regressed =
            cur == nullptr || d.ratio < 1.0 - max_regression;
        deltas.push_back(d);
    }
    return deltas;
}

} // namespace flywheel::perf
