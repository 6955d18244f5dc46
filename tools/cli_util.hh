/**
 * @file
 * Argument/environment helpers shared by the CLIs (flywheel_bench,
 * flywheel_sweep, flywheel_fuzz, flywheel_perf): list splitting,
 * strictly validated number parsing, output-file plumbing, the common
 * flag-value idiom, the shared per-point progress printer, and the
 * repeat-median / host-metadata helpers (re-exported from the perf
 * subsystem).  One implementation so every tool rejects the same
 * garbage — and reports the same way.
 */

#ifndef FLYWHEEL_TOOLS_CLI_UTIL_HH
#define FLYWHEEL_TOOLS_CLI_UTIL_HH

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "perf/bench_report.hh"
#include "serve/protocol.hh"
#include "snapshot/checkpointer.hh"
#include "sweep/sweep.hh"
#include "sweep/thread_pool.hh"

namespace flywheel::cli {

// Repeat-median and host-metadata helpers: one implementation in the
// perf subsystem, surfaced here so every CLI shares it.
using flywheel::perf::HostInfo;
using flywheel::perf::collectHostInfo;
using flywheel::perf::geomean;
using flywheel::perf::median;

/**
 * Render a remaining-seconds estimate as the progress line's ETA
 * suffix.  Clamps before the int casts: a pathological rate (one
 * completion after a very long stall, or a huge grid) can push
 * @p left_seconds past INT_MAX, and a float-to-int cast that
 * overflows is undefined behaviour.  Beyond 99 hours the digits
 * carry no information anyway, so the display caps at ">99h".
 */
inline std::string
formatEta(double left_seconds)
{
    char eta[32];
    if (!(left_seconds >= 0.0))  // negative or NaN: no estimate
        return "";
    if (left_seconds > 99.0 * 3600.0)
        std::snprintf(eta, sizeof(eta), " eta >99h");
    else if (left_seconds >= 60.0)
        std::snprintf(eta, sizeof(eta), " eta %dm%02ds",
                      int(left_seconds) / 60, int(left_seconds) % 60);
    else
        std::snprintf(eta, sizeof(eta), " eta %ds",
                      int(left_seconds + 0.5));
    return eta;
}

/**
 * The per-point progress printer every grid-running CLI uses
 * (assignable to SweepOptions::progress / SessionOptions::progress).
 * Honours LogLevel::Quiet and appends an ETA once a completion rate
 * is observable.  The ETA comes from a moving window over the most
 * recent completions, so a burst of cache hits or one slow cell
 * re-steers the estimate instead of poisoning the whole-run average.
 */
inline void
stderrProgress(std::size_t done, std::size_t total,
               const SweepPoint &pt, const RunResult &r,
               bool from_cache)
{
    if (logLevel() == LogLevel::Quiet)
        return;

    // The sweep engine serializes progress callbacks under a mutex,
    // so this function-local window needs no locking of its own.
    using Clock = std::chrono::steady_clock;
    constexpr std::size_t kWindow = 16;
    static Clock::time_point when[kWindow];
    static std::size_t doneAt[kWindow];
    static std::size_t calls = 0;

    if (done <= 1)
        calls = 0;  // a new grid restarts the rate window
    const auto now = Clock::now();

    std::string eta;
    if (calls > 0 && done < total) {
        const std::size_t oldest =
            calls < kWindow ? 0 : calls % kWindow;
        const double dt =
            std::chrono::duration<double>(now - when[oldest]).count();
        const double dp = double(done) - double(doneAt[oldest]);
        if (dt > 0.0 && dp > 0.0)
            eta = formatEta(double(total - done) * dt / dp);
    }
    when[calls % kWindow] = now;
    doneAt[calls % kWindow] = done;
    ++calls;

    std::fprintf(stderr,
                 "[%3zu/%zu] %-8s %-8s %s FE%.0f%%/BE%.0f%% "
                 "time %.3f us%s%s\n",
                 done, total, pt.bench.c_str(), coreKindName(pt.kind),
                 techName(pt.config.node), pt.clock.feBoost * 100.0,
                 pt.clock.beBoost * 100.0, double(r.timePs) / 1e6,
                 from_cache ? " (cached)" : "", eta.c_str());
}

/** Split a comma-separated list; empty items are dropped. */
inline std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        std::size_t comma = arg.find(',', start);
        if (comma == std::string::npos)
            comma = arg.size();
        if (comma > start)
            out.push_back(arg.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** Parse a comma-separated list of doubles; fatal on garbage. */
inline std::vector<double>
parseDoubles(const std::string &arg, const char *flag)
{
    std::vector<double> out;
    for (const auto &tok : splitList(arg)) {
        char *end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            FW_FATAL("%s: bad number '%s'", flag, tok.c_str());
        out.push_back(v);
    }
    if (out.empty())
        FW_FATAL("%s: empty list", flag);
    return out;
}

/**
 * Parse one unsigned decimal; fatal on garbage.  Rejects a leading
 * sign explicitly because strtoull silently wraps negative input
 * ("-1" -> 2^64-1), which would turn a typo into an attempt to
 * enqueue 2^64 seeds.
 */
inline std::uint64_t
parseU64(const std::string &s, const char *flag)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        FW_FATAL("%s: bad number '%s'", flag, s.c_str());
    char *end = nullptr;
    std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size())
        FW_FATAL("%s: bad number '%s'", flag, s.c_str());
    return v;
}

/**
 * Parse a worker count with the same rules the FLYWHEEL_JOBS env
 * variable gets (plain decimal in [1, ThreadPool::kMaxJobs]), so the
 * CLI and the environment reject the same garbage the same way.
 */
inline unsigned
parseJobs(const std::string &s, const char *flag)
{
    unsigned v = 0;
    if (!ThreadPool::parseJobsValue(s.c_str(), &v))
        FW_FATAL("%s: expected an integer in 1..%u, got '%s'", flag,
                 ThreadPool::kMaxJobs, s.c_str());
    return v;
}

/**
 * Parse a positive seconds value (decimal, fractions allowed) for
 * timing flags like --lease-timeout / --heartbeat; fatal on garbage.
 */
inline double
parseSeconds(const std::string &s, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end != s.c_str() + s.size() || !(v > 0.0))
        FW_FATAL("%s: expected a positive seconds value, got '%s'",
                 flag, s.c_str());
    return v;
}

/**
 * Parse a serve address ("HOST:PORT" or a Unix socket path) for
 * --listen / --connect; fatal with the parser's message on garbage.
 */
inline serve::ServeAddress
parseAddress(const std::string &s, const char *flag)
{
    serve::ServeAddress address;
    std::string error;
    if (!serve::parseServeAddress(s, &address, &error))
        FW_FATAL("%s: %s", flag, error.c_str());
    return address;
}

/** Open @p path for writing, or map "-" to stdout. */
inline std::ostream &
openOut(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return std::cout;
    file.open(path);
    if (!file)
        FW_FATAL("cannot write %s", path.c_str());
    return file;
}

/**
 * The "--flag VALUE" idiom: returns argv[*i + 1] and advances *i, or
 * dies with a uniform message when the value is missing.
 */
inline std::string
requireValue(int argc, char **argv, int *i, const std::string &flag)
{
    if (*i + 1 >= argc)
        FW_FATAL("%s requires a value", flag.c_str());
    return argv[++*i];
}

/**
 * Message printed for an unrecognized option — one string shared by
 * every CLI (and pinned by tests) so no tool silently ignores or
 * inconsistently reports a typo'd flag.
 */
inline std::string
unknownFlagMessage(const std::string &flag)
{
    return "unknown option: " + flag;
}

/**
 * The uniform unknown-flag exit path: report the flag, print the
 * tool's usage, exit 2 (the CLIs' shared usage-error status).
 */
[[noreturn]] inline void
rejectUnknownFlag(const char *argv0, const std::string &flag,
                  void (*usage)(const char *))
{
    std::fprintf(stderr, "%s\n\n", unknownFlagMessage(flag).c_str());
    usage(argv0);
    std::exit(2);
}

/**
 * The snapshot/checkpoint flag set shared by the grid-running CLIs
 * (flywheel_bench, flywheel_sweep, flywheel_perf):
 *
 *   --checkpoint-dir DIR    warm checkpoint store (default: the
 *                           FLYWHEEL_CHECKPOINTS environment variable)
 *   --no-checkpoints        disable checkpoint reuse entirely
 *   --checkpoint-cap-mb N   cap the on-disk store, LRU-pruned
 *                           (default: FLYWHEEL_CHECKPOINT_CAP_MB)
 *   --sample N              interval sampling with N detailed windows
 */
struct SnapshotFlags
{
    std::string dir;
    bool disabled = false;
    std::uint64_t capBytes = 0;
    unsigned sampleWindows = 0;

    SnapshotFlags()
    {
        if (const char *env = std::getenv("FLYWHEEL_CHECKPOINTS"))
            dir = env;
        if (const char *cap =
                std::getenv("FLYWHEEL_CHECKPOINT_CAP_MB")) {
            if (!Checkpointer::parseCapMegabytes(cap, &capBytes))
                FW_WARN("ignoring FLYWHEEL_CHECKPOINT_CAP_MB='%s' "
                        "(want a decimal megabyte count); store "
                        "stays uncapped",
                        cap);
        }
    }

    /** Consume one argv flag; true if it was one of ours. */
    bool
    tryParse(const std::string &flag, int argc, char **argv, int *i)
    {
        if (flag == "--checkpoint-dir") {
            dir = requireValue(argc, argv, i, flag);
            return true;
        }
        if (flag == "--no-checkpoints") {
            disabled = true;
            return true;
        }
        if (flag == "--checkpoint-cap-mb") {
            const std::string arg = requireValue(argc, argv, i, flag);
            if (!Checkpointer::parseCapMegabytes(arg.c_str(),
                                                 &capBytes))
                FW_FATAL("--checkpoint-cap-mb: expected a decimal "
                         "megabyte count, got '%s'", arg.c_str());
            return true;
        }
        if (flag == "--sample") {
            std::uint64_t n = parseU64(
                requireValue(argc, argv, i, flag), "--sample");
            if (n == 1 || n > 10000)
                FW_FATAL("--sample: expected 0 (full detail) or "
                         "2..10000 windows");
            sampleWindows = unsigned(n);
            return true;
        }
        return false;
    }

    /** Effective store directory ("" when disabled or unset). */
    std::string
    checkpointDir() const
    {
        return disabled ? std::string() : dir;
    }

    /** Stamp the store knobs onto a sweep's options. */
    template <typename Options>
    void
    apply(Options *opts) const
    {
        opts->checkpointDir = checkpointDir();
        opts->checkpointCapBytes = capBytes;
    }

    /** Shared --help block for these flags. */
    static const char *
    usageText()
    {
        return
            "checkpoints & sampling:\n"
            "  --checkpoint-dir DIR  reuse warmup checkpoints from "
            "DIR\n"
            "                        (default: FLYWHEEL_CHECKPOINTS)\n"
            "  --no-checkpoints      always simulate the warmup\n"
            "  --checkpoint-cap-mb N cap the on-disk store at N MB, "
            "pruning\n"
            "                        oldest checkpoints first "
            "(default:\n"
            "                        FLYWHEEL_CHECKPOINT_CAP_MB; 0 = "
            "uncapped)\n"
            "  --sample N            interval sampling: N detailed "
            "windows\n";
    }
};

/**
 * The read-only `flywheel_bench --dump-checkpoint FILE` verb: decode
 * a `.fws` checkpoint and print its key, format version, content hash
 * and, per section, the name, raw byte count and FNV-1a hash of the
 * raw bytes as JSON on @p out.  Diffing two dumps shows which
 * component's section differs between two checkpoints.
 * @return the exit status: 0, or 1 with the decoder's error on
 * @p err when the file does not decode.
 */
inline int
dumpCheckpoint(const std::string &path, std::ostream &out,
               std::ostream &err)
{
    Snapshot snap;
    std::string error;
    if (!Snapshot::readFile(path, &snap, &error)) {
        err << error << '\n';
        return 1;
    }
    const auto hex = [](std::uint64_t h) {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return std::string(buf);
    };
    Json doc = Json::object();
    doc.add("key", snap.key());
    doc.add("version", Snapshot::kFormatVersion);
    doc.add("hash", hex(snap.contentHash()));
    Json sections = Json::array();
    for (std::size_t i = 0; i < snap.sectionCount(); ++i) {
        Json s = Json::object();
        s.add("name", snap.sectionName(i));
        s.add("bytes", std::uint64_t(snap.sectionData(i).size()));
        s.add("fnv1a", hex(fnv1a64(snap.sectionData(i))));
        sections.push(std::move(s));
    }
    doc.add("sections", std::move(sections));
    doc.write(out, 2);
    out << '\n';
    return 0;
}

/**
 * The observability flag set shared by the grid-running CLIs:
 *
 *   --stats FILE       write a flywheel.stats.v1 document
 *   --trace FILE       write a Chrome trace-event JSON document
 *   --trace-cats LIST  restrict tracing to these categories
 */
struct ObsFlags
{
    std::string statsPath;
    std::string tracePath;
    std::uint32_t traceMask = obs::kTraceCatAll;

    /** Consume one argv flag; true if it was one of ours. */
    bool
    tryParse(const std::string &flag, int argc, char **argv, int *i)
    {
        if (flag == "--stats") {
            statsPath = requireValue(argc, argv, i, flag);
            return true;
        }
        if (flag == "--trace") {
            tracePath = requireValue(argc, argv, i, flag);
            return true;
        }
        if (flag == "--trace-cats") {
            const std::string arg = requireValue(argc, argv, i, flag);
            if (!obs::parseTraceCats(arg, &traceMask))
                FW_FATAL("--trace-cats: bad category list '%s' "
                         "(want a comma-separated subset of %s)",
                         arg.c_str(), obs::traceCatUsageList().c_str());
            return true;
        }
        return false;
    }

    bool active() const
    {
        return !statsPath.empty() || !tracePath.empty();
    }

    /**
     * The ObsConfig these flags describe, recording into @p sink when
     * tracing was requested (the caller owns the sink and writes it
     * out after the grid finishes).
     */
    ObsConfig
    makeConfig(obs::TraceSink *sink) const
    {
        ObsConfig obs;
        obs.collectStats = !statsPath.empty();
        obs.traceSink = tracePath.empty() ? nullptr : sink;
        obs.traceMask = traceMask;
        return obs;
    }

    /** Shared --help block for these flags. */
    static const char *
    usageText()
    {
        return
            "observability:\n"
            "  --stats FILE          write per-point statistics "
            "(flywheel.stats.v1)\n"
            "  --trace FILE          write a Chrome trace-event JSON "
            "(Perfetto)\n"
            "  --trace-cats LIST     trace only these categories "
            "(default all)\n";
    }
};

/**
 * Assemble the flywheel.stats.v1 document for a finished grid: the
 * sweep's session telemetry plus one {point, groups} entry per row
 * that carries a registry dump.
 */
inline Json
assembleStatsDoc(const SweepTable &table)
{
    Json doc = Json::object();
    doc.add("schema", obs::kStatsSchema);
    doc.add("session", table.telemetry().toJson());
    Json points = Json::array();
    for (const SweepRecord &row : table.rows()) {
        if (!row.result.statsDoc)
            continue;
        Json p = Json::object();
        Json id = Json::object();
        id.add("bench", row.point.bench);
        id.add("kind", coreKindName(row.point.kind));
        id.add("node", techName(row.point.config.node));
        id.add("feBoost", row.point.clock.feBoost);
        id.add("beBoost", row.point.clock.beBoost);
        id.add("gating", row.point.config.frontEndPowerGating);
        id.add("label", row.point.label);
        p.add("point", std::move(id));
        p.add("groups", (*row.result.statsDoc)["groups"]);
        points.push(std::move(p));
    }
    doc.add("points", std::move(points));
    return doc;
}

/**
 * Write the --stats / --trace documents for a finished grid (no-op
 * for paths not requested).  Validates both documents before writing
 * — a CLI must never emit a file its own validator rejects.
 */
inline void
writeObsOutputs(const ObsFlags &flags, const SweepTable &table,
                const obs::TraceSink &sink)
{
    if (!flags.statsPath.empty()) {
        Json doc = assembleStatsDoc(table);
        std::string error;
        if (!obs::validateStatsJson(doc, &error))
            FW_PANIC("generated stats document is invalid: %s",
                     error.c_str());
        std::ofstream file;
        std::ostream &os = openOut(flags.statsPath, file);
        doc.write(os, 2);
        os << '\n';
    }
    if (!flags.tracePath.empty()) {
        Json doc = sink.toChromeJson();
        std::string error;
        if (!obs::validateTraceJson(doc, &error))
            FW_PANIC("generated trace document is invalid: %s",
                     error.c_str());
        std::ofstream file;
        std::ostream &os = openOut(flags.tracePath, file);
        doc.write(os, 2);
        os << '\n';
        if (sink.droppedTotal() > 0)
            FW_WARN("trace ring overflow: %llu events dropped "
                    "(oldest-first); narrow --trace-cats or shorten "
                    "the run",
                    (unsigned long long)sink.droppedTotal());
    }
}

} // namespace flywheel::cli

#endif // FLYWHEEL_TOOLS_CLI_UTIL_HH
