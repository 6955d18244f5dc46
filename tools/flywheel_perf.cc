/**
 * @file
 * Simulator throughput harness CLI: how many simulated instructions
 * per second does this build sustain?  Runs each core kind over each
 * named workload at a fixed instruction budget (warmup + repeat-
 * median), prints a human table, and writes the per-cell measurements
 * as JSON.
 *
 *   flywheel_perf                                # full grid, table
 *   flywheel_perf --json BENCH_flywheel.json     # + per-cell JSON
 *   flywheel_perf --bench gcc,vortex --kind flywheel --repeats 5
 *   flywheel_perf --json -                       # only JSON on stdout
 *   flywheel_perf --obs-gate 0.05                # observability gate
 *
 * The JSON document is {"entries": [...]}, one object per grid cell
 * with `bench`, `kind`, `instructions`, `rep_seconds`,
 * `median_seconds` and `minstr_per_sec`.  tools/perf_ab.py reads it
 * to compare two builds on one machine; keep those member names, or
 * the comparison of a change against its parent breaks.
 *
 * Exit status: 0 on success, 1 when the observability gate fails or
 * a value is invalid, 2 on an unknown flag.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "perf/perf_harness.hh"
#include "sweep/sweep.hh"
#include "tools/cli_util.hh"
#include "workload/profiles.hh"

using namespace flywheel;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s [options]\n"
        "\n"
        "grid (cartesian product of the two axes):\n"
        "  --bench a,b,...   workload names (default: all ten)\n"
        "  --kind k,...      baseline | ra | flywheel "
        "(default: baseline,flywheel)\n"
        "\n"
        "measurement discipline:\n"
        "  --instrs N        timed instructions per cell "
        "(default: 200000)\n"
        "  --warmup N        untimed warmup instructions "
        "(default: 50000)\n"
        "  --repeats N       repeats per cell, median reported "
        "(default: 3)\n"
        "\n"
        "output:\n"
        "  --json FILE       write the per-cell JSON ('-' = stdout,\n"
        "                    which then carries nothing else)\n"
        "  --quiet           no per-cell progress, no table\n"
        "\n"
        "observability gate:\n"
        "  --obs-gate F      time every repeat again with a masked\n"
        "                    tracer + stats registry attached, next\n"
        "                    to the plain repeat, and fail if the\n"
        "                    geomean of the per-cell median ratios\n"
        "                    loses more than fraction F\n",
        argv0);
}

void
printTable(std::FILE *out, const std::vector<perf::PerfEntry> &entries)
{
    std::fprintf(out, "%-8s %-8s %12s %10s %10s\n", "bench", "kind",
                 "instrs", "median_s", "Minstr/s");
    std::vector<double> rates;
    for (const perf::PerfEntry &e : entries) {
        std::fprintf(out, "%-8s %-8s %12llu %10.4f %10.3f\n",
                     e.bench.c_str(), e.kind.c_str(),
                     (unsigned long long)e.instructions,
                     e.medianSeconds, e.minstrPerSec);
        rates.push_back(e.minstrPerSec);
    }
    std::fprintf(out, "geomean Minstr/s: %.3f\n", perf::geomean(rates));
}

Json
entriesJson(const std::vector<perf::PerfEntry> &entries)
{
    Json arr = Json::array();
    for (const perf::PerfEntry &e : entries) {
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
    Json doc = Json::object();
    doc.add("entries", std::move(arr));
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    perf::PerfOptions options;
    std::string json_path;
    double obs_gate = -1.0;  // < 0 = gate off
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&] {
            return cli::requireValue(argc, argv, &i, flag);
        };
        if (flag == "--bench") {
            options.benchmarks = cli::splitList(value());
            for (const auto &b : options.benchmarks)
                benchmarkByName(b);  // validate early (fatal)
        } else if (flag == "--kind") {
            options.kinds.clear();
            for (const auto &tok : cli::splitList(value())) {
                CoreKind k;
                if (!coreKindByName(tok, &k))
                    FW_FATAL("--kind: unknown core kind '%s'",
                             tok.c_str());
                options.kinds.push_back(k);
            }
            if (options.kinds.empty())
                FW_FATAL("--kind: empty list");
        } else if (flag == "--instrs") {
            options.measureInstrs = cli::parseU64(value(), "--instrs");
            if (options.measureInstrs == 0)
                FW_FATAL("--instrs: must be positive");
        } else if (flag == "--warmup") {
            options.warmupInstrs = cli::parseU64(value(), "--warmup");
        } else if (flag == "--repeats") {
            options.repeats = unsigned(
                cli::parseU64(value(), "--repeats",
                              std::numeric_limits<unsigned>::max()));
            if (options.repeats == 0)
                FW_FATAL("--repeats: must be positive");
        } else if (flag == "--json") {
            json_path = value();
        } else if (flag == "--obs-gate") {
            std::vector<double> v =
                cli::parseDoubles(value(), "--obs-gate");
            if (v.size() != 1 || v[0] < 0.0 || v[0] >= 1.0)
                FW_FATAL("--obs-gate: expected one fraction in "
                         "[0, 1)");
            obs_gate = v[0];
            options.timeObserved = true;
        } else if (flag == "--quiet") {
            quiet = true;
        } else if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            cli::rejectUnknownFlag(argv[0], flag, usage);
        }
    }

    // With the JSON on stdout, everything meant for a person goes to
    // stderr so the document parses as it stands.
    std::FILE *human = json_path == "-" ? stderr : stdout;

    perf::PerfProgress progress;
    if (!quiet) {
        progress = [](std::size_t done, std::size_t total,
                      const perf::PerfEntry &e) {
            std::fprintf(stderr,
                         "[%2zu/%zu] %-8s %-8s %.3f Minstr/s\n", done,
                         total, e.bench.c_str(), e.kind.c_str(),
                         e.minstrPerSec);
        };
    }

    const std::vector<perf::PerfEntry> entries =
        perf::runPerfGrid(options, progress);

    if (!quiet)
        printTable(human, entries);
    if (!json_path.empty()) {
        std::ofstream file;
        std::ostream &os = cli::openOut(json_path, file);
        entriesJson(entries).write(os, 2);
        os << "\n";
    }
    if (obs_gate < 0.0)
        return 0;

    // ---- observability overhead gate -------------------------------
    // Each cell timed its plain and observed repeats side by side, so
    // the ratio of the cell's two medians sees the cost an observed
    // run pays over a plain one, not how the host's speed drifted
    // between two whole-grid passes.
    std::vector<double> ratios;
    for (const perf::PerfEntry &e : entries)
        ratios.push_back(e.observedMedianSeconds > 0.0
                             ? e.medianSeconds / e.observedMedianSeconds
                             : 0.0);
    const double loss = 1.0 - perf::geomean(ratios);
    std::fprintf(human,
                 "observed vs plain: %+.2f%% (geomean of %zu per-cell "
                 "median ratios)\n",
                 -loss * 100.0, ratios.size());
    if (loss > obs_gate) {
        std::fprintf(human,
                     "observability overhead %.2f%% exceeds the %.2f%% "
                     "gate\n",
                     loss * 100.0, obs_gate * 100.0);
        return 1;
    }
    return 0;
}
