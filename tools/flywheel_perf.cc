/**
 * @file
 * Simulator throughput harness CLI: how many simulated instructions
 * per second does this build sustain?  Runs each core kind over each
 * named workload at a fixed instruction budget (warmup + repeat-
 * median), prints a human table, and emits the canonical
 * BENCH_flywheel.json trajectory file (schema'd, stable key order,
 * host metadata).
 *
 *   flywheel_perf                                # full grid, table
 *   flywheel_perf --json BENCH_flywheel.json     # + trajectory file
 *   flywheel_perf --bench gcc,vortex --kind flywheel --repeats 5
 *   flywheel_perf --json - --quiet               # JSON on stdout
 *   flywheel_perf --compare bench/baseline_perf.json --threshold 0.30
 *
 * --compare reloads a committed baseline report and fails (exit 1)
 * if any baseline grid cell got more than `threshold` slower or
 * disappeared — the CI perf regression gate.  Refresh flow: run
 * `flywheel_perf --json bench/baseline_perf.json` on the reference
 * machine and commit the result (see README "Performance").
 *
 * Exit status: 0 on success, 1 on a comparison failure, 2 on usage
 * errors.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

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
        "  --json FILE       write BENCH_flywheel.json "
        "('-' = stdout)\n"
        "  --quiet           no per-cell progress, no table\n"
        "\n"
        "regression gate:\n"
        "  --compare FILE    compare against a baseline report\n"
        "  --threshold F     tolerated fractional loss "
        "(default: 0.30)\n"
        "  --relative        normalize both sides by their geomean\n"
        "                    first (shape comparison; use when the\n"
        "                    baseline came from a different machine\n"
        "                    class, e.g. CI)\n"
        "\n"
        "observability gate:\n"
        "  --obs-gate F      re-run the grid with a masked tracer +\n"
        "                    stats registry attached and fail if the\n"
        "                    geomean drops more than fraction F\n"
        "                    (back-to-back on this machine, so the\n"
        "                    gate is immune to host-speed drift)\n",
        argv0);
}

void
printTable(const perf::BenchReport &report)
{
    std::printf("%-8s %-8s %12s %10s %10s\n", "bench", "kind",
                "instrs", "median_s", "Minstr/s");
    for (const perf::PerfEntry &e : report.entries) {
        std::printf("%-8s %-8s %12llu %10.4f %10.3f\n",
                    e.bench.c_str(), e.kind.c_str(),
                    (unsigned long long)e.instructions,
                    e.medianSeconds, e.minstrPerSec);
    }
    std::printf("geomean Minstr/s: %.3f  aggregate: %.3f  "
                "(%s, %s, %u hw threads)\n",
                report.geomeanMinstrPerSec(),
                report.aggregateMinstrPerSec(),
                report.host.compiler.c_str(),
                report.host.build.c_str(), report.host.hwThreads);
}

bool
loadReport(const std::string &path, perf::BenchReport *out)
{
    std::ifstream file(path);
    if (!file) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return false;
    }
    std::ostringstream text;
    text << file.rdbuf();
    Json j;
    std::string error;
    if (!Json::parse(text.str(), j, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    if (!perf::BenchReport::fromJson(j, out, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    perf::PerfOptions options;
    std::string json_path;
    std::string compare_path;
    double threshold = 0.30;
    double obs_gate = -1.0;  // < 0 = gate off
    bool relative = false;
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
        } else if (flag == "--compare") {
            compare_path = value();
        } else if (flag == "--threshold") {
            std::vector<double> v =
                cli::parseDoubles(value(), "--threshold");
            if (v.size() != 1 || v[0] < 0.0 || v[0] >= 1.0)
                FW_FATAL("--threshold: expected one fraction in "
                         "[0, 1)");
            threshold = v[0];
        } else if (flag == "--obs-gate") {
            std::vector<double> v =
                cli::parseDoubles(value(), "--obs-gate");
            if (v.size() != 1 || v[0] < 0.0 || v[0] >= 1.0)
                FW_FATAL("--obs-gate: expected one fraction in "
                         "[0, 1)");
            obs_gate = v[0];
        } else if (flag == "--relative") {
            relative = true;
        } else if (flag == "--quiet") {
            quiet = true;
        } else if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            cli::rejectUnknownFlag(argv[0], flag, usage);
        }
    }

    perf::BenchReport baseline;
    if (!compare_path.empty() && !loadReport(compare_path, &baseline))
        return 2;

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

    perf::BenchReport report = perf::runPerfGrid(options, progress);

    if (!quiet)
        printTable(report);
    if (!json_path.empty()) {
        std::ofstream file;
        std::ostream &os = cli::openOut(json_path, file);
        report.toJson().write(os, 2);
        os << "\n";
    }

    // ---- observability overhead gate -------------------------------
    // Times the identical grid again with an attached-but-masked
    // tracer and a stats dump per cell — the cost an observed run
    // pays over a plain one, measured back to back on this machine.
    bool obs_ok = true;
    if (obs_gate >= 0.0) {
        perf::PerfOptions attached = options;
        attached.obsAttached = true;
        perf::BenchReport obs_report =
            perf::runPerfGrid(attached, progress);
        const double plain = report.geomeanMinstrPerSec();
        const double with_obs = obs_report.geomeanMinstrPerSec();
        const double loss =
            plain > 0.0 ? 1.0 - with_obs / plain : 0.0;
        std::printf("obs-attached geomean: %.3f vs %.3f Minstr/s "
                    "(%+.2f%%)\n",
                    with_obs, plain, -loss * 100.0);
        if (loss > obs_gate) {
            std::printf("observability overhead %.2f%% exceeds the "
                        "%.2f%% gate\n",
                        loss * 100.0, obs_gate * 100.0);
            obs_ok = false;
        }
    }

    if (compare_path.empty())
        return obs_ok ? 0 : 1;

    // ---- regression gate -------------------------------------------
    bool ok = true;
    if (relative)
        std::printf("relative (geomean-normalized) comparison\n");
    for (const perf::PerfDelta &d :
         perf::comparePerf(report, baseline, threshold, relative)) {
        const char *verdict = d.regressed ? "FAIL" : "ok";
        if (d.currentMinstrPerSec == 0.0) {
            std::printf("%-4s %-8s %-8s missing from current run\n",
                        verdict, d.bench.c_str(), d.kind.c_str());
        } else {
            std::printf("%-4s %-8s %-8s %8.3f -> %8.3f Minstr/s "
                        "(%+5.1f%%)\n",
                        verdict, d.bench.c_str(), d.kind.c_str(),
                        d.baselineMinstrPerSec, d.currentMinstrPerSec,
                        (d.ratio - 1.0) * 100.0);
        }
        ok = ok && !d.regressed;
    }
    if (!ok)
        std::printf("throughput regressed more than %.0f%% against "
                    "%s; if intended, refresh the baseline (see "
                    "README \"Performance\")\n",
                    threshold * 100.0, compare_path.c_str());
    return ok && obs_ok ? 0 : 1;
}
