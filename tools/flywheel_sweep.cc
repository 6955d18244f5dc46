/**
 * @file
 * Command-line front end to the sweep engine: describe a grid with
 * axis flags, run it on a worker pool, export structured results.
 *
 *   flywheel_sweep --bench gcc,vortex --kind baseline,flywheel \
 *       --fe 0,0.25,0.5,0.75,1.0 --be 0.5 --node 0.13um \
 *       --jobs 8 --cache sweep_cache.json --out results.json
 *
 * Omitted axes default to: all ten benchmarks, flywheel kind, one
 * FE0/BE0 clock point, 0.13um, no power gating.  Output is
 * byte-identical for any --jobs value.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
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
        "axes (comma-separated lists; the grid is their cartesian "
        "product):\n"
        "  --bench a,b,...   benchmark names (default: all ten)\n"
        "  --kind k,...      baseline | ra | flywheel "
        "(default: flywheel)\n"
        "  --fe x,...        front-end boosts, e.g. 0,0.5,1.0 "
        "(default: 0)\n"
        "  --be x,...        back-end boosts (default: 0)\n"
        "  --node n,...      tech nodes, e.g. 0.13um,0.09um "
        "(default: 0.13um)\n"
        "  --gating g,...    front-end power gating, 0 and/or 1 "
        "(default: 0)\n"
        "\n"
        "run control:\n"
        "  --jobs N          worker threads (default: FLYWHEEL_JOBS or "
        "all cores)\n"
        "  --warmup N       warm-up instructions per point\n"
        "  --instrs N        measured instructions per point\n"
        "  --cache FILE      persistent result cache (JSON)\n"
        "\n"
        "%s"
        "\n"
        "%s"
        "\n"
        "output:\n"
        "  --out FILE        write full results as JSON ('-' = stdout)\n"
        "  --csv FILE        write summary CSV ('-' = stdout)\n"
        "  --telemetry       print session telemetry on stderr\n"
        "  --quiet           suppress per-point progress\n",
        argv0, cli::SnapshotFlags::usageText(),
        cli::ObsFlags::usageText());
}

} // namespace

int
main(int argc, char **argv)
{
    SweepAxes axes;
    SweepOptions opts;
    cli::SnapshotFlags snapshot;
    cli::ObsFlags obs_flags;
    std::string out_path;
    std::string csv_path;
    bool quiet = false;
    bool telemetry = false;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&] {
            return cli::requireValue(argc, argv, &i, flag);
        };
        if (snapshot.tryParse(flag, argc, argv, &i) ||
            obs_flags.tryParse(flag, argc, argv, &i)) {
            // handled
        } else if (flag == "--bench") {
            axes.benchmarks = cli::splitList(value());
            for (const auto &b : axes.benchmarks)
                benchmarkByName(b); // validate early (fatal if unknown)
        } else if (flag == "--kind") {
            axes.kinds.clear();
            for (const auto &tok : cli::splitList(value())) {
                CoreKind k;
                if (!coreKindByName(tok, &k))
                    FW_FATAL("--kind: unknown core kind '%s'",
                             tok.c_str());
                axes.kinds.push_back(k);
            }
        } else if (flag == "--fe" || flag == "--be") {
            bool is_fe = flag == "--fe";
            std::vector<double> boosts =
                cli::parseDoubles(value(), flag.c_str());
            // Rebuild the clock grid as the fe x be product of
            // whatever has been specified so far.
            std::vector<double> other;
            for (const auto &c : axes.clocks) {
                double v = is_fe ? c.beBoost : c.feBoost;
                if (std::find(other.begin(), other.end(), v) ==
                    other.end())
                    other.push_back(v);
            }
            axes.clocks.clear();
            for (double fe : is_fe ? boosts : other)
                for (double be : is_fe ? other : boosts)
                    axes.clocks.push_back({fe, be});
        } else if (flag == "--node") {
            axes.nodes.clear();
            for (const auto &tok : cli::splitList(value())) {
                TechNode n;
                if (!techNodeByName(tok, &n))
                    FW_FATAL("--node: unknown tech node '%s' "
                             "(use e.g. 0.13um)", tok.c_str());
                axes.nodes.push_back(n);
            }
        } else if (flag == "--gating") {
            axes.gating.clear();
            for (const auto &tok : cli::splitList(value())) {
                if (tok != "0" && tok != "1")
                    FW_FATAL("--gating: expected 0 or 1, got '%s'",
                             tok.c_str());
                axes.gating.push_back(tok == "1");
            }
        } else if (flag == "--jobs") {
            opts.jobs = cli::parseJobs(value(), "--jobs");
        } else if (flag == "--warmup") {
            axes.warmupInstrs = cli::parseU64(value(), "--warmup");
        } else if (flag == "--instrs") {
            axes.measureInstrs = cli::parseU64(value(), "--instrs");
        } else if (flag == "--cache") {
            opts.cachePath = value();
        } else if (flag == "--out") {
            out_path = value();
        } else if (flag == "--csv") {
            csv_path = value();
        } else if (flag == "--quiet") {
            quiet = true;
        } else if (flag == "--telemetry") {
            telemetry = true;
        } else if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            cli::rejectUnknownFlag(argv[0], flag, usage);
        }
    }

    if (quiet)
        setLogLevel(LogLevel::Quiet);

    snapshot.apply(&opts);
    if (snapshot.sampleWindows) {
        axes.snapshot.mode = SnapshotPolicy::Mode::Sample;
        axes.snapshot.sampleWindows = snapshot.sampleWindows;
    }

    std::vector<SweepPoint> points = axes.expand();
    if (!quiet)
        opts.progress = cli::stderrProgress;

    obs::TraceSink trace_sink;
    opts.obs = obs_flags.makeConfig(&trace_sink);

    SweepRunner runner(opts);
    if (!quiet)
        std::fprintf(stderr, "%zu points on %u workers\n", points.size(),
                     runner.jobs());
    SweepTable table = runner.run(points);

    if (!quiet && !opts.cachePath.empty())
        std::fprintf(stderr, "cache: %llu hits, %llu misses (%s)\n",
                     (unsigned long long)runner.cache().hits(),
                     (unsigned long long)runner.cache().misses(),
                     opts.cachePath.c_str());
    if (telemetry) {
        const SweepTelemetry &t = table.telemetry();
        std::fprintf(stderr,
                     "telemetry: %.2fs wall, %zu cells (%zu cached), "
                     "%u workers at %.0f%% utilization, checkpoints "
                     "%llu/%llu/%llu mem/disk/computed\n",
                     t.wallSeconds, t.cells, t.cacheHits, t.jobs,
                     t.poolUtilization() * 100.0,
                     (unsigned long long)t.checkpointMemoryHits,
                     (unsigned long long)t.checkpointDiskHits,
                     (unsigned long long)t.checkpointComputes);
    }

    if (!out_path.empty()) {
        std::ofstream file;
        table.writeJson(cli::openOut(out_path, file));
    }
    if (!csv_path.empty()) {
        std::ofstream file;
        table.writeCsv(cli::openOut(csv_path, file));
    }
    if (out_path.empty() && csv_path.empty())
        table.writeCsv(std::cout);
    cli::writeObsOutputs(obs_flags, table, trace_sink);
    return 0;
}
