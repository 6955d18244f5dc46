/**
 * @file
 * The one paper-figure CLI: every figure, table and ablation is a
 * registered ExperimentSpec + renderer (api/figures.hh), and this
 * binary lists, runs and exports them — or runs any declarative
 * spec straight from a .json file, no recompilation.
 *
 *   flywheel_bench --list
 *   flywheel_bench --figure fig12                # one figure
 *   flywheel_bench --figure fig12 --figure fig13 # shared grid cached
 *   flywheel_bench --all
 *   flywheel_bench --spec specs/fig12.json       # data, not code
 *   flywheel_bench --dump-spec fig12             # registry -> JSON
 *   flywheel_bench --dump-checkpoint d/ckpt-X.fws  # sections -> JSON
 *   flywheel_bench --validate-spec specs/fig12.json
 *   flywheel_bench --check-golden tests/golden
 *
 * Figure stdout is byte-identical to the historical standalone bench
 * binaries for any worker count; `--json`/`--csv` additionally
 * export the executed grid(s) in the sweep table formats.
 *
 * Exit status: 0 on success, 1 on golden/verify/validation failure,
 * 2 on usage errors.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "api/figures.hh"
#include "api/session.hh"
#include "common/log.hh"
#include "tools/cli_util.hh"

using namespace flywheel;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s [options]\n"
        "\n"
        "figures (registered paper reproductions):\n"
        "  --list               list every figure with its description\n"
        "  --figure NAME        run one figure (repeatable)\n"
        "  --all                run every registered figure\n"
        "\n"
        "declarative specs:\n"
        "  --spec FILE          run an experiment spec from JSON\n"
        "  --dump-spec NAME     print a figure's registered spec as "
        "JSON\n"
        "  --validate-spec FILE parse + schema-check a spec "
        "(repeatable)\n"
        "\n"
        "run control:\n"
        "  --jobs N             worker threads (default: FLYWHEEL_JOBS "
        "or all cores)\n"
        "  --cache FILE        persistent result cache (default: "
        "FLYWHEEL_CACHE)\n"
        "  --progress           per-point progress on stderr\n"
        "\n"
        "%s"
        "\n"
        "%s"
        "\n"
        "output:\n"
        "  --json FILE          export executed grid(s) as JSON "
        "('-' = stdout)\n"
        "  --csv FILE           export executed grid(s) as CSV "
        "('-' = stdout)\n"
        "\n"
        "golden-figure regression:\n"
        "  --check-golden DIR    rebuild snapshots and diff against "
        "DIR\n"
        "  --refresh-golden DIR  rebuild and overwrite the snapshots "
        "in DIR\n"
        "\n"
        "store maintenance:\n"
        "  --prune-checkpoints   prune the checkpoint store at "
        "--checkpoint-dir\n"
        "                        down to --checkpoint-cap-mb "
        "(0 = empty it)\n"
        "  --dump-checkpoint FILE  print a .fws checkpoint's header "
        "and section\n"
        "                        table (name, bytes, FNV-1a) as "
        "JSON\n",
        argv0, cli::SnapshotFlags::usageText(),
        cli::ObsFlags::usageText());
}

void
listFigures()
{
    for (const FigureDef *def : allFigures()) {
        std::size_t points = def->spec.expand().size();
        std::printf("%-18s %s", def->name.c_str(), def->title.c_str());
        if (points)
            std::printf("  [%zu points]", points);
        std::printf("\n");
    }
}

/** Deduplicated union of every executed grid point, for export. */
struct MergedExport
{
    SweepTable table;
    std::set<std::string> seen;
    SweepTelemetry telemetry;

    /**
     * Figures sharing grid points (fig12/13/14 run one grid) must
     * not duplicate them in the exported dataset.
     */
    void
    add(const SweepRecord &row)
    {
        if (seen.insert(configKey(row.point.config) + "|" +
                        row.point.label).second)
            table.add(row);
    }

    /** Accumulate one executed grid's session telemetry. */
    void
    addTelemetry(const SweepTelemetry &t)
    {
        telemetry.wallSeconds += t.wallSeconds;
        telemetry.cells += t.cells;
        telemetry.cacheHits += t.cacheHits;
        telemetry.jobs = t.jobs;
        telemetry.poolTasks += t.poolTasks;
        telemetry.poolBusySeconds += t.poolBusySeconds;
        telemetry.checkpointMemoryHits += t.checkpointMemoryHits;
        telemetry.checkpointDiskHits += t.checkpointDiskHits;
        telemetry.checkpointComputes += t.checkpointComputes;
        telemetry.checkpointBytesWritten += t.checkpointBytesWritten;
        telemetry.checkpointBytesRead += t.checkpointBytesRead;
        table.setTelemetry(telemetry);
    }
};

/**
 * Execute @p spec on @p session, render it, honour its verify flag.
 * @return false on verification failure.
 */
bool
runSpec(Session &session, ExperimentSpec spec, unsigned sample_override,
        MergedExport *merged)
{
    if (sample_override)
        spec.sampleWindows = sample_override;
    SweepTable table = session.run(spec);

    if (!spec.render.empty()) {
        const FigureDef *renderer = figureByName(spec.render);
        if (!renderer)
            FW_FATAL("spec '%s' names unknown renderer '%s' "
                     "(see --list)",
                     spec.name.c_str(), spec.render.c_str());
        renderer->render(table);
    } else {
        table.writeCsv(std::cout);
    }

    bool ok = true;
    if (spec.verify) {
        VerifyReport report = session.verify(spec);
        std::printf("\n%s\n", report.summary().c_str());
        ok = report.ok();
    }

    if (merged) {
        for (const SweepRecord &row : table.rows())
            merged->add(row);
        merged->addTelemetry(table.telemetry());
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> figure_names;
    std::vector<std::string> spec_paths;
    std::vector<std::string> validate_paths;
    std::string dump_spec_name;
    std::string dump_checkpoint_path;
    std::string check_golden_dir;
    std::string refresh_golden_dir;
    std::string json_path;
    std::string csv_path;
    bool list_only = false;
    bool run_all = false;
    bool progress = false;
    bool prune_checkpoints = false;
    cli::SnapshotFlags snapshot;
    cli::ObsFlags obs_flags;

    SessionOptions opts = SessionOptions::fromEnv();

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&] {
            return cli::requireValue(argc, argv, &i, flag);
        };
        if (snapshot.tryParse(flag, argc, argv, &i) ||
            obs_flags.tryParse(flag, argc, argv, &i)) {
            // handled
        } else if (flag == "--list") {
            list_only = true;
        } else if (flag == "--figure") {
            figure_names.push_back(value());
        } else if (flag == "--all") {
            run_all = true;
        } else if (flag == "--spec") {
            spec_paths.push_back(value());
        } else if (flag == "--dump-spec") {
            dump_spec_name = value();
        } else if (flag == "--dump-checkpoint") {
            dump_checkpoint_path = value();
        } else if (flag == "--validate-spec") {
            validate_paths.push_back(value());
        } else if (flag == "--jobs") {
            opts.jobs = cli::parseJobs(value(), "--jobs");
        } else if (flag == "--cache") {
            opts.cachePath = value();
        } else if (flag == "--progress") {
            progress = true;
        } else if (flag == "--json") {
            json_path = value();
        } else if (flag == "--csv") {
            csv_path = value();
        } else if (flag == "--check-golden") {
            check_golden_dir = value();
        } else if (flag == "--refresh-golden") {
            refresh_golden_dir = value();
        } else if (flag == "--prune-checkpoints") {
            prune_checkpoints = true;
        } else if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            cli::rejectUnknownFlag(argv[0], flag, usage);
        }
    }
    snapshot.apply(&opts);

    // One mode per invocation: silently dropping a requested figure
    // run because --list/--validate-spec/... also appeared would let
    // a CI script skip work while reporting success.
    const int modes = (list_only ? 1 : 0) +
                      (!dump_spec_name.empty() ? 1 : 0) +
                      (!dump_checkpoint_path.empty() ? 1 : 0) +
                      (!validate_paths.empty() ? 1 : 0) +
                      (!check_golden_dir.empty() ? 1 : 0) +
                      (!refresh_golden_dir.empty() ? 1 : 0) +
                      (prune_checkpoints ? 1 : 0) +
                      (run_all || !figure_names.empty() ||
                               !spec_paths.empty()
                           ? 1
                           : 0);
    if (modes > 1) {
        std::fprintf(stderr,
                     "choose one mode: --list, --dump-spec, "
                     "--dump-checkpoint, --validate-spec, "
                     "--check-golden, "
                     "--refresh-golden, --prune-checkpoints, or a "
                     "--figure/--all/--spec run\n");
        return 2;
    }
    // Run-only flags must not be silently ignored by other modes.
    const bool run_mode =
        run_all || !figure_names.empty() || !spec_paths.empty();
    if (!run_mode && (!json_path.empty() || !csv_path.empty() ||
                      progress || snapshot.sampleWindows ||
                      obs_flags.active())) {
        std::fprintf(stderr,
                     "--json/--csv/--progress/--sample/--stats/--trace "
                     "only apply to a --figure/--all/--spec run\n");
        return 2;
    }

    // ---- modes that need no simulation ----------------------------
    if (list_only) {
        listFigures();
        return 0;
    }
    if (prune_checkpoints) {
        const std::string dir = snapshot.checkpointDir();
        if (dir.empty() ||
            dir == std::string(Checkpointer::kMemoryOnly)) {
            std::fprintf(stderr,
                         "--prune-checkpoints needs an on-disk store: "
                         "--checkpoint-dir DIR (or "
                         "FLYWHEEL_CHECKPOINTS)\n");
            return 2;
        }
        std::uint64_t bytes = 0;
        const std::size_t removed =
            Checkpointer::pruneStore(dir, snapshot.capBytes, &bytes);
        std::printf("pruned %zu checkpoint file(s) (%llu bytes) from "
                    "%s; cap %llu MB\n",
                    removed, (unsigned long long)bytes, dir.c_str(),
                    (unsigned long long)(snapshot.capBytes >> 20));
        return 0;
    }
    if (!dump_spec_name.empty()) {
        const FigureDef *def = figureByName(dump_spec_name);
        if (!def) {
            std::fprintf(stderr, "unknown figure '%s' (see --list)\n",
                         dump_spec_name.c_str());
            return 2;
        }
        std::printf("%s\n", def->spec.toJson().dump(2).c_str());
        return 0;
    }
    if (!dump_checkpoint_path.empty())
        return cli::dumpCheckpoint(dump_checkpoint_path, std::cout,
                                   std::cerr);
    if (!validate_paths.empty()) {
        bool ok = true;
        for (const std::string &path : validate_paths) {
            ExperimentSpec spec;
            std::string error;
            if (!ExperimentSpec::load(path, &spec, &error)) {
                std::printf("FAIL %s\n", error.c_str());
                ok = false;
                continue;
            }
            std::printf("OK   %s ('%s', %zu points)\n", path.c_str(),
                        spec.name.c_str(), spec.expand().size());
        }
        return ok ? 0 : 1;
    }

    // ---- golden-figure modes --------------------------------------
    GoldenOptions golden_opts;
    golden_opts.jobs = opts.jobs;
    if (!refresh_golden_dir.empty()) {
        Session session(opts);
        if (!session.refreshGolden(refresh_golden_dir, golden_opts))
            return 1;
        std::printf("golden files refreshed in %s\n",
                    refresh_golden_dir.c_str());
        return 0;
    }
    if (!check_golden_dir.empty()) {
        Session session(opts);
        bool ok = true;
        for (const GoldenDiff &d :
             session.checkGolden(check_golden_dir, golden_opts)) {
            if (d.ok()) {
                std::printf("%-7s OK (%s)\n", d.figure.c_str(),
                            d.path.c_str());
                continue;
            }
            ok = false;
            std::printf("%-7s FAIL (%s)%s\n", d.figure.c_str(),
                        d.path.c_str(),
                        d.missing ? " [missing/unreadable]" : "");
            for (const std::string &diff : d.differences)
                std::printf("    %s\n", diff.c_str());
        }
        if (!ok)
            std::printf("golden mismatch; after a deliberate change, "
                        "refresh with: %s --refresh-golden %s\n",
                        argv[0], check_golden_dir.c_str());
        return ok ? 0 : 1;
    }

    // ---- figure / spec execution ----------------------------------
    if (run_all)
        for (const FigureDef *def : allFigures())
            figure_names.push_back(def->name);
    if (figure_names.empty() && spec_paths.empty()) {
        usage(argv[0]);
        return 2;
    }

    if (progress)
        opts.progress = cli::stderrProgress;

    obs::TraceSink trace_sink;
    opts.obs = obs_flags.makeConfig(&trace_sink);

    Session session(opts);
    MergedExport merged;
    bool need_merged = !json_path.empty() || !csv_path.empty() ||
                       obs_flags.active();
    bool ok = true;
    bool first = true;

    for (const std::string &name : figure_names) {
        const FigureDef *def = figureByName(name);
        if (!def) {
            std::fprintf(stderr, "unknown figure '%s' (see --list)\n",
                         name.c_str());
            return 2;
        }
        if (!first)
            std::printf("\n");
        first = false;
        ok = runSpec(session, def->spec, snapshot.sampleWindows,
                     need_merged ? &merged : nullptr) &&
             ok;
    }
    for (const std::string &path : spec_paths) {
        ExperimentSpec spec;
        std::string error;
        if (!ExperimentSpec::load(path, &spec, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
        if (!first)
            std::printf("\n");
        first = false;
        ok = runSpec(session, spec, snapshot.sampleWindows,
                     need_merged ? &merged : nullptr) &&
             ok;
    }

    if (!json_path.empty()) {
        std::ofstream file;
        merged.table.writeJson(cli::openOut(json_path, file));
    }
    if (!csv_path.empty()) {
        std::ofstream file;
        merged.table.writeCsv(cli::openOut(csv_path, file));
    }
    cli::writeObsOutputs(obs_flags, merged.table, trace_sink);
    return ok ? 0 : 1;
}
