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
 *   flywheel_bench --figure fig12 --cache DIR    # results kept in DIR
 *   flywheel_bench --all
 *   flywheel_bench --spec specs/fig12.json       # data, not code
 *   flywheel_bench --dump-spec fig12             # registry -> JSON
 *   flywheel_bench --dump-checkpoint d/ckpt-X.fws  # sections -> JSON
 *   flywheel_bench --validate-spec specs/fig12.json
 *
 * Figure stdout is byte-identical for any worker count; `--json`/
 * `--csv` additionally export the executed grid(s) in the sweep table
 * formats.  `--all --csv` at short run lengths is the golden
 * regression: tests/e2e/figures.sh compares its stdout and CSV with
 * tests/golden/all.{txt,csv}.
 *
 * Exit status: 0 on success, 1 on validation failure, 2 on usage
 * errors.
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
        "  --cache DIR          result-file directory, e.g. a serve "
        "store's results/\n"
        "  --progress           per-point progress on stderr\n"
        "\n"
        "checkpoints:\n"
        "  --checkpoint-dir DIR reuse warmup checkpoints from DIR\n"
        "\n"
        "%s"
        "\n"
        "output:\n"
        "  --json FILE          export executed grid(s) as JSON "
        "('-' = stdout)\n"
        "  --csv FILE           export executed grid(s) as CSV "
        "('-' = stdout)\n"
        "\n"
        "checkpoint debugging:\n"
        "  --dump-checkpoint FILE  print a .fws checkpoint's header "
        "and section\n"
        "                        table (name, bytes, FNV-1a) as "
        "JSON\n"
        "\n"
        "The golden figures are --all's stdout and --csv export at\n"
        "FLYWHEEL_WARMUP_INSTRS=2000 FLYWHEEL_SIM_INSTRS=5000: "
        "tests/golden/all.txt\n"
        "and all.csv, checked by tests/e2e/figures.sh.\n",
        argv0, cli::ObsFlags::usageText());
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

    /** Keep the first row per exportRowKey (see sweep.hh). */
    void
    add(const SweepRecord &row)
    {
        if (seen.insert(exportRowKey(row.point)).second)
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

/** Execute @p spec on @p session and render it. */
void
runSpec(Session &session, const ExperimentSpec &spec,
        MergedExport *merged)
{
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

    if (merged) {
        for (const SweepRecord &row : table.rows())
            merged->add(row);
        merged->addTelemetry(table.telemetry());
    }
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
    std::string json_path;
    std::string csv_path;
    bool list_only = false;
    bool run_all = false;
    bool progress = false;
    cli::ObsFlags obs_flags;
    SessionOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&] {
            return cli::requireValue(argc, argv, &i, flag);
        };
        if (obs_flags.tryParse(flag, argc, argv, &i)) {
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
            opts.cacheDir = value();
        } else if (flag == "--checkpoint-dir") {
            opts.checkpointDir = value();
        } else if (flag == "--progress") {
            progress = true;
        } else if (flag == "--json") {
            json_path = value();
        } else if (flag == "--csv") {
            csv_path = value();
        } else if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            cli::rejectUnknownFlag(argv[0], flag, usage);
        }
    }

    // One mode per invocation: silently dropping a requested figure
    // run because --list/--validate-spec/... also appeared would let
    // a CI script skip work while reporting success.
    const bool run_mode =
        run_all || !figure_names.empty() || !spec_paths.empty();
    const int modes = (list_only ? 1 : 0) +
                      (!dump_spec_name.empty() ? 1 : 0) +
                      (!dump_checkpoint_path.empty() ? 1 : 0) +
                      (!validate_paths.empty() ? 1 : 0) +
                      (run_mode ? 1 : 0);
    if (modes > 1) {
        std::fprintf(stderr,
                     "choose one mode: --list, --dump-spec, "
                     "--dump-checkpoint, --validate-spec, or a "
                     "--figure/--all/--spec run\n");
        return 2;
    }
    // Run-only flags must not be silently ignored by other modes.
    if (!run_mode && (!json_path.empty() || !csv_path.empty() ||
                      progress || obs_flags.active())) {
        std::fprintf(stderr,
                     "--json/--csv/--progress/--stats/--trace only "
                     "apply to a --figure/--all/--spec run\n");
        return 2;
    }

    // ---- modes that need no simulation ----------------------------
    if (list_only) {
        listFigures();
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
            std::printf("OK   %s ('%s', %llu points)\n", path.c_str(),
                        spec.name.c_str(),
                        (unsigned long long)spec.cellCount());
        }
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
    MergedExport *export_to = nullptr;
    if (!json_path.empty() || !csv_path.empty() || obs_flags.active())
        export_to = &merged;
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
        runSpec(session, def->spec, export_to);
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
        runSpec(session, spec, export_to);
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
    return 0;
}
