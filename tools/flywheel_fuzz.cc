/**
 * @file
 * Differential fuzzing front end: expand seeds into randomized
 * workload/configuration scenarios, run baseline-vs-Flywheel
 * cross-checking on the worker pool, and report every divergence
 * with its one-line repro.
 *
 *   flywheel_fuzz --seeds 200 --jobs 8      # fuzz seeds 0..199
 *   flywheel_fuzz --seed 137                # reproduce one case
 *
 * Exit status: 0 on success, 1 on any differential mismatch, 2 on
 * usage errors.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "obs/trace.hh"
#include "sweep/thread_pool.hh"
#include "tools/cli_util.hh"
#include "verify/fuzz.hh"

using namespace flywheel;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s [options]\n"
        "\n"
        "differential fuzzing:\n"
        "  --seeds N          run seeds seed-start..seed-start+N-1 "
        "(default: 20)\n"
        "  --seed S           run exactly one seed, verbosely "
        "(repeatable)\n"
        "  --seed-start S     first seed of a --seeds batch "
        "(default: 0)\n"
        "  --instrs N         override instructions per case\n"
        "  --snapshots        save/restore-mid-run mode: snapshot at "
        "a\n"
        "                     seed-derived retire count, restore into "
        "a\n"
        "                     fresh image, diff against the "
        "straight-through run\n"
        "  --jobs N          worker threads (default: FLYWHEEL_JOBS "
        "or all cores)\n"
        "  --list             print each case instead of running it\n"
        "  --quiet            only print failures and the summary\n"
        "\n"
        "single-seed repro tracing:\n"
        "  --trace FILE       write a Chrome trace of the Flywheel\n"
        "                     pipeline ('-' = stdout); requires exactly\n"
        "                     one --seed and no --snapshots\n"
        "  --trace-cats a,b   categories to record (default: all of\n"
        "                     %s)\n",
        argv0, obs::traceCatUsageList().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::uint64_t> explicit_seeds;
    std::uint64_t seed_count = 20;
    std::uint64_t seed_start = 0;
    std::uint64_t instr_override = 0;
    unsigned jobs = 0;
    bool snapshots = false;
    bool list_only = false;
    bool quiet = false;
    std::string trace_path;
    std::uint32_t trace_mask = obs::kTraceCatAll;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&] {
            return cli::requireValue(argc, argv, &i, flag);
        };
        if (flag == "--seeds") {
            seed_count = cli::parseU64(value(), "--seeds");
        } else if (flag == "--seed") {
            explicit_seeds.push_back(cli::parseU64(value(), "--seed"));
        } else if (flag == "--seed-start") {
            seed_start = cli::parseU64(value(), "--seed-start");
        } else if (flag == "--instrs") {
            instr_override = cli::parseU64(value(), "--instrs");
        } else if (flag == "--snapshots") {
            snapshots = true;
        } else if (flag == "--jobs") {
            jobs = cli::parseJobs(value(), "--jobs");
        } else if (flag == "--list") {
            list_only = true;
        } else if (flag == "--quiet") {
            quiet = true;
        } else if (flag == "--trace") {
            trace_path = value();
        } else if (flag == "--trace-cats") {
            const std::string arg = value();
            if (!obs::parseTraceCats(arg, &trace_mask))
                FW_FATAL("--trace-cats: bad category list '%s' (want a "
                         "comma-separated subset of %s)",
                         arg.c_str(),
                         obs::traceCatUsageList().c_str());
        } else if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            cli::rejectUnknownFlag(argv[0], flag, usage);
        }
    }

    // Tracing is a focused-repro tool: one seed, one core, one file.
    if (!trace_path.empty() &&
        (explicit_seeds.size() != 1 || snapshots || list_only)) {
        std::fprintf(stderr, "%s: --trace requires exactly one --seed "
                             "(and no --snapshots/--list)\n", argv[0]);
        return 2;
    }

    // ---- differential fuzzing -------------------------------------
    std::vector<std::uint64_t> seeds = explicit_seeds;
    const bool verbose_each = !explicit_seeds.empty();
    if (seeds.empty()) {
        for (std::uint64_t s = 0; s < seed_count; ++s)
            seeds.push_back(seed_start + s);
    }
    if (seeds.empty()) {
        std::printf("no seeds to run\n");
        return 0;
    }

    if (list_only) {
        for (std::uint64_t s : seeds) {
            FuzzCase c = makeFuzzCase(s);
            if (instr_override)
                c.options.instructions = instr_override;
            std::printf("%s\n", c.describe().c_str());
        }
        return 0;
    }

    struct Outcome
    {
        bool failed = false;
        std::string line;
    };
    std::vector<Outcome> outcomes(seeds.size());

    std::unique_ptr<obs::Tracer> tracer;
    if (!trace_path.empty())
        tracer = std::make_unique<obs::Tracer>(trace_mask);

    ThreadPool pool(jobs);
    pool.parallelFor(seeds.size(), [&](std::size_t i) {
        FuzzCase c = makeFuzzCase(seeds[i]);
        if (instr_override)
            c.options.instructions = instr_override;
        c.options.tracer = tracer.get();  // null unless --trace
        DiffReport report =
            snapshots ? runSnapshotFuzzCase(c) : runFuzzCase(c);
        Outcome &out = outcomes[i];
        out.failed = !report.ok();
        if (out.failed) {
            out.line = c.describe() + "\n" + report.summary();
        } else if (verbose_each) {
            out.line = c.describe() + "\n" + report.summary();
        }
    });
    pool.wait();

    if (tracer) {
        obs::TraceSink sink;
        char label[32];
        std::snprintf(label, sizeof(label), "seed-%llu",
                      (unsigned long long)seeds.front());
        sink.add(label, *tracer);
        if (sink.droppedTotal() > 0)
            FW_WARN("trace ring wrapped: kept the last %zu of %llu "
                    "events (oldest %llu dropped)",
                    sink.eventCount(),
                    (unsigned long long)tracer->recorded(),
                    (unsigned long long)sink.droppedTotal());
        std::ofstream file;
        sink.writeChrome(cli::openOut(trace_path, file));
    }

    std::size_t failures = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &out = outcomes[i];
        if (out.failed) {
            ++failures;
            std::printf("FAIL %s\n", out.line.c_str());
        } else if (!out.line.empty() && !quiet) {
            std::printf("%s\n", out.line.c_str());
        }
    }
    std::printf("%zu/%zu fuzz cases passed (seeds %llu..%llu)\n",
                seeds.size() - failures, seeds.size(),
                (unsigned long long)seeds.front(),
                (unsigned long long)seeds.back());
    return failures == 0 ? 0 : 1;
}
