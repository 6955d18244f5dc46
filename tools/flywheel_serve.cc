/**
 * @file
 * flywheel_serve — the distributed sweep service CLI.  One binary,
 * three roles:
 *
 * server (default):
 *   flywheel_serve --store DIR [--listen ADDR] [--workers N]
 *                  [--lease-timeout SEC]
 *   Runs the daemon until a client sends --shutdown (or SIGINT/
 *   SIGTERM).  --workers N forks N local worker processes of this
 *   same binary; remote machines join with the worker role.  ADDR is
 *   "HOST:PORT" for TCP (port 0 = ephemeral, printed at startup) or
 *   a Unix socket path; the default is DIR/serve.sock.
 *
 * worker:
 *   flywheel_serve --worker --connect ADDR [--name N] [--store DIR]
 *   Pulls cells until the server says bye.  --store overrides the
 *   store path announced by the server (different mount point).
 *
 * client (any of these with --connect ADDR):
 *   --submit FILE | --submit-figure NAME   submit a spec (idempotent;
 *       resubmitting resumes).  With --wait, block until the sweep
 *       finishes and honour --json/--csv table exports; --poll SEC
 *       sets how often progress is reported meanwhile.
 *   --status JOB      print the job's status document
 *   --results JOB     fetch a finished table (--json/--csv, '-' ok)
 *   --cancel JOB      drop the job's remaining cells
 *   --stats           print the server's flywheel.stats.v1 document
 *   --shutdown        stop the daemon
 *
 * Exit status: 0 on success, 1 on job/protocol failure, 2 on usage
 * errors.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/figures.hh"
#include "common/log.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/worker.hh"
#include "tools/cli_util.hh"

using namespace flywheel;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s [role] [options]\n"
        "\n"
        "server (default role):\n"
        "  --store DIR          shared store: journals, results, "
        "checkpoints\n"
        "  --listen ADDR        HOST:PORT or Unix socket path\n"
        "                       (default: DIR/serve.sock)\n"
        "  --workers N          fork N local worker processes\n"
        "  --lease-timeout SEC  re-pend a silent worker's cells "
        "(default 60)\n"
        "\n"
        "worker role:\n"
        "  --worker             run the pull loop instead of a server\n"
        "  --connect ADDR       server to attach to (required)\n"
        "  --name NAME          shard name (default: pid-derived)\n"
        "  --store DIR          override the server-announced store "
        "path\n"
        "\n"
        "client role (each needs --connect ADDR):\n"
        "  --submit FILE        submit an experiment spec JSON file\n"
        "  --submit-figure NAME submit a registered figure's spec\n"
        "  --wait               block until the submitted job "
        "completes\n"
        "  --poll SEC           progress report interval while "
        "--wait blocks;\n"
        "                       completion returns at once "
        "(default 0.5)\n"
        "  --status JOB         print job status\n"
        "  --results JOB        fetch a finished job's table\n"
        "  --json FILE          write the table as JSON ('-' = "
        "stdout)\n"
        "  --csv FILE           write the table as CSV ('-' = "
        "stdout)\n"
        "  --cancel JOB         cancel a job\n"
        "  --stats              print server statistics\n"
        "  --shutdown           stop the server\n",
        argv0);
}

serve::ServeDaemon *g_daemon = nullptr;

void
stopSignal(int)
{
    if (g_daemon)
        g_daemon->stop();
}

/** This binary's path, for forking local workers. */
std::string
selfExe(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/** Write a fetched table per --json/--csv (both optional). */
void
writeTable(const std::string &json_path, const std::string &csv_path,
           const std::string &table_json, const std::string &table_csv)
{
    if (!json_path.empty()) {
        std::ofstream file;
        cli::openOut(json_path, file) << table_json;
    }
    if (!csv_path.empty()) {
        std::ofstream file;
        cli::openOut(csv_path, file) << table_csv;
    }
}

int
runServer(const char *argv0, const std::string &store,
          const std::string &listen, unsigned workers,
          double lease_timeout)
{
    if (store.empty()) {
        std::fprintf(stderr, "server role requires --store DIR\n");
        return 2;
    }
    serve::ServeOptions opts;
    opts.storeDir = store;
    opts.listen = cli::parseAddress(
        listen.empty() ? store + "/serve.sock" : listen, "--listen");
    opts.localWorkers = workers;
    opts.leaseTimeout = lease_timeout;
    // Local workers learn the store path from `welcome`.
    if (workers > 0)
        opts.workerArgv = {selfExe(argv0), "--worker", "--connect",
                           "@ADDRESS@"};

    serve::ServeDaemon daemon(std::move(opts));
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    g_daemon = &daemon;
    std::signal(SIGINT, stopSignal);
    std::signal(SIGTERM, stopSignal);
    daemon.run();
    g_daemon = nullptr;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool worker_role = false;
    std::string store;
    std::string listen;
    std::string connect;
    std::string name;
    std::string submit_path;
    std::string submit_figure;
    std::string status_job;
    std::string results_job;
    std::string cancel_job;
    std::string json_path;
    std::string csv_path;
    unsigned workers = 0;
    double lease_timeout = 60.0;
    double poll_seconds = 0.5;
    bool wait = false;
    bool want_stats = false;
    bool want_shutdown = false;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&] {
            return cli::requireValue(argc, argv, &i, flag);
        };
        if (flag == "--worker") {
            worker_role = true;
        } else if (flag == "--store") {
            store = value();
        } else if (flag == "--listen") {
            listen = value();
        } else if (flag == "--connect") {
            connect = value();
        } else if (flag == "--name") {
            name = value();
        } else if (flag == "--workers") {
            workers = cli::parseJobs(value(), "--workers");
        } else if (flag == "--lease-timeout") {
            lease_timeout =
                cli::parseSeconds(value(), "--lease-timeout");
        } else if (flag == "--submit") {
            submit_path = value();
        } else if (flag == "--submit-figure") {
            submit_figure = value();
        } else if (flag == "--wait") {
            wait = true;
        } else if (flag == "--poll") {
            poll_seconds = cli::parseSeconds(value(), "--poll");
        } else if (flag == "--status") {
            status_job = value();
        } else if (flag == "--results") {
            results_job = value();
        } else if (flag == "--cancel") {
            cancel_job = value();
        } else if (flag == "--json") {
            json_path = value();
        } else if (flag == "--csv") {
            csv_path = value();
        } else if (flag == "--stats") {
            want_stats = true;
        } else if (flag == "--shutdown") {
            want_shutdown = true;
        } else if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            cli::rejectUnknownFlag(argv[0], flag, usage);
        }
    }

    const int client_modes =
        (!submit_path.empty() || !submit_figure.empty() ? 1 : 0) +
        (!status_job.empty() ? 1 : 0) +
        (!results_job.empty() ? 1 : 0) +
        (!cancel_job.empty() ? 1 : 0) + (want_stats ? 1 : 0) +
        (want_shutdown ? 1 : 0);
    if (client_modes > 1 || (worker_role && client_modes)) {
        std::fprintf(stderr, "choose one role: server, --worker, or a "
                             "single client action\n");
        return 2;
    }

    // ---- worker role ----------------------------------------------
    if (worker_role) {
        if (connect.empty()) {
            std::fprintf(stderr, "--worker requires --connect ADDR\n");
            return 2;
        }
        serve::WorkerOptions opts;
        opts.connect = cli::parseAddress(connect, "--connect");
        opts.name = name;
        opts.storeDir = store;
        return serve::runWorker(opts);
    }

    // ---- client role ----------------------------------------------
    if (client_modes) {
        if (connect.empty()) {
            std::fprintf(stderr,
                         "client actions require --connect ADDR\n");
            return 2;
        }
        serve::ServeClient client;
        std::string error;
        if (!client.connect(cli::parseAddress(connect, "--connect"),
                            &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }

        if (!submit_path.empty() || !submit_figure.empty()) {
            ExperimentSpec spec;
            if (!submit_figure.empty()) {
                const FigureDef *def = figureByName(submit_figure);
                if (!def) {
                    std::fprintf(stderr,
                                 "unknown figure '%s' (see "
                                 "flywheel_bench --list)\n",
                                 submit_figure.c_str());
                    return 2;
                }
                spec = def->spec;
            } else if (!ExperimentSpec::load(submit_path, &spec,
                                             &error)) {
                std::fprintf(stderr, "%s\n", error.c_str());
                return 2;
            }
            serve::ServeClient::Submitted submitted;
            if (!client.submit(spec, &submitted, &error)) {
                std::fprintf(stderr, "submit: %s\n", error.c_str());
                return 1;
            }
            std::printf("job %s: %llu cells%s\n",
                        submitted.jobId.c_str(),
                        (unsigned long long)submitted.cells,
                        submitted.resumed ? " (resumed)" : "");
            if (!wait)
                return 0;
            std::size_t last_done = ~std::size_t(0);
            auto on_status = [&](const Json &st) {
                const std::size_t done =
                    std::size_t(st["done"].asU64());
                if (done != last_done &&
                    logLevel() != LogLevel::Quiet) {
                    last_done = done;
                    std::fprintf(stderr, "[%zu/%llu] cells done\n",
                                 done,
                                 (unsigned long long)
                                     st["cells"].asU64());
                }
            };
            if (!client.waitForCompletion(submitted.jobId,
                                          poll_seconds, on_status,
                                          &error)) {
                std::fprintf(stderr, "wait: %s\n", error.c_str());
                return 1;
            }
            std::string table_json;
            std::string table_csv;
            if (!client.results(submitted.jobId, &table_json,
                                &table_csv, &error)) {
                std::fprintf(stderr, "results: %s\n", error.c_str());
                return 1;
            }
            writeTable(json_path, csv_path, table_json, table_csv);
            return 0;
        }
        if (!status_job.empty()) {
            Json st;
            if (!client.status(status_job, &st, &error)) {
                std::fprintf(stderr, "status: %s\n", error.c_str());
                return 1;
            }
            std::printf("%s\n", st.dump(2).c_str());
            return 0;
        }
        if (!results_job.empty()) {
            std::string table_json;
            std::string table_csv;
            if (!client.results(results_job, &table_json, &table_csv,
                                &error)) {
                std::fprintf(stderr, "results: %s\n", error.c_str());
                return 1;
            }
            if (json_path.empty() && csv_path.empty())
                std::fputs(table_csv.c_str(), stdout);
            writeTable(json_path, csv_path, table_json, table_csv);
            return 0;
        }
        if (!cancel_job.empty()) {
            if (!client.cancel(cancel_job, &error)) {
                std::fprintf(stderr, "cancel: %s\n", error.c_str());
                return 1;
            }
            std::printf("job %s cancelled\n", cancel_job.c_str());
            return 0;
        }
        if (want_stats) {
            Json doc;
            if (!client.stats(&doc, &error)) {
                std::fprintf(stderr, "stats: %s\n", error.c_str());
                return 1;
            }
            std::printf("%s\n", doc.dump(2).c_str());
            return 0;
        }
        if (!client.shutdown(&error)) {
            std::fprintf(stderr, "shutdown: %s\n", error.c_str());
            return 1;
        }
        std::printf("server shutting down\n");
        return 0;
    }

    // ---- server role (default) ------------------------------------
    return runServer(argv[0], store, listen, workers, lease_timeout);
}
