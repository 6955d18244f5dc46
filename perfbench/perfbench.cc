/**
 * @file
 * Benchmark binary: runs one workload of the repository benchmark
 * through the simulator's public front doors and writes the raw
 * samples as one JSON document.  perfbench/run.py builds this binary,
 * pins its environment and turns the samples into metrics;
 * perfbench/README.md maps every metric to its layer and workload.
 *
 *   flywheel_perfbench --workload figures|ckpt|serve --seed N
 *                      --trace 0|1 --work DIR --raw FILE
 *   flywheel_perfbench --serve-worker ADDRESS   (spawned by the daemon)
 *
 * Each invocation runs one pass of the workload on fresh stores, as a
 * user's fresh process would; run.py repeats invocations to fill its
 * time budget.  An untraced pass is followed by set-up-only trials.  A
 * traced pass records spans around each front-door call and then, for
 * figures and ckpt, executes every computed cell again through
 * makeCore / CoreBase::run / save / restore and the Snapshot codec, so
 * host time can be attributed to layers and every cell's window deltas
 * can be compared with the front door's RunResult.
 *
 * Figure renderers print to stdout; the raw document goes to --raw.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/figures.hh"
#include "api/session.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "core/report.hh"
#include "core/sim_driver.hh"
#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/server.hh"
#include "serve/store.hh"
#include "serve/worker.hh"
#include "snapshot/checkpointer.hh"
#include "snapshot/snapshot.hh"
#include "workload/generator.hh"
#include "workload/program.hh"
#include "workload/profiles.hh"

using namespace flywheel;
namespace fs = std::filesystem;

namespace {

/** Simulation workers: one core of a 4-core host stays free for the
 *  benchmark itself, the serve daemon and the OS. */
constexpr unsigned kSimJobs = 3;
/** Set-up alone is measured this many extra times after an untraced
 *  pass, so setup_s is a median over enough samples to be steady. */
constexpr int kSetupTrials = 4;
/** Session::submit's default status poll interval. */
constexpr double kPollSeconds = 0.2;
/** Instructions WorkloadStream::skip advances per benchmark. */
constexpr std::uint64_t kSkipInstrs = 1000000;

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds(int who)
{
    struct rusage ru = {};
    ::getrusage(who, &ru);
    return double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec) +
           double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
}

long
maxRssKb(int who)
{
    struct rusage ru = {};
    ::getrusage(who, &ru);
    return ru.ru_maxrss;
}

/** FNV-1a 64 of @p bytes as 16 hex digits (table reference digests). */
std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", (unsigned long long)h);
    return hex;
}

std::uint64_t
treeBytes(const std::string &dir, std::uint64_t *files = nullptr)
{
    std::uint64_t bytes = 0;
    std::error_code ec;
    if (!fs::exists(dir, ec))
        return 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        bytes += entry.file_size(ec);
        if (files)
            ++*files;
    }
    return bytes;
}

bool
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    return bool(out);
}

// ---------------------------------------------------------------- trace

/**
 * Spans kept in memory and written out with the raw document.  A span
 * has a name, a parent span (-1 = root), the cell it belongs to (-1 =
 * none), start/end seconds since the trace began, and optional
 * numeric attributes.  Thread-safe: traced cells run on several
 * threads.
 */
class Trace
{
  public:
    int
    open(const char *name, int parent, int cell)
    {
        const double t = secondsBetween(epoch_, Clock::now());
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, parent, cell, t, t, Json::object()});
        return int(spans_.size() - 1);
    }

    void
    close(int id, Json attrs)
    {
        const double t = secondsBetween(epoch_, Clock::now());
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[std::size_t(id)].t1 = t;
        spans_[std::size_t(id)].attrs = std::move(attrs);
    }

    Json
    toJson() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Json out = Json::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Rec &s = spans_[i];
            Json j = Json::object();
            j.add("id", std::uint64_t(i));
            j.add("name", s.name);
            j.add("parent", std::int64_t(s.parent));
            j.add("cell", std::int64_t(s.cell));
            j.add("t0", s.t0);
            j.add("t1", s.t1);
            if (!s.attrs.members().empty())
                j.add("attrs", s.attrs);
            out.push(std::move(j));
        }
        return out;
    }

  private:
    struct Rec
    {
        std::string name;
        int parent;
        int cell;
        double t0;
        double t1;
        Json attrs;
    };

    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::deque<Rec> spans_;  ///< no reallocation while spans are open
};

/** Scoped span; a null Trace makes it free (untraced passes). */
class Span
{
  public:
    Span(Trace *trace, const char *name, int parent = -1, int cell = -1)
        : trace_(trace),
          id_(trace ? trace->open(name, parent, cell) : -1)
    {}
    ~Span()
    {
        if (trace_)
            trace_->close(id_, std::move(attrs_));
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }
    void attr(const char *key, double value) { attrs_.add(key, value); }

  private:
    Trace *trace_;
    int id_;
    Json attrs_ = Json::object();
};

// ------------------------------------------------------------- workloads

/** One registered figure as a workload runs it. */
struct Figure
{
    const FigureDef *def;
    ExperimentSpec spec;
};

/**
 * The workload's figures in a seed-dependent order.  Tables depend
 * only on their spec, so the order changes scheduling, never outputs.
 * @p measureInstrs of 0 keeps the registered (default) run lengths.
 */
std::vector<Figure>
figureOrder(std::uint64_t seed, bool gridsOnly, std::uint64_t measureInstrs)
{
    std::vector<Figure> figs;
    for (const FigureDef *def : allFigures()) {
        if (gridsOnly && def->spec.grids.empty())
            continue;
        Figure f{def, def->spec};
        if (measureInstrs) {
            f.spec.warmupInstrs = defaultWarmupInstrs();
            f.spec.measureInstrs = measureInstrs;
        }
        figs.push_back(std::move(f));
    }
    std::mt19937_64 rng(seed);
    for (std::size_t i = figs.size(); i > 1; --i)
        std::swap(figs[i - 1], figs[std::size_t(rng() % i)]);
    return figs;
}

/**
 * Export @p table as files under @p dir and record their digests in
 * @p out.  Returns the CSV text.
 */
std::string
exportTable(const SweepTable &table, const std::string &dir,
            const Figure &fig, Trace *trace, int parent, Json *out)
{
    Span span(trace, "sweep.export", parent);
    std::ostringstream json;
    std::ostringstream csv;
    table.writeJson(json);
    table.writeCsv(csv);
    writeText(dir + "/" + fig.def->name + ".json", json.str());
    writeText(dir + "/" + fig.def->name + ".csv", csv.str());
    out->add("json", digest(json.str()));
    out->add("csv", digest(csv.str()));
    return csv.str();
}

/** A front-door cell the traced cell-by-cell pass re-executes. */
struct CellJob
{
    RunConfig config;
    RunResult expected;
    std::string pass;  ///< "" (figures), "cold" or "warm" (ckpt)
};

/** Grid points per figure; the spec expansion is part of set-up. */
std::vector<std::uint64_t>
expandAll(const std::vector<Figure> &figs)
{
    std::vector<std::uint64_t> points;
    for (const Figure &f : figs)
        points.push_back(f.spec.expand().size());
    return points;
}

/** The Session a pass of @p workload opens over @p dir. */
SessionOptions
sessionOptions(const std::string &workload, const std::string &dir)
{
    SessionOptions options;
    // The serve client's Session only submits; the daemon's workers
    // simulate.
    options.jobs = workload == "serve" ? 1 : kSimJobs;
    if (workload == "ckpt")
        options.checkpointDir = dir + "/checkpoints";
    return options;
}

/**
 * One pass of the figures workload (one Session, no store) or the
 * ckpt workload (a cold and then a warm Session on one fresh on-disk
 * checkpoint store).  Rendered figures go to stdout.  When @p cells is
 * set, every computed cell is appended to it for the cell-by-cell pass.
 */
Json
runInProcess(const std::string &workload, const std::vector<Figure> &figs,
             const std::string &dir, Trace *trace,
             std::vector<CellJob> *cells)
{
    const std::string tables = dir + "/tables";
    fs::create_directories(tables);
    const bool checkpointed = workload == "ckpt";
    const SessionOptions options = sessionOptions(workload, dir);

    const auto s0 = Clock::now();
    auto session = std::make_unique<Session>(options);
    expandAll(figs);
    const double setup = secondsBetween(s0, Clock::now());

    Json figures = Json::array();
    Json sweep = Json::array();
    Json rows = Json::array();
    std::uint64_t instrs = 0;
    std::string fig12Csv;

    const double cpu0 = cpuSeconds(RUSAGE_SELF);
    const auto t0 = Clock::now();
    const int passes = checkpointed ? 2 : 1;
    for (int p = 0; p < passes; ++p) {
        const char *passName = !checkpointed ? "" : p == 0 ? "cold" : "warm";
        if (p == 1)
            session = std::make_unique<Session>(options);
        for (const Figure &fig : figs) {
            Span root(trace, "figure");
            SweepTable table;
            {
                Span s(trace, "session.run", root.id());
                table = session->run(fig.spec);
            }
            {
                Span s(trace, "api.render", root.id());
                fig.def->render(table);
                std::fflush(stdout);
            }
            Json entry = Json::object();
            entry.add("figure", fig.def->name);
            entry.add("pass", passName);
            entry.add("cells", std::uint64_t(table.size()));
            const std::string csv =
                exportTable(table, tables, fig, trace, root.id(), &entry);
            if (fig.def->name == "fig12")
                fig12Csv = csv;
            figures.push(std::move(entry));

            const SweepTelemetry &t = table.telemetry();
            Json tj = Json::object();
            tj.add("pass", passName);
            tj.add("wall", t.wallSeconds);
            tj.add("cells", std::uint64_t(t.cells));
            tj.add("cacheHits", std::uint64_t(t.cacheHits));
            tj.add("jobs", t.jobs);
            tj.add("poolBusy", t.poolBusySeconds);
            tj.add("ckptMemoryHits", t.checkpointMemoryHits);
            tj.add("ckptDiskHits", t.checkpointDiskHits);
            tj.add("ckptComputes", t.checkpointComputes);
            sweep.push(std::move(tj));

            for (const SweepRecord &row : table.rows()) {
                if (row.fromCache)
                    continue;
                instrs += row.result.instructions;
                const RunTelemetry &rt = row.result.telemetry;
                Json r = Json::object();
                r.add("pass", passName);
                r.add("wall", row.wallSeconds);
                r.add("warmup", rt.warmupSeconds);
                r.add("measure", rt.measureSeconds);
                r.add("reduce", rt.reduceSeconds);
                r.add("restored", rt.warmupRestored);
                rows.push(std::move(r));
                if (cells)
                    cells->push_back({row.point.config, row.result, passName});
            }
        }
    }
    const double wall = secondsBetween(t0, Clock::now());
    const double cpu = cpuSeconds(RUSAGE_SELF) - cpu0;
    session.reset();

    std::uint64_t ckptFiles = 0;
    const std::uint64_t ckptBytes =
        treeBytes(dir + "/checkpoints", &ckptFiles);

    Json doc = Json::object();
    doc.add("setup_s", setup);
    doc.add("wall_s", wall);
    doc.add("cpu_s", cpu);
    doc.add("instrs", instrs);
    doc.add("store_bytes", treeBytes(dir));
    doc.add("ckpt_files", ckptFiles);
    doc.add("ckpt_bytes", ckptBytes);
    doc.add("figures", std::move(figures));
    doc.add("fig12_csv", fig12Csv);
    doc.add("sweep", std::move(sweep));
    doc.add("rows", std::move(rows));
    return doc;
}

// ------------------------------------------------- traced cell-by-cell

/** Which warm-state path the cell-by-cell pass takes. */
enum class WarmPath
{
    Simulate,  ///< no store: every cell simulates its warmup (figures)
    Persist,   ///< first cell per key simulates, saves and persists
    Load,      ///< first cell per key loads; all restore (warm store)
};

std::uint64_t
registryCounter(const Json &doc, const std::string &group,
                const std::string &stat)
{
    for (const Json &g : doc["groups"].items()) {
        if (g["name"].asString() != group)
            continue;
        for (const Json &s : g["stats"].items())
            if (s["name"].asString() == stat)
                return s["value"].asU64();
    }
    return 0;
}

std::string
snapshotPath(const std::string &store, const std::string &key)
{
    return store + "/" + digest(key) + ".fws";
}

/**
 * Execute the cells of one checkpoint key in order, the way runSim
 * and the Checkpointer would, with a span around every layer call.
 * Appends one record per cell to @p out (guarded by @p mutex).
 */
void
runCellGroup(const std::vector<const CellJob *> &group, WarmPath path,
             const std::string &store, int firstCell, Trace *trace,
             std::mutex *mutex, Json *out)
{
    std::shared_ptr<Snapshot> snap;
    for (std::size_t i = 0; i < group.size(); ++i) {
        const RunConfig &config = group[i]->config;
        const int cellId = firstCell + int(i);
        Json rec = Json::object();
        std::string error;
        {
            Span cell(trace, "cell", -1, cellId);
            const int parent = cell.id();
            std::unique_ptr<StaticProgram> program;
            std::unique_ptr<WorkloadStream> stream;
            {
                Span s(trace, "workload.build", parent, cellId);
                program = std::make_unique<StaticProgram>(config.profile);
                stream = std::make_unique<WorkloadStream>(*program);
            }
            std::unique_ptr<CoreBase> core;
            {
                Span s(trace, "core.make", parent, cellId);
                core = makeCore(config, *stream);
            }
            const double period = config.params.basePeriodPs;
            const bool simulate = config.warmupInstrs > 0 &&
                                  (path == WarmPath::Simulate ||
                                   (path == WarmPath::Persist && i == 0));
            if (simulate) {
                Span s(trace, "core.warmup", parent, cellId);
                core->run(config.warmupInstrs);
                s.attr("instrs", double(core->stats().retired));
                s.attr("cycles", double(core->events().totalTicks) / period);
            }
            if (simulate && path == WarmPath::Persist) {
                {
                    Span s(trace, "snapshot.save", parent, cellId);
                    snap = std::make_shared<Snapshot>();
                    snap->setKey(checkpointKey(config));
                    core->save(*snap);
                    s.attr("bytes", double(snap->serialize().size()));
                }
                Span s(trace, "snapshot.persist", parent, cellId);
                if (!snap->writeFile(snapshotPath(store, snap->key()),
                                     &error))
                    error = "persist: " + error;
            }
            if (!simulate && config.warmupInstrs > 0) {
                if (path == WarmPath::Load && i == 0) {
                    Span s(trace, "snapshot.load", parent, cellId);
                    const std::string key = checkpointKey(config);
                    snap = std::make_shared<Snapshot>();
                    if (!Snapshot::readFile(snapshotPath(store, key),
                                            snap.get(), &error))
                        error = "load: " + error;
                    else if (snap->key() != key)
                        error = "load: snapshot of another configuration";
                }
                if (snap && error.empty()) {
                    Span s(trace, "snapshot.restore", parent, cellId);
                    core->restore(*snap);
                }
            }

            Json before;
            {
                Span s(trace, "bench.observe", parent, cellId);
                before = core->statsRegistry().dump();
            }
            EnergyEvents events;
            CoreStats stats;
            {
                Span s(trace, "core.measure", parent, cellId);
                const EnergyEvents e0 = core->events();
                const CoreStats c0 = core->stats();
                core->run(config.measureInstrs);
                events = core->events() - e0;
                stats = core->stats() - c0;
                s.attr("instrs", double(stats.retired));
                s.attr("cycles", double(events.totalTicks) / period);
            }
            Span s(trace, "bench.observe", parent, cellId);
            const Json after = core->statsRegistry().dump();
            const RunResult &want = group[i]->expected;
            const bool match =
                error.empty() && events.totalTicks == want.timePs &&
                toJson(stats).dump() == toJson(want.stats).dump() &&
                toJson(events).dump() == toJson(want.events).dump();
            rec.add("cell", std::int64_t(cellId));
            rec.add("pass", group[i]->pass);
            rec.add("bench", config.profile.name);
            rec.add("kind", coreKindName(config.kind));
            rec.add("match", match);
            rec.add("error", error);
            rec.add("retired", stats.retired);
            rec.add("cycles", double(events.totalTicks) / period);
            rec.add("condBranches", stats.condBranches);
            rec.add("mispredicts", stats.mispredicts);
            rec.add("ecRetired", stats.ecRetired);
            rec.add("ecLookups", stats.ecLookups);
            rec.add("ecHits", stats.ecHits);
            rec.add("l1dMisses",
                    registryCounter(after, "core.dcache", "misses") -
                        registryCounter(before, "core.dcache", "misses"));
            rec.add("l2Misses",
                    registryCounter(after, "core.l2", "misses") -
                        registryCounter(before, "core.l2", "misses"));
        }
        std::lock_guard<std::mutex> lock(*mutex);
        out->push(std::move(rec));
    }
}

/**
 * Re-execute @p cells of one pass cell by cell on kSimJobs threads,
 * grouped by checkpoint key so each key's warm state is produced once,
 * as the Checkpointer does.
 */
Json
runCellByCell(const std::vector<CellJob> &cells, const std::string &pass,
              WarmPath path, const std::string &store, Trace *trace,
              int *nextCell)
{
    fs::create_directories(store);
    // Without a store every cell warms up alone, so it is its own group.
    std::map<std::string, std::vector<const CellJob *>> byKey;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellJob &c = cells[i];
        if (c.pass == pass)
            byKey[path == WarmPath::Simulate ? std::to_string(i)
                                             : checkpointKey(c.config)]
                .push_back(&c);
    }
    std::vector<std::pair<int, const std::vector<const CellJob *> *>> groups;
    for (const auto &entry : byKey) {
        groups.push_back({*nextCell, &entry.second});
        *nextCell += int(entry.second.size());
    }

    Json out = Json::array();
    std::mutex mutex;
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kSimJobs; ++t) {
        threads.emplace_back([&] {
            for (std::size_t g = next++; g < groups.size(); g = next++)
                runCellGroup(*groups[g].second, path, store,
                             groups[g].first, trace, &mutex, &out);
        });
    }
    for (std::thread &t : threads)
        t.join();
    return out;
}

/** WorkloadStream::skip timed on a fresh stream of every benchmark. */
void
timeStreamSkip(Trace *trace)
{
    for (const BenchProfile &profile : paperBenchmarks()) {
        StaticProgram program(profile);
        WorkloadStream stream(program);
        Span s(trace, "workload.skip");
        stream.skip(kSkipInstrs);
        s.attr("instrs", double(kSkipInstrs));
    }
}

// ----------------------------------------------------------------- serve

/** A ServeDaemon with its local workers, run on its own thread. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Start the daemon on a store under @p dir and block until every
     * local worker has said hello.
     */
    bool
    start(const std::string &dir, std::string *error)
    {
        serve::ServeOptions opts;
        opts.storeDir = dir + "/store";
        opts.listen.path = dir + "/serve.sock";
        opts.localWorkers = kSimJobs;
        opts.workerArgv = {selfExe(), "--serve-worker", "@ADDRESS@"};
        daemon_ = std::make_unique<serve::ServeDaemon>(std::move(opts));
        if (!daemon_->start(error))
            return false;
        address_ = daemon_->boundAddress().display();
        thread_ = std::thread([this] { daemon_->run(); });
        return awaitWorkers(error);
    }

    /** Stop the daemon; returns once its workers have been reaped. */
    void
    stop()
    {
        if (thread_.joinable()) {
            daemon_->stop();
            thread_.join();
        }
    }

    const std::string &address() const { return address_; }

  private:
    static std::string
    selfExe()
    {
        char buf[4096];
        const ssize_t n =
            ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
        if (n <= 0)
            return "";
        buf[n] = '\0';
        return buf;
    }

    bool
    awaitWorkers(std::string *error)
    {
        serve::ServeClient client;
        serve::ServeAddress addr;
        if (!serve::parseServeAddress(address_, &addr, error) ||
            !client.connect(addr, error))
            return false;
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        while (Clock::now() < deadline) {
            Json doc;
            if (!client.stats(&doc, error))
                return false;
            unsigned shards = 0;
            for (const Json &g : doc["groups"].items())
                if (g["name"].asString().rfind("serve.shard.", 0) == 0)
                    ++shards;
            if (shards >= kSimJobs)
                return true;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        *error = "serve workers did not say hello within 30 s";
        return false;
    }

    std::unique_ptr<serve::ServeDaemon> daemon_;
    std::string address_;
    std::thread thread_;
};

/**
 * Time JournalWriter::append (with its fdatasync) and
 * ResultStore::save on the real records a served pass left in
 * @p store, replayed into the scratch directory @p scratch.
 */
void
timeJournalAndStore(const std::string &store, const std::string &scratch,
                    Trace *trace)
{
    fs::create_directories(scratch + "/results");
    serve::ResultStore from(store + "/results");
    serve::ResultStore to(scratch + "/results");
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(store, ec)) {
        std::string jobId;
        if (!serve::journalIdFromName(entry.path().filename().string(),
                                      &jobId))
            continue;
        serve::JournalState state;
        std::string error;
        if (!serve::journalLoad(entry.path().string(), &state, &error))
            continue;
        serve::JournalWriter writer;
        if (!writer.open(scratch, state.jobId, state.spec, state.cells,
                         &error))
            continue;
        for (const serve::JournalEntry &e : state.entries) {
            Span s(trace, "serve.journal_append");
            writer.append(e.cell, e.key, e.wallSeconds);
        }
        for (const serve::JournalEntry &e : state.entries) {
            RunResult result;
            if (!from.lookup(e.key, &result))
                continue;
            Span s(trace, "serve.result_save");
            to.save(e.key, result);
        }
    }
}

/**
 * Measured-window instructions over the distinct rows of served CSV
 * tables: a cell shared by several figures (fig12/13/14) is simulated
 * once, and its rows are byte-identical.
 */
std::uint64_t
distinctRowInstrs(const std::vector<std::string> &csvs)
{
    std::set<std::string> seen;
    std::uint64_t instrs = 0;
    for (const std::string &csv : csvs) {
        std::istringstream in(csv);
        std::string line;
        std::getline(in, line);  // header
        while (std::getline(in, line)) {
            if (!seen.insert(line).second)
                continue;
            // bench,kind,node,feBoost,beBoost,gating,instructions,...
            std::size_t pos = 0;
            for (int field = 0; field < 6 && pos != std::string::npos;
                 ++field)
                pos = line.find(',', pos + 1);
            if (pos != std::string::npos)
                instrs += std::strtoull(line.c_str() + pos + 1, nullptr,
                                        10);
        }
    }
    return instrs;
}

/**
 * One pass of the serve workload: a daemon with kSimJobs local
 * workers on a fresh store and one closed-loop client that submits
 * every grid figure and waits for each table before the next.  The
 * untraced pass goes through Session::submit; the traced pass drives
 * ServeClient directly to time and count its calls.
 */
Json
runServe(const std::vector<Figure> &figs, const std::string &dir,
         Trace *trace)
{
    const std::string tables = dir + "/tables";
    fs::create_directories(tables);
    Json doc = Json::object();
    Json figures = Json::array();
    Json jobs = Json::array();
    Json errors = Json::array();
    std::string fig12Csv;
    std::vector<std::string> csvs;
    std::uint64_t cellsTotal = 0;

    const double child0 = cpuSeconds(RUSAGE_CHILDREN);
    const auto s0 = Clock::now();
    Daemon daemon;
    std::string error;
    if (!daemon.start(dir, &error)) {
        errors.push(error);
        doc.add("errors", std::move(errors));
        return doc;
    }
    Session session(sessionOptions("serve", dir));
    const std::vector<std::uint64_t> figPoints = expandAll(figs);
    const double setup = secondsBetween(s0, Clock::now());

    serve::ServeClient client;
    serve::ServeAddress addr;
    const double cpu0 = cpuSeconds(RUSAGE_SELF);
    const auto t0 = Clock::now();
    if (trace && (!serve::parseServeAddress(daemon.address(), &addr,
                                            &error) ||
                  !client.connect(addr, &error)))
        errors.push(error);
    for (std::size_t f = 0; f < figs.size(); ++f) {
        const Figure &fig = figs[f];
        const auto j0 = Clock::now();
        std::string json;
        std::string csv;
        std::uint64_t polls = 0;
        error.clear();
        if (!trace) {
            SubmitOutcome out;
            if (session.submit(daemon.address(), fig.spec, &out, &error,
                               kPollSeconds)) {
                json = std::move(out.tableJson);
                csv = std::move(out.tableCsv);
                cellsTotal += out.cells;
            }
        } else if (client.connected()) {
            Span root(trace, "serve.job");
            serve::ServeClient::Submitted sub;
            bool ok;
            {
                Span s(trace, "serve.submit", root.id());
                ok = client.submit(fig.spec, &sub, &error);
            }
            if (ok) {
                Span s(trace, "serve.wait", root.id());
                ok = client.waitForCompletion(
                    sub.jobId, kPollSeconds,
                    [&](const Json &) { ++polls; }, &error);
            }
            if (ok) {
                Span s(trace, "serve.results", root.id());
                client.results(sub.jobId, &json, &csv, &error);
            }
            cellsTotal += sub.cells;
        }
        Json entry = Json::object();
        entry.add("figure", fig.def->name);
        entry.add("pass", "");
        entry.add("cells", figPoints[f]);
        entry.add("json", json.empty() ? "" : digest(json));
        entry.add("csv", csv.empty() ? "" : digest(csv));
        entry.add("error", error);
        writeText(tables + "/" + fig.def->name + ".json", json);
        writeText(tables + "/" + fig.def->name + ".csv", csv);
        if (fig.def->name == "fig12")
            fig12Csv = csv;
        csvs.push_back(std::move(csv));
        figures.push(std::move(entry));
        Json job = Json::object();
        job.add("figure", fig.def->name);
        job.add("roundtrip", secondsBetween(j0, Clock::now()));
        job.add("polls", polls);
        jobs.push(std::move(job));
    }
    const double wall = secondsBetween(t0, Clock::now());
    const double cpuSelf = cpuSeconds(RUSAGE_SELF) - cpu0;

    Json stats;
    if (client.connected() && !client.stats(&stats, &error))
        errors.push(error);
    client.close();
    daemon.stop();
    const double cpu = cpuSelf + cpuSeconds(RUSAGE_CHILDREN) - child0;
    if (trace)
        timeJournalAndStore(dir + "/store", dir + "/replay", trace);
    std::uint64_t ckptFiles = 0;
    const std::uint64_t ckptBytes =
        treeBytes(dir + "/store/checkpoints", &ckptFiles);

    doc.add("setup_s", setup);
    doc.add("wall_s", wall);
    doc.add("cpu_s", cpu);
    doc.add("instrs", distinctRowInstrs(csvs));
    doc.add("store_bytes", treeBytes(dir + "/store") + treeBytes(tables));
    doc.add("ckpt_files", ckptFiles);
    doc.add("ckpt_bytes", ckptBytes);
    doc.add("cells_total", cellsTotal);
    doc.add("figures", std::move(figures));
    doc.add("fig12_csv", fig12Csv);
    doc.add("jobs", std::move(jobs));
    doc.add("serve_stats", std::move(stats));
    doc.add("errors", std::move(errors));
    return doc;
}

/** Set-up alone (no grid call), for the setup_s median. */
double
setupOnly(const std::string &workload, const std::vector<Figure> &figs,
          const std::string &dir)
{
    const auto s0 = Clock::now();
    Daemon daemon;
    std::string error;
    if (workload == "serve" && !daemon.start(dir, &error))
        FW_FATAL("serve set-up failed: %s", error.c_str());
    Session session(sessionOptions(workload, dir));
    expandAll(figs);
    return secondsBetween(s0, Clock::now());
}

Json
runPass(const std::string &workload, const std::vector<Figure> &figs,
        const std::string &dir, Trace *trace, std::vector<CellJob> *cells)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    Json doc = workload == "serve"
                   ? runServe(figs, dir, trace)
                   : runInProcess(workload, figs, dir, trace, cells);
    fs::remove_all(dir);
    return doc;
}

Json
environment()
{
    Json env = Json::object();
    env.add("nproc", std::thread::hardware_concurrency());
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    std::string model = "unknown";
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            model = line.substr(line.find(':') + 2);
            break;
        }
    }
    env.add("cpu", model);
    env.add("compiler", std::string("g++ ") + __VERSION__);
    env.add("build_type", PERFBENCH_BUILD_TYPE);
    env.add("sim_jobs", kSimJobs);
    return env;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload figures|ckpt|serve --seed N "
                 "--trace 0|1 --work DIR --raw FILE\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Quiet);
    if (argc == 3 && std::string(argv[1]) == "--serve-worker") {
        serve::WorkerOptions opts;
        std::string error;
        if (!serve::parseServeAddress(argv[2], &opts.connect, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
        return serve::runWorker(opts);
    }

    std::string workload;
    std::string work;
    std::string raw;
    std::uint64_t seed = 0;
    int traced = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--trace")
            traced = std::atoi(value);
        else if (flag == "--work")
            work = value;
        else if (flag == "--raw")
            raw = value;
        else
            usage(argv[0]);
    }
    if ((workload != "figures" && workload != "ckpt" &&
         workload != "serve") ||
        (traced != 0 && traced != 1) || work.empty() ||
        raw.empty() || argc % 2 != 1)
        usage(argv[0]);

    // Measure only what users run: an optimized, uninstrumented build
    // with no FLYWHEEL_* override reshaping the workload.
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release" ||
        std::string(PERFBENCH_INSTRUMENTED).size()) {
        std::fprintf(stderr,
                     "refusing to measure a '%s' build configured "
                     "with [%s]; want Release and no instrumentation\n",
                     PERFBENCH_BUILD_TYPE, PERFBENCH_INSTRUMENTED);
        return 2;
    }
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "FLYWHEEL_", 9) == 0) {
            std::fprintf(stderr, "refusing to run with %s set\n", *e);
            return 2;
        }
    }

    const std::vector<Figure> figs = figureOrder(
        seed, workload == "serve",
        workload == "ckpt" ? defaultMeasureInstrs() / 6 : 0);

    Json doc = Json::object();
    doc.add("workload", workload);
    doc.add("seed", seed);
    doc.add("env", environment());
    Trace trace;
    std::vector<CellJob> computed;
    doc.add("pass", runPass(workload, figs, work + "/pass",
                            traced ? &trace : nullptr,
                            traced ? &computed : nullptr));
    if (!traced) {
        Json setups = Json::array();
        for (int k = 0; k < kSetupTrials; ++k) {
            const std::string dir = work + "/setup";
            fs::remove_all(dir);
            fs::create_directories(dir);
            setups.push(setupOnly(workload, figs, dir));
            fs::remove_all(dir);
        }
        doc.add("setup_samples", std::move(setups));
    }
    if (traced && workload != "serve") {
        const std::string store = work + "/cells";
        int nextCell = 0;
        Json cells = Json::array();
        const std::vector<std::pair<const char *, WarmPath>> plan =
            workload == "ckpt"
                ? std::vector<std::pair<const char *, WarmPath>>{
                      {"cold", WarmPath::Persist}, {"warm", WarmPath::Load}}
                : std::vector<std::pair<const char *, WarmPath>>{
                      {"", WarmPath::Simulate}};
        for (const auto &step : plan) {
            const Json done = runCellByCell(computed, step.first,
                                            step.second, store, &trace,
                                            &nextCell);
            for (const Json &c : done.items())
                cells.push(c);
        }
        fs::remove_all(store);
        doc.add("cells", std::move(cells));
        timeStreamSkip(&trace);
    }
    if (traced)
        doc.add("spans", trace.toJson());
    doc.add("peak_rss_kb",
            std::int64_t(std::max(maxRssKb(RUSAGE_SELF),
                                  maxRssKb(RUSAGE_CHILDREN))));
    fs::remove_all(work + "/pass");

    std::ofstream out(raw);
    doc.write(out, 0);
    out << '\n';
    return out ? 0 : 1;
}
