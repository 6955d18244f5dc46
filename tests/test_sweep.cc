/**
 * @file
 * Tests for the parallel sweep engine (the sweep layer and the
 * grid runner in Session): thread-pool behaviour, determinism across
 * worker counts, result-store hits (in-memory and on-disk, including
 * hostile result files), JSON round-trip of RunResult, and export
 * stability.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hh"
#include "common/json.hh"
#include "core/report.hh"
#include "sweep/result_store.hh"
#include "sweep/sweep.hh"
#include "sweep/thread_pool.hh"

namespace flywheel {
namespace {

/** Small grid used by most tests: 2 benches x {baseline, flywheel}. */
std::vector<SweepPoint>
smallGrid()
{
    std::vector<SweepPoint> points;
    for (const char *bench : {"gzip", "gcc"}) {
        points.push_back(makePoint(bench, CoreKind::Baseline, {0.0, 0.0}));
        points.push_back(
            makePoint(bench, CoreKind::Flywheel, {0.5, 0.5}));
    }
    // Keep the grid cheap: the engine's properties do not depend on
    // the simulated instruction count.
    for (auto &pt : points) {
        pt.config.warmupInstrs = 2000;
        pt.config.measureInstrs = 5000;
    }
    return points;
}

/** Self-cleaning path under the test temp directory. */
struct ScratchPath
{
    std::string path;
    explicit ScratchPath(const std::string &name)
        : path(::testing::TempDir() + name)
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchPath() { std::filesystem::remove_all(path); }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, DefaultJobsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, ParseJobsValueAcceptsOnlySaneCounts)
{
    unsigned v = 0;
    EXPECT_TRUE(ThreadPool::parseJobsValue("1", &v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(ThreadPool::parseJobsValue("8", &v));
    EXPECT_EQ(v, 8u);
    EXPECT_TRUE(ThreadPool::parseJobsValue("4096", &v));
    EXPECT_EQ(v, ThreadPool::kMaxJobs);

    // Zero workers can execute nothing; submit() would hang forever.
    EXPECT_FALSE(ThreadPool::parseJobsValue("0", &v));
    // Garbage, prefixes and suffixes.
    EXPECT_FALSE(ThreadPool::parseJobsValue("", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue("abc", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue("8x", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue(" 8", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue("0x10", &v));
    // Negative input must not wrap to a huge unsigned.
    EXPECT_FALSE(ThreadPool::parseJobsValue("-2", &v));
    // Overflow and absurd counts.
    EXPECT_FALSE(ThreadPool::parseJobsValue("4097", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue("99999999999999999999999",
                                            &v));
}

class FlywheelJobsEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const char *old = std::getenv("FLYWHEEL_JOBS");
        if (old)
            saved_ = old;
        had_ = old != nullptr;
    }

    void
    TearDown() override
    {
        if (had_)
            setenv("FLYWHEEL_JOBS", saved_.c_str(), 1);
        else
            unsetenv("FLYWHEEL_JOBS");
    }

  private:
    std::string saved_;
    bool had_ = false;
};

TEST_F(FlywheelJobsEnv, ValidValueIsHonoured)
{
    setenv("FLYWHEEL_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    ThreadPool pool;
    EXPECT_EQ(pool.threadCount(), 3u);
}

TEST_F(FlywheelJobsEnv, InvalidValuesFallBackToHardwareConcurrency)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    for (const char *bad : {"0", "garbage", "8 threads", "-1",
                            "184467440737095516160", ""}) {
        setenv("FLYWHEEL_JOBS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultJobs(), hw)
            << "FLYWHEEL_JOBS='" << bad << "'";
    }
}

TEST(ConfigKey, DistinguishesEveryAxis)
{
    SweepPoint base = makePoint("gcc", CoreKind::Flywheel, {0.5, 0.5});
    std::string key = configKey(base.config);

    SweepPoint other_bench =
        makePoint("gzip", CoreKind::Flywheel, {0.5, 0.5});
    EXPECT_NE(key, configKey(other_bench.config));

    SweepPoint other_kind =
        makePoint("gcc", CoreKind::Baseline, {0.5, 0.5});
    EXPECT_NE(key, configKey(other_kind.config));

    SweepPoint other_clock =
        makePoint("gcc", CoreKind::Flywheel, {0.25, 0.5});
    EXPECT_NE(key, configKey(other_clock.config));

    SweepPoint other_node = makePoint("gcc", CoreKind::Flywheel,
                                      {0.5, 0.5}, TechNode::N60);
    EXPECT_NE(key, configKey(other_node.config));

    RunConfig longer = base.config;
    longer.measureInstrs += 1;
    EXPECT_NE(key, configKey(longer));

    SweepPoint same = makePoint("gcc", CoreKind::Flywheel, {0.5, 0.5});
    EXPECT_EQ(key, configKey(same.config));
}

TEST(ConfigKey, DigestIsPinned)
{
    // The digest names result files and is exported as configHash;
    // checkpoint keys embed the key itself.  Any change to configKey's
    // bytes re-keys every store and table, so it must be deliberate:
    // update this value only together with such a change.
    SweepPoint pt = makePoint("gcc", CoreKind::Flywheel, {0.5, 0.5});
    pt.config.warmupInstrs = 100000;
    pt.config.measureInstrs = 300000;
    EXPECT_EQ(configKey(pt.config).rfind("v=2;bench=gcc;seed=102;", 0),
              0u);
    EXPECT_EQ(fnv1a64(configKey(pt.config)), 0x001d66fe852e92f7ULL);
    // Checkpoint keys and .fws file names derive from configKey of a
    // canonicalized config and carry Snapshot::kFormatVersion
    // ("ckptv=4;"); pin that digest too.
    EXPECT_EQ(fnv1a64(checkpointKey(pt.config)), 0x27e8b3ed4801e73cULL);
    // fnv1a64 itself is standard 64-bit FNV-1a.
    EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
    EXPECT_EQ(fnv1a64("key-a"), 0x71132af295f22d16ULL);
}

TEST(Session, DeterministicAcrossJobCounts)
{
    std::vector<SweepPoint> points = smallGrid();

    std::vector<SweepTable> tables;
    for (unsigned jobs : {1u, 4u, 8u}) {
        SessionOptions opts;
        opts.jobs = jobs;
        Session session(opts);
        tables.push_back(session.run(points));
    }

    for (std::size_t t = 1; t < tables.size(); ++t) {
        ASSERT_EQ(tables[t].size(), tables[0].size());
        for (std::size_t i = 0; i < tables[0].size(); ++i) {
            const RunResult &a = tables[0].at(i).result;
            const RunResult &b = tables[t].at(i).result;
            EXPECT_EQ(a.timePs, b.timePs) << "point " << i;
            EXPECT_EQ(a.instructions, b.instructions) << "point " << i;
            EXPECT_EQ(toJson(a).dump(), toJson(b).dump())
                << "point " << i;
        }
        // Byte-identical structured export, the acceptance criterion.
        std::ostringstream ja, jb, ca, cb;
        tables[0].writeJson(ja);
        tables[t].writeJson(jb);
        EXPECT_EQ(ja.str(), jb.str());
        tables[0].writeCsv(ca);
        tables[t].writeCsv(cb);
        EXPECT_EQ(ca.str(), cb.str());
    }
}

TEST(Session, TracesEveryCellAsItsOwnThreadForAnyJobCount)
{
    // Four cells of one benchmark: each must be its own trace thread
    // (not stacked under the benchmark name in completion order), and
    // the document must not depend on the worker count.
    std::vector<SweepPoint> points;
    points.push_back(makePoint("gzip", CoreKind::Baseline, {0.0, 0.0}));
    for (double fe : {0.0, 0.5, 1.0})
        points.push_back(makePoint("gzip", CoreKind::Flywheel, {fe, 0.5}));
    for (auto &pt : points) {
        pt.config.warmupInstrs = 2000;
        pt.config.measureInstrs = 3000;
    }

    std::vector<std::string> docs;
    for (unsigned jobs : {1u, 4u}) {
        obs::TraceSink sink;
        SessionOptions opts;
        opts.jobs = jobs;
        opts.obs.traceSink = &sink;
        Session session(opts);
        session.run(points);
        EXPECT_EQ(sink.runCount(), points.size()) << "jobs " << jobs;
        docs.push_back(sink.toChromeJson().dump());
    }
    EXPECT_TRUE(docs[0] == docs[1]) << "jobs 1 and 4 traces differ";
}

TEST(Session, CacheHitsOnRerun)
{
    std::vector<SweepPoint> points = smallGrid();

    SessionOptions opts;
    opts.jobs = 4;
    Session session(opts);

    SweepTable first = session.run(points);
    for (const auto &row : first.rows())
        EXPECT_FALSE(row.fromCache);
    EXPECT_EQ(session.cache().misses(), points.size());

    SweepTable second = session.run(points);
    for (const auto &row : second.rows())
        EXPECT_TRUE(row.fromCache);
    EXPECT_EQ(session.cache().hits(), points.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(toJson(first.at(i).result).dump(),
                  toJson(second.at(i).result).dump());
}

TEST(Session, DiskCachePersistsAcrossSessions)
{
    std::vector<SweepPoint> points = smallGrid();
    // A nested, not-yet-existing directory: saves create it.
    const ScratchPath scratch("fw_sweep_cache");
    const std::string dir = scratch.path + "/nested/results";

    std::string first_json;
    {
        SessionOptions opts;
        opts.jobs = 2;
        opts.cacheDir = dir;
        Session session(opts);
        std::ostringstream os;
        session.run(points).writeJson(os);
        first_json = os.str();
        // Every cell is published when it finishes, one file per key.
        for (const SweepPoint &pt : points)
            EXPECT_TRUE(std::filesystem::exists(
                session.cache().pathFor(configKey(pt.config))));
    }
    {
        SessionOptions opts;
        opts.jobs = 2;
        opts.cacheDir = dir;
        Session session(opts); // fresh process stand-in
        SweepTable table = session.run(points);
        for (const auto &row : table.rows())
            EXPECT_TRUE(row.fromCache);
        std::ostringstream os;
        table.writeJson(os);
        EXPECT_EQ(os.str(), first_json);
    }
}

TEST(Session, ProgressCallbackFiresOncePerPoint)
{
    std::vector<SweepPoint> points = smallGrid();
    std::size_t calls = 0;
    std::size_t last_done = 0;

    SessionOptions opts;
    opts.jobs = 4;
    opts.progress = [&](std::size_t done, std::size_t total,
                        const SweepPoint &, const RunResult &, bool) {
        ++calls;
        EXPECT_EQ(total, points.size());
        EXPECT_EQ(done, last_done + 1); // serialized, monotonic
        last_done = done;
    };
    Session session(opts);
    session.run(points);
    EXPECT_EQ(calls, points.size());
}

/**
 * gzip x {baseline FE0/BE0, flywheel FE100/BE50} x @p nodes x gating:
 * cells that differ only in node or gating, so each kind's cells
 * share one simulation.
 */
std::vector<SweepPoint>
siblingGrid(const std::vector<TechNode> &nodes)
{
    std::vector<SweepPoint> points;
    for (const auto &[kind, clock] :
         {std::pair<CoreKind, ClockPoint>{CoreKind::Baseline, {0.0, 0.0}},
          {CoreKind::Flywheel, {1.0, 0.5}}}) {
        for (TechNode node : nodes) {
            for (bool gating : {false, true}) {
                points.push_back(
                    makePoint("gzip", kind, clock, node, gating));
                points.back().config.warmupInstrs = 8000;
                points.back().config.measureInstrs = 10000;
            }
        }
    }
    return points;
}

TEST(SimulatedConfig, ReductionOfTheSimulatedRunEqualsTheRun)
{
    // Fails as soon as the core starts reading a field simulatedConfig
    // resets: the reduced result would then differ from the real run.
    for (CoreKind kind : {CoreKind::Baseline, CoreKind::RegisterAllocation,
                          CoreKind::Flywheel}) {
        SweepPoint pt = makePoint("gzip", kind, {1.0, 0.5});
        pt.config.warmupInstrs = 2000;
        pt.config.measureInstrs = 5000;
        const RunResult simulated = runSim(simulatedConfig(pt.config));
        for (TechNode node :
             {TechNode::N130, TechNode::N90, TechNode::N60}) {
            for (bool gating : {false, true}) {
                RunConfig config = pt.config;
                config.node = node;
                config.frontEndPowerGating = gating;
                EXPECT_EQ(toJson(reduceFor(config, simulated)).dump(),
                          toJson(runSim(config)).dump())
                    << coreKindName(kind) << ' ' << techName(node)
                    << " gating " << gating;
            }
        }
    }
}

TEST(Session, SiblingsShareOneSimulationForAnyJobCount)
{
    const std::vector<SweepPoint> points = siblingGrid(
        {TechNode::N130, TechNode::N90, TechNode::N60});
    std::vector<std::string> want;
    for (const SweepPoint &pt : points)
        want.push_back(toJson(runSim(pt.config)).dump());

    for (unsigned jobs : {1u, 3u}) {
        SessionOptions opts;
        opts.jobs = jobs;
        Session session(opts);
        const SweepTable table = session.run(points);
        ASSERT_EQ(table.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i)
            EXPECT_EQ(toJson(table.at(i).result).dump(), want[i])
                << "jobs " << jobs << " point " << i;
        const SweepTelemetry &t = table.telemetry();
        EXPECT_EQ(t.cells - t.cacheHits, 2u) << "jobs " << jobs;
    }
}

TEST(Session, GridWithoutTheCanonicalNodeStillSimulatesOncePerKind)
{
    const std::vector<SweepPoint> points =
        siblingGrid({TechNode::N90, TechNode::N60});
    SessionOptions opts;
    opts.jobs = 3;
    Session session(opts);
    const SweepTable table = session.run(points);
    const SweepTelemetry &t = table.telemetry();
    EXPECT_EQ(t.cells - t.cacheHits, 2u);

    // The simulated 0.13um ungated sibling was saved on the way.
    for (const SweepPoint &pt : points) {
        RunResult canonical;
        EXPECT_TRUE(session.cache().lookup(
            configKey(simulatedConfig(pt.config)), &canonical));
        EXPECT_EQ(toJson(canonical).dump(),
                  toJson(runSim(simulatedConfig(pt.config))).dump());
    }
}

TEST(CellExecutor, DerivesASiblingFromTheStoredCanonicalRun)
{
    const ScratchPath scratch("fw_sibling_store");
    SweepPoint pt = makePoint("gzip", CoreKind::Flywheel, {1.0, 0.5});
    pt.config.warmupInstrs = 8000;
    pt.config.measureInstrs = 10000;
    {
        ResultStore store(scratch.path);
        ASSERT_TRUE(store.save(configKey(pt.config), runSim(pt.config)));
    }

    RunConfig sibling = pt.config;
    sibling.node = TechNode::N60;
    sibling.frontEndPowerGating = true;
    ResultStore store(scratch.path); // holds only the canonical file
    bool from_cache = false;
    const RunResult result =
        CellExecutor(&store, nullptr).run(sibling, &from_cache);
    EXPECT_TRUE(from_cache);
    EXPECT_EQ(toJson(result).dump(), toJson(runSim(sibling)).dump());
    EXPECT_TRUE(std::filesystem::exists(store.pathFor(configKey(sibling))));
}

TEST(Serialization, RunResultJsonRoundTrip)
{
    SweepPoint pt = makePoint("vpr", CoreKind::Flywheel, {0.25, 0.5});
    pt.config.warmupInstrs = 2000;
    pt.config.measureInstrs = 5000;
    RunResult r = runSim(pt.config);

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(toJson(r).dump(2), parsed, &error)) << error;
    RunResult back = runResultFromJson(parsed);

    EXPECT_EQ(r.instructions, back.instructions);
    EXPECT_EQ(r.timePs, back.timePs);
    EXPECT_DOUBLE_EQ(r.ipc, back.ipc);
    EXPECT_DOUBLE_EQ(r.ecResidency, back.ecResidency);
    EXPECT_DOUBLE_EQ(r.mispredictRate, back.mispredictRate);
    EXPECT_DOUBLE_EQ(r.averageWatts, back.averageWatts);
    EXPECT_EQ(r.stats.retired, back.stats.retired);
    EXPECT_EQ(r.stats.mispredicts, back.stats.mispredicts);
    EXPECT_EQ(r.stats.ecRetired, back.stats.ecRetired);
    EXPECT_EQ(r.events.totalTicks, back.events.totalTicks);
    EXPECT_EQ(r.events.icacheAccesses, back.events.icacheAccesses);
    EXPECT_DOUBLE_EQ(r.energy.totalPj(), back.energy.totalPj());
    EXPECT_DOUBLE_EQ(r.energy.frontEndPj, back.energy.frontEndPj);
    EXPECT_DOUBLE_EQ(r.energy.leakagePj, back.energy.leakagePj);

    // Serialize -> parse -> serialize is byte-stable.
    EXPECT_EQ(toJson(r).dump(2), toJson(back).dump(2));
}

TEST(Serialization, CsvHasOneLinePerPointPlusHeader)
{
    SessionOptions opts;
    opts.jobs = 2;
    Session session(opts);
    SweepTable table = session.run(smallGrid());

    std::ostringstream os;
    table.writeCsv(os);
    std::string csv = os.str();
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, table.size() + 1);
    EXPECT_EQ(csv.rfind("bench,kind,node,", 0), 0u);
}

/** Minimal RFC-4180 reader: one record per line, quoted fields. */
std::vector<std::string>
parseCsvRecord(const std::string &line)
{
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
                field += '"';
                ++i;
            } else if (c == '"') {
                quoted = false;
            } else {
                field += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(field);
            field.clear();
        } else {
            field += c;
        }
    }
    fields.push_back(field);
    return fields;
}

TEST(Serialization, CsvEscapesPathologicalLabels)
{
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("with,comma"), "\"with,comma\"");
    EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvField("two\nlines"), "\"two\nlines\"");

    // A custom point whose labels need every escaping rule at once.
    const std::string evil_bench = "my,\"bench\"";
    const std::string evil_label = "block \"a\", step 2";
    SweepRecord rec;
    rec.point.bench = evil_bench;
    rec.point.label = evil_label;
    rec.point.kind = CoreKind::Flywheel;
    rec.result.instructions = 42;
    SweepTable table;
    table.add(rec);

    std::ostringstream os;
    table.writeCsv(os);
    std::string csv = os.str();

    // Two lines: header + the (escaped) record.
    std::size_t newline = csv.find('\n');
    ASSERT_NE(newline, std::string::npos);
    std::string header = csv.substr(0, newline);
    std::string row = csv.substr(newline + 1);
    ASSERT_FALSE(row.empty());
    row.pop_back(); // trailing '\n'

    // Field count survives the embedded commas...
    std::vector<std::string> header_fields = parseCsvRecord(header);
    std::vector<std::string> fields = parseCsvRecord(row);
    ASSERT_EQ(fields.size(), header_fields.size());
    // ...and the pathological values round-trip exactly.
    EXPECT_EQ(fields[0], evil_bench);
    EXPECT_EQ(fields[1], "flywheel");
    EXPECT_EQ(fields[6], "42");
    EXPECT_EQ(fields.back(), evil_label);
}

TEST(Json, ParsesWhatItWrites)
{
    Json obj = Json::object();
    obj.set("name", "sweep");
    obj.set("count", std::uint64_t(42));
    obj.set("ratio", 0.30000000000000004);
    obj.set("flag", true);
    obj.set("none", Json());
    Json arr = Json::array();
    arr.push(1);
    arr.push("two\nlines");
    arr.push(false);
    obj.set("items", std::move(arr));

    for (int indent : {0, 2}) {
        Json back;
        std::string error;
        ASSERT_TRUE(Json::parse(obj.dump(indent), back, &error)) << error;
        EXPECT_EQ(back["name"].asString(), "sweep");
        EXPECT_EQ(back["count"].asU64(), 42u);
        EXPECT_DOUBLE_EQ(back["ratio"].asDouble(), 0.30000000000000004);
        EXPECT_TRUE(back["flag"].asBool());
        EXPECT_TRUE(back["none"].isNull());
        EXPECT_EQ(back["items"].size(), 3u);
        EXPECT_EQ(back["items"].at(1).asString(), "two\nlines");
    }
}

TEST(Json, RejectsMalformedInput)
{
    Json out;
    EXPECT_FALSE(Json::parse("{\"a\": 1,", out));
    EXPECT_FALSE(Json::parse("[1, 2", out));
    EXPECT_FALSE(Json::parse("{\"a\" 1}", out));
    EXPECT_FALSE(Json::parse("nope", out));
    EXPECT_FALSE(Json::parse("1 2", out));
}

RunResult
resultWithInstructions(std::uint64_t instructions)
{
    RunResult r;
    r.instructions = instructions;
    r.timePs = 456;
    return r;
}

TEST(ResultStore, MemoryOnlyLookupMissThenHit)
{
    ResultStore store;
    EXPECT_FALSE(store.persistent());
    RunResult out;
    EXPECT_FALSE(store.lookup("k", &out));
    EXPECT_TRUE(store.save("k", resultWithInstructions(123)));
    ASSERT_TRUE(store.lookup("k", &out));
    EXPECT_EQ(out.instructions, 123u);
    EXPECT_EQ(out.timePs, 456u);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 1u);
}

TEST(ResultStore, SaveThenLookupRoundTripsThroughFiles)
{
    const ScratchPath dir("fw_result_store_roundtrip");
    ResultStore store(dir.path);
    ASSERT_TRUE(store.persistent());
    ASSERT_TRUE(store.save("key-a", resultWithInstructions(123)));

    // One file per key, named by the key's FNV-1a digest, holding the
    // schema tag, the full key and the result.
    EXPECT_EQ(store.pathFor("key-a"),
              dir.path + "/result-71132af295f22d16.json");
    const std::string bytes = readFile(store.pathFor("key-a"));
    EXPECT_EQ(bytes.rfind("{\"v\": \"flywheel.serve.result.v1\", "
                          "\"key\": \"key-a\", \"result\": {",
                          0),
              0u)
        << bytes;
    EXPECT_EQ(bytes.back(), '\n');

    ResultStore fresh(dir.path);  // fresh process stand-in
    RunResult out;
    ASSERT_TRUE(fresh.lookup("key-a", &out));
    EXPECT_EQ(out.instructions, 123u);
    EXPECT_EQ(out.timePs, 456u);
    EXPECT_FALSE(fresh.lookup("key-b", &out));  // distinct digest
}

TEST(ResultStore, DiskBackedStoreMissesOnceItsFileIsDeleted)
{
    // A store with a directory keeps nothing it saved or read in
    // memory: the file is the one copy.
    const ScratchPath dir("fw_result_store_no_front");
    ResultStore store(dir.path);
    ASSERT_TRUE(store.save("key-a", resultWithInstructions(7)));
    RunResult out;
    ASSERT_TRUE(store.lookup("key-a", &out));
    EXPECT_EQ(out.instructions, 7u);
    ASSERT_TRUE(std::filesystem::remove(store.pathFor("key-a")));
    EXPECT_FALSE(store.lookup("key-a", &out));
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 1u);
}

TEST(ResultStore, KeyMismatchAndGarbageReadAsMisses)
{
    const ScratchPath dir("fw_result_store_garbage");
    std::string valid;  // a well-formed file for "key-a"
    {
        ResultStore writer(dir.path);
        ASSERT_TRUE(writer.save("key-a", resultWithInstructions(5)));
        valid = readFile(writer.pathFor("key-a"));
    }
    const std::string complete = toJson(resultWithInstructions(5)).dump(0);
    const std::string head = "{\"v\": \"flywheel.serve.result.v1\", "
                             "\"key\": \"k\", \"result\": ";

    // Each payload sits in the file for key "k".  Every one must read
    // as a miss, and a later save and lookup of "k" must still work.
    const std::vector<std::pair<const char *, std::string>> payloads = {
        // A digest collision, or a file copied from another store,
        // holds a different full key: a miss, never wrong bytes.
        {"foreign key", valid},
        // Cut off mid-document (a full disk, or a non-atomic writer).
        {"truncated JSON", head + "{\"instr"},
        {"binary garbage", std::string("\x00\xff\xfe{]garbage\x7f", 12)},
        {"non-object root", "[1, 2, 3]"},
        {"wrong schema",
         "{\"v\": \"flywheel.serve.result.v999\", \"key\": \"k\", "
         "\"result\": " + complete + "}"},
        {"non-string schema",
         "{\"v\": 1, \"key\": \"k\", \"result\": " + complete + "}"},
        {"non-object result", head + "[1, 2]}"},
        // Hostile nesting must not crash the parser (depth cap).
        {"nesting bomb", std::string(50000, '[')},
        // Written by an older field set: a miss, not zero-filled.
        {"incomplete result", head + "{\"instructions\": 5}}"},
        {"empty file", ""},
    };
    for (const auto &[what, bytes] : payloads) {
        ResultStore store(dir.path);
        {
            std::ofstream out(store.pathFor("k"), std::ios::binary);
            out << bytes;
        }
        RunResult out;
        EXPECT_FALSE(store.lookup("k", &out)) << what;
        ASSERT_TRUE(store.save("k", resultWithInstructions(9))) << what;
        ResultStore fresh(dir.path);
        ASSERT_TRUE(fresh.lookup("k", &out)) << what;
        EXPECT_EQ(out.instructions, 9u) << what;
    }
}

TEST(ResultStore, UnwritableDirectoryWarnsOnceAndServesFromMemory)
{
    // A regular file where the directory should be: no save can
    // publish, whoever runs the test.
    const ScratchPath blocker("fw_result_store_blocked");
    {
        std::ofstream file(blocker.path);
        file << "not a directory";
    }
    ResultStore store(blocker.path);
    ::testing::internal::CaptureStderr();
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_FALSE(
            store.save("k" + std::to_string(i), resultWithInstructions(i)));
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    std::size_t count = 0;
    for (std::size_t at = warnings.find("result store");
         at != std::string::npos;
         at = warnings.find("result store", at + 1))
        ++count;
    EXPECT_EQ(count, 1u) << warnings;

    for (std::uint64_t i = 0; i < 3; ++i) {
        RunResult out;
        ASSERT_TRUE(store.lookup("k" + std::to_string(i), &out));
        EXPECT_EQ(out.instructions, i);
    }
}

} // namespace
} // namespace flywheel
