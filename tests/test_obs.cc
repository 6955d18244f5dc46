/**
 * @file
 * Tests of the observability layer: the hierarchical stats registry
 * (registration, live dumps, schema validation, duplicate-name
 * panics), the bounded pipeline tracer (masking, ring wrap, Chrome
 * export) and their integration with the simulation driver — an
 * observed run must produce valid documents while leaving the
 * architectural results byte-identical to an unobserved run.
 *
 * The trace-export golden (tests/golden/trace_tiny.json) pins the
 * exact event stream of a tiny deterministic run; refresh after a
 * deliberate pipeline change with:
 *
 *   FLYWHEEL_GOLDEN_REFRESH=1 ./build/test_obs \
 *       --gtest_filter='*GoldenTraceExport*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "core/report.hh"
#include "core/sim_driver.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "workload/profiles.hh"

#ifndef FLYWHEEL_GOLDEN_DIR
#define FLYWHEEL_GOLDEN_DIR "tests/golden"
#endif

namespace flywheel {
namespace {

using obs::StatsGroup;
using obs::StatsRegistry;
using obs::TraceCat;
using obs::TraceEvent;
using obs::Tracer;
using obs::TraceSink;

// ---------------------------------------------------------------- stats

TEST(StatsRegistry, GroupIsCreateOrReturn)
{
    StatsRegistry reg;
    StatsGroup &a = reg.group("core.icache");
    StatsGroup &b = reg.group("core.icache");
    EXPECT_EQ(&a, &b);
    reg.group("core.dcache");
    ASSERT_EQ(reg.groups().size(), 2u);
    // Serialization order is first-registration order.
    EXPECT_EQ(reg.groups()[0]->name(), "core.icache");
    EXPECT_EQ(reg.groups()[1]->name(), "core.dcache");
}

TEST(StatsRegistry, DropGroupRemovesExactlyTheNamedGroup)
{
    StatsRegistry reg;
    std::uint64_t cells = 0;
    reg.group("serve.shard.w1").counter("cells", &cells, "completed");
    reg.group("serve.shard.w2");

    // Dropping releases the name for re-registration (the serve
    // daemon prunes shards of workers that never took work).
    EXPECT_TRUE(reg.dropGroup("serve.shard.w1"));
    ASSERT_EQ(reg.groups().size(), 1u);
    EXPECT_EQ(reg.groups()[0]->name(), "serve.shard.w2");
    EXPECT_FALSE(reg.dropGroup("serve.shard.w1"));  // already gone

    StatsGroup &again = reg.group("serve.shard.w1");
    EXPECT_EQ(again.name(), "serve.shard.w1");
    EXPECT_EQ(reg.groups().size(), 2u);
}

TEST(StatsRegistry, DumpReadsLiveValues)
{
    StatsRegistry reg;
    std::uint64_t raw = 0;
    Counter wrapped;
    double gauge = 0.0;
    Distribution dist(4, 2);
    StatsGroup &g = reg.group("core");
    g.counter("raw", &raw, "plain uint64");
    g.counter("wrapped", wrapped);
    g.gauge("gauge", &gauge);
    g.histogram("dist", &dist);
    g.formula("sum", [&] { return double(raw) + gauge; });

    raw = 7;
    ++wrapped;
    gauge = 2.5;
    dist.sample(1);
    dist.sample(9);  // beyond 4 buckets of width 2 -> overflow

    Json doc = reg.dump();
    EXPECT_EQ(doc["schema"].asString(), std::string(obs::kStatsSchema));
    const Json &stats = doc["groups"].at(0)["stats"];
    ASSERT_EQ(stats.size(), 5u);
    EXPECT_EQ(stats.at(0)["name"].asString(), "raw");
    EXPECT_EQ(stats.at(0)["type"].asString(), "counter");
    EXPECT_EQ(stats.at(0)["value"].asU64(), 7u);
    EXPECT_EQ(stats.at(0)["desc"].asString(), "plain uint64");
    EXPECT_EQ(stats.at(1)["value"].asU64(), 1u);
    EXPECT_EQ(stats.at(2)["type"].asString(), "gauge");
    EXPECT_DOUBLE_EQ(stats.at(2)["value"].asDouble(), 2.5);
    EXPECT_EQ(stats.at(3)["type"].asString(), "histogram");
    EXPECT_EQ(stats.at(3)["overflow"].asU64(), 1u);
    EXPECT_EQ(stats.at(4)["type"].asString(), "formula");
    EXPECT_DOUBLE_EQ(stats.at(4)["value"].asDouble(), 9.5);

    // A later dump of the same registry sees the updated values.
    raw = 100;
    EXPECT_EQ(reg.dump()["groups"].at(0)["stats"].at(0)["value"]
                  .asU64(),
              100u);
}

TEST(StatsRegistryDeathTest, DuplicateNameInGroupPanics)
{
    StatsRegistry reg;
    std::uint64_t v = 0;
    StatsGroup &g = reg.group("core");
    g.counter("hits", &v);
    EXPECT_DEATH(g.counter("hits", &v), "hits");
}

TEST(StatsRegistry, DumpRoundTripsThroughTextAndValidates)
{
    StatsRegistry reg;
    std::uint64_t v = 42;
    reg.group("core.lsq").counter("loads", &v, "retired loads");

    Json doc = reg.dump();
    std::ostringstream text;
    doc.write(text, 2);

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text.str(), parsed, &error)) << error;
    EXPECT_TRUE(obs::validateStatsJson(parsed, &error)) << error;
    EXPECT_EQ(parsed["groups"].at(0)["name"].asString(), "core.lsq");
    EXPECT_EQ(parsed["groups"].at(0)["stats"].at(0)["value"].asU64(),
              42u);
}

TEST(StatsValidate, RejectsMalformedDocuments)
{
    std::string error;

    Json wrong_schema;
    wrong_schema.set("schema", Json(std::string("bogus.v9")));
    wrong_schema.set("groups", Json::array());
    EXPECT_FALSE(obs::validateStatsJson(wrong_schema, &error));

    Json no_groups;
    no_groups.set("schema", Json(std::string(obs::kStatsSchema)));
    EXPECT_FALSE(obs::validateStatsJson(no_groups, &error));

    // A stat entry without a name.
    Json nameless_stat;
    nameless_stat.set("type", Json(std::string("counter")));
    nameless_stat.set("value", Json(std::uint64_t(1)));
    Json stats = Json::array();
    stats.push(std::move(nameless_stat));
    Json group;
    group.set("name", Json(std::string("g")));
    group.set("stats", std::move(stats));
    Json groups = Json::array();
    groups.push(std::move(group));
    Json bad;
    bad.set("schema", Json(std::string(obs::kStatsSchema)));
    bad.set("groups", std::move(groups));
    EXPECT_FALSE(obs::validateStatsJson(bad, &error));
}

// --------------------------------------------------------------- tracer

TEST(TraceCats, ParseAndNames)
{
    std::uint32_t mask = 0;
    EXPECT_TRUE(obs::parseTraceCats("retire,ecmode", &mask));
    EXPECT_EQ(mask, std::uint32_t(TraceCat::Retire) |
                        std::uint32_t(TraceCat::EcMode));
    EXPECT_TRUE(obs::parseTraceCats("all", &mask));
    EXPECT_EQ(mask, obs::kTraceCatAll);

    std::uint32_t untouched = 0xdead;
    EXPECT_FALSE(obs::parseTraceCats("retire,zorp", &untouched));
    EXPECT_EQ(untouched, 0xdeadu);

    // Every category name round-trips through the parser.
    for (unsigned bit = 0; bit < 9; ++bit) {
        const char *name = obs::traceCatName(TraceCat(1u << bit));
        std::uint32_t m = 0;
        EXPECT_TRUE(obs::parseTraceCats(name, &m)) << name;
        EXPECT_EQ(m, 1u << bit) << name;
        EXPECT_NE(obs::traceCatUsageList().find(name),
                  std::string::npos);
    }
}

TEST(Tracer, MaskFiltersCategories)
{
    Tracer t(std::uint32_t(TraceCat::Retire));
    t.instant(TraceCat::Fetch, "fetch", 10);
    t.instant(TraceCat::Retire, "retire", 20, 4);
    t.span(TraceCat::Issue, "issue", 30, 5);
    EXPECT_TRUE(t.wants(TraceCat::Retire));
    EXPECT_FALSE(t.wants(TraceCat::Fetch));
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.snapshot()[0].ts, Tick(20));
    EXPECT_EQ(t.snapshot()[0].a0, 4u);
    EXPECT_EQ(t.recorded(), 1u);
}

TEST(Tracer, RingKeepsTailAndCountsDropped)
{
    Tracer t(obs::kTraceCatAll, /*capacity=*/4);
    for (std::uint64_t i = 0; i < 10; ++i)
        t.instant(TraceCat::Retire, "e", Tick(i), i);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    std::vector<TraceEvent> got = t.snapshot();
    ASSERT_EQ(got.size(), 4u);
    // Oldest-first tail: events 6..9 survive.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(got[i].a0, 6u + i);
}

TEST(TraceSink, EveryAddIsItsOwnThreadSortedByLabel)
{
    Tracer a(obs::kTraceCatAll);
    a.instant(TraceCat::Retire, "retire", 100, 4);
    a.span(TraceCat::EcMode, "ec", 50, 25);
    Tracer b(obs::kTraceCatAll);
    b.instant(TraceCat::Squash, "squash", 200);

    TraceSink sink;
    sink.add("gzip", a);
    sink.add("gzip", b);   // same label: still a thread of its own
    sink.add("gcc", b);
    EXPECT_EQ(sink.runCount(), 3u);
    EXPECT_EQ(sink.eventCount(), 4u);
    EXPECT_EQ(sink.droppedTotal(), 0u);

    Json doc = sink.toChromeJson();
    std::string error;
    EXPECT_TRUE(obs::validateTraceJson(doc, &error)) << error;
    EXPECT_EQ(doc["schema"].asString(), std::string(obs::kTraceSchema));

    // One thread_name metadata record per run, sorted by label; runs
    // sharing a label keep add() order.
    std::vector<std::string> labels;
    std::vector<std::size_t> events_per_tid(4, 0);
    for (const Json &e : doc["traceEvents"].items()) {
        if (e["ph"].asString() == "M")
            labels.push_back(e["args"]["name"].asString());
        else
            ++events_per_tid.at(std::size_t(e["tid"].asU64()));
    }
    EXPECT_EQ(labels, (std::vector<std::string>{"gcc", "gzip", "gzip"}));
    EXPECT_EQ(events_per_tid, (std::vector<std::size_t>{0, 1, 2, 1}));
}

TEST(TraceSink, ChromePhasesAndArgs)
{
    Tracer t(obs::kTraceCatAll);
    t.instant(TraceCat::Retire, "retire", 100, 4, 9);
    t.span(TraceCat::Replay, "replay", 50, 25, 7);
    TraceSink sink;
    sink.add("run", t);
    Json doc = sink.toChromeJson();

    bool saw_instant = false, saw_span = false;
    for (const Json &e : doc["traceEvents"].items()) {
        if (e["ph"].asString() == "M")
            continue;
        if (e["ph"].asString() == "i") {
            saw_instant = true;
            EXPECT_EQ(e["name"].asString(), "retire");
            EXPECT_EQ(e["cat"].asString(), "retire");
            // Chrome "ts"/"dur" are microseconds; ticks are ps.
            EXPECT_DOUBLE_EQ(e["ts"].asDouble(), 100e-6);
            EXPECT_EQ(e["args"]["a0"].asU64(), 4u);
            EXPECT_EQ(e["args"]["a1"].asU64(), 9u);
        } else if (e["ph"].asString() == "X") {
            saw_span = true;
            EXPECT_EQ(e["name"].asString(), "replay");
            EXPECT_DOUBLE_EQ(e["dur"].asDouble(), 25e-6);
        }
    }
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_span);
}

TEST(TraceValidate, RejectsMalformedDocuments)
{
    std::string error;
    Json no_schema;
    no_schema.set("traceEvents", Json::array());
    EXPECT_FALSE(obs::validateTraceJson(no_schema, &error));

    Json bad_event;
    bad_event.set("schema", Json(std::string(obs::kTraceSchema)));
    Json events = Json::array();
    Json e;
    e.set("ph", Json(std::string("i")));  // no name/ts
    events.push(std::move(e));
    bad_event.set("traceEvents", std::move(events));
    EXPECT_FALSE(obs::validateTraceJson(bad_event, &error));
}

// ---------------------------------------------------- driver integration

RunConfig
tinyConfig()
{
    RunConfig cfg;
    cfg.profile = benchmarkByName("gzip");
    cfg.kind = CoreKind::Flywheel;
    cfg.params = clockedParams(0.5, 0.5);
    cfg.warmupInstrs = 2000;
    cfg.measureInstrs = 3000;
    return cfg;
}

TEST(ObsDriver, StatsDocAttachedAndValid)
{
    RunConfig cfg = tinyConfig();
    cfg.obs.collectStats = true;
    RunResult r = runSim(cfg);
    ASSERT_TRUE(r.statsDoc != nullptr);
    std::string error;
    EXPECT_TRUE(obs::validateStatsJson(*r.statsDoc, &error)) << error;

    // The component hierarchy registered itself.
    std::vector<std::string> names;
    for (const Json &g : (*r.statsDoc)["groups"].items())
        names.push_back(g["name"].asString());
    EXPECT_NE(std::find(names.begin(), names.end(), "core"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "core.icache"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "core.ec"),
              names.end());
}

TEST(ObsDriver, TracerFeedsSinkAndPhaseTimersFill)
{
    TraceSink sink;
    RunConfig cfg = tinyConfig();
    cfg.obs.traceSink = &sink;
    cfg.obs.traceMask = std::uint32_t(TraceCat::Retire) |
                        std::uint32_t(TraceCat::EcMode);
    RunResult r = runSim(cfg);
    EXPECT_EQ(sink.runCount(), 1u);
    EXPECT_GT(sink.eventCount(), 0u);
    std::string error;
    EXPECT_TRUE(obs::validateTraceJson(sink.toChromeJson(), &error))
        << error;
    EXPECT_GE(r.telemetry.warmupSeconds, 0.0);
    EXPECT_GT(r.telemetry.measureSeconds, 0.0);
}

TEST(ObsDriver, ObservedRunMatchesUnobservedResults)
{
    // Observation must be read-only: attaching the registry and the
    // tracer cannot perturb the simulation.
    RunConfig plain = tinyConfig();
    RunResult a = runSim(plain);

    TraceSink sink;
    RunConfig observed = tinyConfig();
    observed.obs.collectStats = true;
    observed.obs.traceSink = &sink;
    RunResult b = runSim(observed);

    // The exported forms must be byte-identical (statsDoc/telemetry
    // are deliberately excluded from toJson).
    std::ostringstream ja, jb;
    toJson(a).write(ja, 2);
    toJson(b).write(jb, 2);
    EXPECT_EQ(ja.str(), jb.str());
}

// The committed golden trace pins the exact Chrome export of a tiny
// deterministic run: event stream, ordering, tids and argument
// payloads.  Any pipeline change that shifts observed behavior shows
// up as a byte diff here.
TEST(ObsDriver, GoldenTraceExport)
{
    TraceSink sink;
    RunConfig cfg = tinyConfig();
    cfg.obs.traceSink = &sink;
    cfg.obs.traceMask = std::uint32_t(TraceCat::Retire) |
                        std::uint32_t(TraceCat::EcMode) |
                        std::uint32_t(TraceCat::Replay) |
                        std::uint32_t(TraceCat::Squash);
    cfg.obs.traceCapacity = 512;  // keep the committed file small
    cfg.obs.traceLabel = "trace_tiny";
    runSim(cfg);

    std::ostringstream text;
    sink.writeChrome(text);

    std::string path = std::string(FLYWHEEL_GOLDEN_DIR)
                       + "/trace_tiny.json";
    if (const char *env = std::getenv("FLYWHEEL_GOLDEN_DIR"))
        path = std::string(env) + "/trace_tiny.json";
    if (std::getenv("FLYWHEEL_GOLDEN_REFRESH")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.is_open()) << path;
        out << text.str();
        GTEST_SKIP() << "golden trace refreshed at " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open())
        << "golden trace missing at " << path
        << " (generate with FLYWHEEL_GOLDEN_REFRESH=1 ./test_obs "
           "--gtest_filter='*GoldenTraceExport*')";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(text.str(), want.str())
        << "trace export diverges from the golden; after a deliberate "
           "pipeline change refresh with FLYWHEEL_GOLDEN_REFRESH=1";
}

} // namespace
} // namespace flywheel
