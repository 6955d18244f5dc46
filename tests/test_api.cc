/**
 * @file
 * Tests for the Experiment API: declarative spec JSON round-trip
 * across every axis, strict rejection of malformed documents and of
 * documents past the cell cap, the Session facade, TableIndex lookup, the figure
 * registry, and identity between registered figure specs and the
 * shipped files under specs/ (which is what makes
 * `flywheel_bench --spec specs/figNN.json` reproduce the figure).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "api/experiment.hh"
#include "api/figures.hh"
#include "api/session.hh"
#include "api/table_index.hh"
#include "core/report.hh"
#include "workload/profiles.hh"

#ifndef FLYWHEEL_SPEC_DIR
#define FLYWHEEL_SPEC_DIR "specs"
#endif

namespace flywheel {
namespace {

/** A spec exercising every axis, both grids rich. */
ExperimentSpec
kitchenSinkSpec()
{
    ExperimentSpec spec;
    spec.name = "kitchen_sink";
    spec.title = "round-trip everything";
    spec.render = "fig12";
    spec.warmupInstrs = 1234;
    spec.measureInstrs = 5678;

    GridSpec a;
    a.label = "block, \"a\"";
    a.benchmarks = {"gzip", "gcc"};
    a.kinds = {CoreKind::Baseline, CoreKind::RegisterAllocation,
               CoreKind::Flywheel};
    // Boosts outside the paper's 0..1 range are valid while the
    // period stays a positive whole picosecond.
    a.clocks = {{0.0, 0.0}, {0.25, 0.5}, {1.0, 0.5}, {-0.5, 1000.0}};
    a.nodes = {TechNode::N180, TechNode::N130, TechNode::N90,
               TechNode::N60};
    a.gating = {false, true};
    a.tweaks.extraFrontEndStages = 1;
    a.tweaks.wakeupExtraDelay = 2;
    a.tweaks.srtEnabled = false;
    a.tweaks.ecBlockSlots = 4;
    a.tweaks.ecTotalBlocks = 4096;
    a.tweaks.poolPhysRegs = 256;
    a.tweaks.minPoolSize = 2;
    spec.grids.push_back(a);

    GridSpec b; // all defaults: benchmarks empty = all ten
    spec.grids.push_back(b);
    return spec;
}

TEST(ExperimentSpec, JsonRoundTripIsIdentity)
{
    ExperimentSpec spec = kitchenSinkSpec();
    const std::string dumped = spec.toJson().dump(2);

    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(dumped, doc, &error)) << error;

    ExperimentSpec back;
    ASSERT_TRUE(ExperimentSpec::fromJson(doc, &back, &error)) << error;

    // parse -> serialize -> parse is the identity (canonical form).
    EXPECT_EQ(back.toJson().dump(2), dumped);

    // And the value itself survived.
    EXPECT_EQ(back.name, "kitchen_sink");
    EXPECT_EQ(back.render, "fig12");
    EXPECT_EQ(back.warmupInstrs, 1234u);
    EXPECT_EQ(back.measureInstrs, 5678u);
    ASSERT_EQ(back.grids.size(), 2u);
    EXPECT_EQ(back.grids[0].label, "block, \"a\"");
    EXPECT_EQ(back.grids[0].kinds.size(), 3u);
    EXPECT_EQ(back.grids[0].clocks.size(), 4u);
    EXPECT_EQ(back.grids[0].nodes.size(), 4u);
    EXPECT_EQ(back.grids[0].gating.size(), 2u);
    EXPECT_EQ(*back.grids[0].tweaks.ecTotalBlocks, 4096u);
    EXPECT_EQ(*back.grids[0].tweaks.srtEnabled, false);
    EXPECT_TRUE(back.grids[1].tweaks.empty());

    // Expansion agrees with the original on both shape and configs.
    std::vector<SweepPoint> p0 = spec.expand();
    std::vector<SweepPoint> p1 = back.expand();
    ASSERT_EQ(p0.size(), p1.size());
    ASSERT_EQ(p0.size(),
              2 * 3 * 4 * 4 * 2 + benchmarkNames().size());
    for (std::size_t i = 0; i < p0.size(); ++i) {
        EXPECT_EQ(configKey(p0[i].config), configKey(p1[i].config));
        EXPECT_EQ(p0[i].label, p1[i].label);
    }
}

TEST(ExperimentSpec, MinimalDocumentGetsDefaults)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(
        "{\"schema\": \"flywheel-experiment-v1\", \"name\": \"x\","
        " \"grids\": [{}]}",
        doc, &error)) << error;
    ExperimentSpec spec;
    ASSERT_TRUE(ExperimentSpec::fromJson(doc, &spec, &error)) << error;
    EXPECT_EQ(spec.warmupInstrs, 0u);
    ASSERT_EQ(spec.grids.size(), 1u);
    EXPECT_TRUE(spec.grids[0].benchmarks.empty());
    ASSERT_EQ(spec.grids[0].kinds.size(), 1u);
    EXPECT_EQ(spec.grids[0].kinds[0], CoreKind::Flywheel);
    // Empty benchmarks = all ten.
    EXPECT_EQ(spec.expand().size(), benchmarkNames().size());
}

/** Expect fromJson to fail and mention @p fragment in the error. */
void
expectRejected(const std::string &json, const std::string &fragment)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(json, doc, &error))
        << "test bug, unparseable: " << error;
    ExperimentSpec spec;
    EXPECT_FALSE(ExperimentSpec::fromJson(doc, &spec, &error)) << json;
    EXPECT_NE(error.find(fragment), std::string::npos)
        << "error '" << error << "' does not mention '" << fragment
        << "'";
}

TEST(ExperimentSpec, RejectsMalformedDocuments)
{
    const std::string head =
        "{\"schema\": \"flywheel-experiment-v1\", \"name\": \"x\"";

    // Schema handling.
    expectRejected("{\"name\": \"x\"}", "schema");
    expectRejected("{\"schema\": \"flywheel-experiment-v999\"}",
                   "schema");

    // Unknown fields at every level.
    expectRejected(head + ", \"grid\": []}", "unknown field 'grid'");
    expectRejected(head + ", \"grids\": [{\"bench\": []}]}",
                   "unknown field 'bench'");
    expectRejected(head +
                   ", \"grids\": [{\"tweaks\": {\"fetchWidth\": 8}}]}",
                   "unknown field 'fetchWidth'");
    expectRejected(head +
                   ", \"grids\": [{\"clocks\": [{\"fe\": 0, "
                   "\"boost\": 1}]}]}",
                   "unknown field 'boost'");

    // Bad enum values.
    expectRejected(head + ", \"grids\": [{\"kinds\": [\"turbo\"]}]}",
                   "unknown core kind");
    expectRejected(head + ", \"grids\": [{\"nodes\": [\"7nm\"]}]}",
                   "unknown tech node");
    expectRejected(head +
                   ", \"grids\": [{\"benchmarks\": [\"doom\"]}]}",
                   "unknown benchmark");

    // Bad shapes and ranges.
    expectRejected(head + ", \"grids\": [{\"kinds\": []}]}",
                   "non-empty");
    expectRejected(head + ", \"grids\": [{\"gating\": [1]}]}",
                   "expected bools");
    expectRejected(head + ", \"grids\": [{\"clocks\": [0.5]}]}",
                   "expected {fe, be}");
    expectRejected(head + ", \"warmupInstrs\": -5}",
                   "non-negative integer");

    // Repeats, spec-driven verification and interval sampling were
    // removed: a member that asks for one is refused by name.
    expectRejected(head + ", \"repeat\": 0}", "spec.repeat");
    expectRejected(head + ", \"repeat\": 2}", "spec.repeat");
    expectRejected(head + ", \"verify\": true}", "spec.verify");
    expectRejected(head + ", \"verify\": \"yes\"}", "spec.verify");
    expectRejected(head + ", \"sampling\": {\"windows\": 4}}",
                   "interval sampling was removed");
    expectRejected(head + ", \"sampling\": {\"slices\": 4}}",
                   "interval sampling was removed");
    // Clock boosts whose period is not a positive whole picosecond.
    expectRejected(head + ", \"grids\": [{\"clocks\": [{\"fe\": -1, "
                   "\"be\": 0}]}]}",
                   "clocks.fe");
    expectRejected(head + ", \"grids\": [{\"clocks\": [{\"fe\": 0, "
                   "\"be\": -2}]}]}",
                   "clocks.be");
    expectRejected(head + ", \"grids\": [{\"clocks\": [{\"fe\": 1e9, "
                   "\"be\": 0}]}]}",
                   "clocks.fe");
    expectRejected(head + ", \"measureInstrs\": 1.5}",
                   "non-negative integer");
    expectRejected(head +
                   ", \"grids\": [{\"tweaks\": {\"srtEnabled\": 1}}]}",
                   "expected a bool");

    // Tweaks the cores cannot be built or run with, named by field.
    const auto tweaks = [&head](const std::string &members) {
        return head + ", \"grids\": [{\"tweaks\": {" + members + "}}]}";
    };
    expectRejected(tweaks("\"ecBlockSlots\": 0"), "tweaks.ecBlockSlots");
    expectRejected(tweaks("\"ecTotalBlocks\": 0"), "tweaks.ecTotalBlocks");
    expectRejected(tweaks("\"ecTotalBlocks\": 1"), "tweaks.ecTotalBlocks");
    expectRejected(tweaks("\"minPoolSize\": 1000"), "tweaks.minPoolSize");
    expectRejected(tweaks("\"poolPhysRegs\": 0"), "tweaks.poolPhysRegs");
    expectRejected(tweaks("\"poolPhysRegs\": 127, \"minPoolSize\": 2"),
                   "tweaks.poolPhysRegs");
    expectRejected(tweaks("\"poolPhysRegs\": 65536"),
                   "tweaks.poolPhysRegs");
    expectRejected(tweaks("\"extraFrontEndStages\": 4000000000"),
                   "tweaks.extraFrontEndStages");
    expectRejected(tweaks("\"extraFrontEndStages\": 1001"),
                   "tweaks.extraFrontEndStages");
    expectRejected(tweaks("\"wakeupExtraDelay\": 4000000000"),
                   "tweaks.wakeupExtraDelay");
}

TEST(ExperimentSpec, AcceptsTweaksAtTheCoresLimits)
{
    for (const char *members :
         {"\"ecTotalBlocks\": 2", "\"ecBlockSlots\": 1",
          "\"poolPhysRegs\": 128, \"minPoolSize\": 2",
          "\"poolPhysRegs\": 65535", "\"extraFrontEndStages\": 1000",
          "\"wakeupExtraDelay\": 1000"}) {
        Json doc;
        std::string error;
        ASSERT_TRUE(Json::parse(
            std::string("{\"schema\": \"flywheel-experiment-v1\", "
                        "\"name\": \"x\", \"grids\": [{\"tweaks\": {") +
                members + "}}]}",
            doc, &error));
        ExperimentSpec spec;
        EXPECT_TRUE(ExperimentSpec::fromJson(doc, &spec, &error))
            << members << ": " << error;
    }
}

TEST(ExperimentSpec, LoadsDocumentsWithTheAllZeroSamplingBlock)
{
    // Spec files and serve journal headers written by earlier builds
    // carry "repeat": 1, "verify": false and this sampling block right
    // after "measureInstrs".
    const ExperimentSpec &fig12 = figureByName("fig12")->spec;
    Json zeros;
    std::string error;
    ASSERT_TRUE(Json::parse(
        "{\"windows\": 0, \"fastForward\": 0, \"warmup\": 0}", zeros,
        &error)) << error;
    const Json canonical = fig12.toJson();
    Json old_form = Json::object();
    for (const auto &[key, value] : canonical.members()) {
        old_form.add(key, value);
        if (key == "measureInstrs") {
            old_form.add("repeat", 1u);
            old_form.add("verify", false);
            old_form.add("sampling", zeros);
        }
    }
    ASSERT_TRUE(old_form.has("repeat"));

    ExperimentSpec back;
    ASSERT_TRUE(ExperimentSpec::fromJson(old_form, &back, &error))
        << error;
    EXPECT_EQ(back.toJson().dump(2), canonical.dump(2));
}

TEST(ExperimentSpec, LoadReportsFileAndParseErrors)
{
    ExperimentSpec spec;
    std::string error;
    EXPECT_FALSE(ExperimentSpec::load("no/such/file.json", &spec,
                                      &error));
    EXPECT_NE(error.find("no/such/file.json"), std::string::npos);

    const char *path = "test_api_bad_spec.json";
    {
        std::ofstream out(path);
        out << "{\"schema\": \"flywheel-experiment-v1\", "
               "\"name\": \"x\", \"bogus\": 1}";
    }
    EXPECT_FALSE(ExperimentSpec::load(path, &spec, &error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
    std::remove(path);
}

/**
 * A one-grid spec document (gzip, defaults elsewhere) whose @p axes
 * each repeat their single entry @p n times: n^|axes| cells.
 */
Json
repeatedAxesDoc(std::size_t n, std::initializer_list<const char *> axes)
{
    ExperimentSpec spec;
    spec.name = "repeated_axes";
    GridSpec grid;
    grid.benchmarks = {"gzip"};
    spec.grids.push_back(grid);
    Json doc = spec.toJson();
    Json block = doc["grids"].at(0);
    for (const char *axis : axes) {
        Json copies = Json::array();
        for (std::size_t i = 0; i < n; ++i)
            copies.push(block[axis].at(0));
        block.set(axis, std::move(copies));
    }
    Json grids = Json::array();
    grids.push(std::move(block));
    doc.set("grids", std::move(grids));
    return doc;
}

TEST(ExperimentSpec, RejectsMoreCellsThanTheCapBeforeExpanding)
{
    // Five axes of 100 equal entries: about 5 KB of JSON asking for
    // 10^10 cells, which expand() would try to reserve at once.
    ExperimentSpec spec;
    std::string error;
    EXPECT_FALSE(ExperimentSpec::fromJson(
        repeatedAxesDoc(100, {"benchmarks", "kinds", "clocks", "nodes",
                              "gating"}),
        &spec, &error));
    EXPECT_NE(error.find("10000000000 cells"), std::string::npos)
        << error;
    EXPECT_NE(error.find("cap of 65536"), std::string::npos) << error;

    // Exactly the cap loads: 16^4 cells.
    const Json atCap =
        repeatedAxesDoc(16, {"kinds", "clocks", "nodes", "gating"});
    ASSERT_TRUE(ExperimentSpec::fromJson(atCap, &spec, &error)) << error;
    EXPECT_EQ(spec.cellCount(), ExperimentSpec::kMaxCells);

    // One more cell, in a second block, does not.
    Json over = atCap;
    Json grids = over["grids"];
    grids.push(repeatedAxesDoc(1, {})["grids"].at(0));
    over.set("grids", std::move(grids));
    EXPECT_FALSE(ExperimentSpec::fromJson(over, &spec, &error));
    EXPECT_NE(error.find("65537 cells"), std::string::npos) << error;
}

TEST(ExperimentSpec, CellCountMatchesTheExpansionAndSaturates)
{
    for (const FigureDef *def : allFigures())
        EXPECT_EQ(def->spec.cellCount(), def->spec.expand().size())
            << def->name;
    // Its second block lists no benchmarks, which counts all ten.
    EXPECT_EQ(kitchenSinkSpec().cellCount(),
              kitchenSinkSpec().expand().size());

    // 10^4 entries on each of five axes is 10^20 cells, past 2^64.
    GridSpec grid;
    grid.benchmarks.assign(10000, "gzip");
    grid.kinds.assign(10000, CoreKind::Baseline);
    grid.clocks.assign(10000, ClockPoint{});
    grid.nodes.assign(10000, TechNode::N130);
    grid.gating.assign(10000, false);
    ExperimentSpec spec;
    spec.grids = {grid, grid};
    EXPECT_EQ(spec.cellCount(), ~std::uint64_t(0));
}

TEST(GridSpec, TweaksAndLabelReachTheConfig)
{
    GridSpec grid;
    grid.label = "tweaked";
    grid.benchmarks = {"gzip"};
    grid.kinds = {CoreKind::Flywheel};
    grid.clocks = {{0.5, 0.5}};
    grid.tweaks.srtEnabled = false;
    grid.tweaks.poolPhysRegs = 384;

    std::vector<SweepPoint> points = grid.expand(100, 200);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].label, "tweaked");
    EXPECT_FALSE(points[0].config.params.srtEnabled);
    EXPECT_EQ(points[0].config.params.poolPhysRegs, 384u);
    EXPECT_EQ(points[0].config.warmupInstrs, 100u);
    EXPECT_EQ(points[0].config.measureInstrs, 200u);

    // An untweaked grid leaves the defaults alone.
    GridSpec plain = grid;
    plain.tweaks = ParamTweaks();
    std::vector<SweepPoint> base = plain.expand(100, 200);
    EXPECT_TRUE(base[0].config.params.srtEnabled);
    EXPECT_NE(configKey(points[0].config), configKey(base[0].config));
}

TEST(GridSpec, ExpandIsCartesianAndOrdered)
{
    GridSpec grid;
    grid.benchmarks = {"gzip", "gcc"};
    grid.kinds = {CoreKind::Baseline, CoreKind::Flywheel};
    grid.clocks = {{0.0, 0.0}, {0.5, 0.5}};
    grid.nodes = {TechNode::N130, TechNode::N60};

    std::vector<SweepPoint> points = grid.expand(0, 3000);
    ASSERT_EQ(points.size(), 16u);
    // Benchmark-major nesting order.
    EXPECT_EQ(points[0].bench, "gzip");
    EXPECT_EQ(points[8].bench, "gcc");
    EXPECT_EQ(points[0].kind, CoreKind::Baseline);
    EXPECT_EQ(points[4].kind, CoreKind::Flywheel);
    EXPECT_EQ(points[0].config.node, TechNode::N130);
    EXPECT_EQ(points[1].config.node, TechNode::N60);
    EXPECT_EQ(points[2].clock.feBoost, 0.5);
    // Run lengths are taken as given: a zero warmup stays zero (only
    // ExperimentSpec::expand reads 0 as "use the default").
    for (const SweepPoint &pt : points) {
        EXPECT_EQ(pt.config.warmupInstrs, 0u);
        EXPECT_EQ(pt.config.measureInstrs, 3000u);
    }
}

/** Small two-bench spec with pinned run lengths. */
ExperimentSpec
smallSpec()
{
    ExperimentSpec spec;
    spec.name = "small";
    spec.warmupInstrs = 2000;
    spec.measureInstrs = 5000;
    GridSpec grid;
    grid.benchmarks = {"gzip", "gcc"};
    grid.kinds = {CoreKind::Baseline, CoreKind::Flywheel};
    grid.clocks = {{0.5, 0.5}};
    spec.grids.push_back(grid);
    return spec;
}

TEST(Session, RunMatchesDirectRunSim)
{
    ExperimentSpec spec = smallSpec();

    SessionOptions opts;
    opts.jobs = 2;
    Session session(opts);
    SweepTable via_session = session.run(spec);

    const std::vector<SweepPoint> points = spec.expand();
    ASSERT_EQ(via_session.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(toJson(via_session.at(i).result).dump(),
                  toJson(runSim(points[i].config)).dump());
}

TEST(Session, RepeatedPointsComeFromTheCache)
{
    ExperimentSpec spec = smallSpec();
    Session session;
    session.run(spec);
    SweepTable second = session.run(spec);
    for (const SweepRecord &row : second.rows())
        EXPECT_TRUE(row.fromCache);
}

TEST(Session, ObservedCellsSimulateEverySibling)
{
    // Cells differing only in node or gating share a simulation, but a
    // stats document must describe a simulation of its own cell.
    ExperimentSpec spec = smallSpec();
    spec.grids[0].nodes = {TechNode::N130, TechNode::N60};
    spec.grids[0].gating = {false, true};
    SessionOptions opts;
    opts.obs.collectStats = true;
    Session session(opts);
    const SweepTable table = session.run(spec);
    ASSERT_EQ(table.size(), 16u);
    for (const SweepRecord &row : table.rows()) {
        EXPECT_FALSE(row.fromCache);
        EXPECT_NE(row.result.statsDoc, nullptr);
    }
}

TEST(TableIndex, FindsRowsByIdentityNotPosition)
{
    ExperimentSpec spec = smallSpec();
    Session session;
    SweepTable table = session.run(spec);

    TableIndex ix(table);
    EXPECT_EQ(ix.size(), table.size());
    const RunResult *base =
        ix.find("gzip", CoreKind::Baseline, {0.5, 0.5});
    ASSERT_NE(base, nullptr);
    EXPECT_GT(base->instructions, 0u);
    // Absent identities: wrong clock, wrong label.
    EXPECT_EQ(ix.find("gzip", CoreKind::Baseline, {0.0, 0.0}), nullptr);
    EXPECT_EQ(ix.find("gzip", CoreKind::Baseline, {0.5, 0.5},
                      TechNode::N130, false, "nope"),
              nullptr);
}

TEST(TableIndex, IdenticalDuplicateRowsAreNotAmbiguous)
{
    // The same point appearing twice (e.g. a merged multi-figure
    // table) is harmless: both rows carry the same config.
    SweepRecord rec;
    rec.point.bench = "gzip";
    rec.point.kind = CoreKind::Flywheel;
    rec.result.instructions = 1;
    SweepTable table;
    table.add(rec);
    table.add(rec);
    TableIndex ix(table);
    EXPECT_NE(ix.find("gzip", CoreKind::Flywheel, {0.0, 0.0}), nullptr);
}

TEST(TableIndexDeathTest, AmbiguousIdentityLookupIsFatal)
{
    // Two rows sharing the renderer-visible identity but carrying
    // different configs (unlabelled tweak blocks): serving either
    // would present one configuration's numbers as another's.
    SweepRecord a;
    a.point.bench = "gzip";
    a.point.kind = CoreKind::Flywheel;
    SweepRecord b = a;
    b.point.config.params.srtEnabled = false;
    SweepTable table;
    table.add(a);
    table.add(b);
    TableIndex ix(table);
    EXPECT_EXIT(ix.find("gzip", CoreKind::Flywheel, {0.0, 0.0}),
                ::testing::ExitedWithCode(1), "ambiguous");
    // Other identities stay usable.
    EXPECT_EQ(ix.find("gcc", CoreKind::Flywheel, {0.0, 0.0}), nullptr);
}

TEST(FigureRegistry, AllPaperFiguresAreRegistered)
{
    const std::set<std::string> expected{
        "abl_ec_block", "abl_pool_size", "abl_power_gating", "abl_srt",
        "abl_sync", "fig01", "fig02", "fig11", "fig12", "fig13",
        "fig14", "fig15", "table1"};

    std::set<std::string> got;
    std::string previous;
    for (const FigureDef *def : allFigures()) {
        EXPECT_LT(previous, def->name) << "unsorted registry";
        previous = def->name;
        got.insert(def->name);
        EXPECT_FALSE(def->title.empty()) << def->name;
        EXPECT_TRUE(def->render != nullptr) << def->name;
        // Renderable spec: the spec's render field names the figure.
        EXPECT_EQ(def->spec.render, def->name);
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(figureByName("fig12")->name, "fig12");
    EXPECT_EQ(figureByName("nope"), nullptr);
}

TEST(FigureRegistry, SharedGridAcrossFig121314)
{
    // fig12/13/14 must expand to the identical grid so one session
    // simulates it once.
    std::vector<SweepPoint> p12 = figureByName("fig12")->spec.expand();
    for (const char *other : {"fig13", "fig14"}) {
        std::vector<SweepPoint> po =
            figureByName(other)->spec.expand();
        ASSERT_EQ(po.size(), p12.size());
        for (std::size_t i = 0; i < p12.size(); ++i)
            EXPECT_EQ(configKey(p12[i].config), configKey(po[i].config));
    }
}

TEST(FigureRegistry, ShippedSpecsMatchRegisteredSpecs)
{
    // Byte-identical canonical documents: what guarantees that
    // `flywheel_bench --spec specs/figNN.json` reproduces the figure
    // exactly as `--figure figNN` does.
    for (const FigureDef *def : allFigures()) {
        const std::string path =
            std::string(FLYWHEEL_SPEC_DIR) + "/" + def->name + ".json";
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << "missing shipped spec " << path;
        std::ostringstream text;
        text << in.rdbuf();

        ExperimentSpec spec;
        std::string error;
        ASSERT_TRUE(ExperimentSpec::load(path, &spec, &error)) << error;
        EXPECT_EQ(spec.toJson().dump(2),
                  def->spec.toJson().dump(2))
            << path << " diverges from the registered spec";
        // The shipped file itself is the canonical serialization.
        EXPECT_EQ(text.str(), def->spec.toJson().dump(2) + "\n")
            << path << " is not in canonical form (regenerate with "
                       "flywheel_bench --dump-spec " << def->name << ")";
    }
}

} // namespace
} // namespace flywheel
