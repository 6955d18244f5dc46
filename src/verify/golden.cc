#include "verify/golden.hh"

#include <fstream>
#include <sstream>

#include "api/paper_grids.hh"
#include "api/session.hh"
#include "api/table_index.hh"
#include "common/log.hh"
#include "sweep/sweep.hh"
#include "timing/clock_plan.hh"
#include "workload/profiles.hh"

namespace flywheel {

namespace {

/** Labels for the shared feBoostAxis() points, in axis order. */
const char *kFeLabels[] = {"FE0", "FE25", "FE50", "FE75", "FE100"};
constexpr std::size_t kFeCount = 5;

/**
 * The fig12/13/14 grid (shared with the figure registrations via
 * api/paper_grids.hh) with the pinned golden run lengths.
 */
ExperimentSpec
figureSpec(const GoldenOptions &opts)
{
    ExperimentSpec spec =
        baselinePlusFeSpec("golden-figures", "golden regression grid");
    spec.render.clear(); // snapshotted as JSON, never rendered
    spec.warmupInstrs = opts.warmupInstrs;
    spec.measureInstrs = opts.measureInstrs;
    return spec;
}

Json
docHeader(const char *figure, const char *metric,
          const GoldenOptions &opts)
{
    Json doc = Json::object();
    doc.set("figure", figure);
    doc.set("metric", metric);
    doc.set("warmupInstrs", opts.warmupInstrs);
    doc.set("measureInstrs", opts.measureInstrs);
    return doc;
}

/**
 * One figure document from the shared table: per benchmark, the
 * derived metric at each FE boost plus the raw inputs it came from.
 */
Json
figureDoc(const char *figure, const char *metric,
          const TableIndex &ix, const GoldenOptions &opts,
          double (*derive)(const RunResult &base, const RunResult &fly))
{
    Json doc = docHeader(figure, metric, opts);
    Json rows = Json::object();
    for (const auto &name : benchmarkNames()) {
        const RunResult &r0 =
            ix.get(name, CoreKind::Baseline, {0.0, 0.0});
        Json bench = Json::object();
        Json derived = Json::object();
        Json raw = Json::object();
        raw.set("baselineTimePs", r0.timePs);
        raw.set("baselineEnergyPj", r0.energy.totalPj());
        raw.set("baselineWatts", r0.averageWatts);
        for (std::size_t i = 0; i < kFeCount; ++i) {
            const RunResult &rf = ix.get(name, CoreKind::Flywheel,
                                         {feBoostAxis()[i], 0.5});
            derived.set(kFeLabels[i], derive(r0, rf));
            Json point = Json::object();
            point.set("timePs", rf.timePs);
            point.set("energyPj", rf.energy.totalPj());
            point.set("watts", rf.averageWatts);
            point.set("ecResidency", rf.ecResidency);
            raw.set(kFeLabels[i], std::move(point));
        }
        bench.set("relative", std::move(derived));
        bench.set("raw", std::move(raw));
        rows.set(name, std::move(bench));
    }
    doc.set("rows", std::move(rows));
    return doc;
}

Json
table1Doc(const GoldenOptions &opts)
{
    Json doc = docHeader("table1", "module clock frequencies [MHz] "
                                   "and derived clock plan", opts);
    Json nodes = Json::object();
    for (TechNode n : {TechNode::N180, TechNode::N130, TechNode::N90,
                       TechNode::N60}) {
        const ModuleFrequencies f = moduleFrequencies(n);
        const ClockPlan plan = deriveClockPlan(n);
        Json row = Json::object();
        row.set("issueWindowMHz", f.issueWindowMHz);
        row.set("icacheMHz", f.icacheMHz);
        row.set("dcacheMHz", f.dcacheMHz);
        row.set("regfileMHz", f.regfileMHz);
        row.set("execCacheMHz", f.execCacheMHz);
        row.set("bigRegfileMHz", f.bigRegfileMHz);
        row.set("baselinePeriodPs", plan.baselinePeriodPs);
        row.set("maxFeBoost", plan.maxFeBoost);
        row.set("maxBeBoost", plan.maxBeBoost);
        nodes.set(techName(n), std::move(row));
    }
    doc.set("nodes", std::move(nodes));
    return doc;
}

std::string
goldenPath(const std::string &dir, const std::string &figure)
{
    return dir + "/" + figure + ".json";
}

} // namespace

const std::vector<std::string> &
goldenFigureNames()
{
    static const std::vector<std::string> names{"fig12", "fig13",
                                                "fig14", "table1"};
    return names;
}

std::vector<std::pair<std::string, Json>>
buildGoldenDocs(const GoldenOptions &opts)
{
    SessionOptions session_opts;
    session_opts.jobs = opts.jobs;
    Session session(session_opts);
    SweepTable table = session.run(figureSpec(opts));
    TableIndex ix(table);

    std::vector<std::pair<std::string, Json>> docs;
    docs.emplace_back(
        "fig12",
        figureDoc("fig12", "relative performance, BE+50%", ix, opts,
                  [](const RunResult &b, const RunResult &f) {
                      return double(b.timePs) / double(f.timePs);
                  }));
    docs.emplace_back(
        "fig13",
        figureDoc("fig13", "relative total energy, BE+50%", ix, opts,
                  [](const RunResult &b, const RunResult &f) {
                      return f.energy.totalPj() / b.energy.totalPj();
                  }));
    docs.emplace_back(
        "fig14",
        figureDoc("fig14", "relative average power, BE+50%", ix, opts,
                  [](const RunResult &b, const RunResult &f) {
                      return f.averageWatts / b.averageWatts;
                  }));
    docs.emplace_back("table1", table1Doc(opts));
    return docs;
}

void
jsonDiff(const Json &golden, const Json &current,
         const std::string &path, std::vector<std::string> &out,
         std::size_t max_diffs)
{
    if (out.size() >= max_diffs)
        return;
    if (golden.kind() != current.kind()) {
        out.push_back(path + ": golden " + golden.dump(0) +
                      ", current " + current.dump(0));
        return;
    }
    switch (golden.kind()) {
      case Json::Kind::Object: {
        for (const auto &m : golden.members()) {
            if (!current.has(m.first)) {
                out.push_back(path + "." + m.first +
                              ": missing in current");
                if (out.size() >= max_diffs)
                    return;
                continue;
            }
            jsonDiff(m.second, current[m.first], path + "." + m.first,
                     out, max_diffs);
            if (out.size() >= max_diffs)
                return;
        }
        for (const auto &m : current.members()) {
            if (!golden.has(m.first)) {
                out.push_back(path + "." + m.first +
                              ": unexpected in current");
                if (out.size() >= max_diffs)
                    return;
            }
        }
        break;
      }
      case Json::Kind::Array: {
        if (golden.size() != current.size()) {
            out.push_back(path + ": golden has " +
                          std::to_string(golden.size()) +
                          " elements, current " +
                          std::to_string(current.size()));
            return;
        }
        for (std::size_t i = 0; i < golden.size(); ++i) {
            jsonDiff(golden.at(i), current.at(i),
                     path + "[" + std::to_string(i) + "]", out,
                     max_diffs);
            if (out.size() >= max_diffs)
                return;
        }
        break;
      }
      default:
        // Scalars compare via their deterministic serialization,
        // which makes number comparison exact round-trip equality.
        if (golden.dump(0) != current.dump(0)) {
            out.push_back(path + ": golden " + golden.dump(0) +
                          ", current " + current.dump(0));
        }
        break;
    }
}

std::vector<GoldenDiff>
checkGoldenFiles(const std::string &dir, const GoldenOptions &opts)
{
    std::vector<GoldenDiff> diffs;
    for (auto &[figure, doc] : buildGoldenDocs(opts)) {
        GoldenDiff d;
        d.figure = figure;
        d.path = goldenPath(dir, figure);
        std::ifstream in(d.path);
        if (!in) {
            d.missing = true;
            diffs.push_back(std::move(d));
            continue;
        }
        std::ostringstream text;
        text << in.rdbuf();
        Json golden;
        std::string error;
        if (!Json::parse(text.str(), golden, &error)) {
            d.missing = true;
            d.differences.push_back("unparseable golden file: " +
                                    error);
            diffs.push_back(std::move(d));
            continue;
        }
        jsonDiff(golden, doc, figure, d.differences);
        diffs.push_back(std::move(d));
    }
    return diffs;
}

bool
writeGoldenFiles(const std::string &dir, const GoldenOptions &opts)
{
    bool ok = true;
    for (auto &[figure, doc] : buildGoldenDocs(opts)) {
        const std::string path = goldenPath(dir, figure);
        std::ofstream out(path);
        if (!out) {
            FW_WARN("cannot write golden file %s", path.c_str());
            ok = false;
            continue;
        }
        doc.write(out, 2);
        out << '\n';
        if (!out.good()) {
            FW_WARN("short write to golden file %s", path.c_str());
            ok = false;
        }
    }
    return ok;
}

} // namespace flywheel
