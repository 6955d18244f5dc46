/**
 * @file
 * Tracer / TraceSink implementation and the Chrome trace-event
 * exporter.  Export rules (see the Trace Event Format document):
 * "X" = complete (duration) event, "i" = instant event, "M" =
 * metadata; "ts"/"dur" are microseconds.  Simulated time is in
 * picoseconds, so ts_us = ticks / 1e6 — written as an exact double
 * division of an integer tick, which the deterministic Json writer
 * renders byte-stably on every platform.
 */

#include "obs/trace.hh"

#include <algorithm>

namespace flywheel::obs {

namespace {

struct CatName
{
    TraceCat cat;
    const char *name;
};

constexpr CatName kCatNames[] = {
    {TraceCat::Fetch, "fetch"},
    {TraceCat::Issue, "issue"},
    {TraceCat::Complete, "complete"},
    {TraceCat::Retire, "retire"},
    {TraceCat::EcMode, "ecmode"},
    {TraceCat::Replay, "replay"},
    {TraceCat::Squash, "squash"},
    {TraceCat::CacheMiss, "cachemiss"},
    {TraceCat::ClockPlan, "clockplan"},
};

constexpr double kTicksPerMicrosecond = 1e6; // ps -> us

} // namespace

const char *
traceCatName(TraceCat cat)
{
    for (const CatName &c : kCatNames)
        if (c.cat == cat)
            return c.name;
    return "unknown";
}

bool
parseTraceCats(const std::string &list, std::uint32_t *mask)
{
    std::vector<std::string> tokens;
    std::string::size_type start = 0;
    while (start <= list.size()) {
        std::string::size_type comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            tokens.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }

    std::uint32_t result = 0;
    for (const std::string &tok : tokens) {
        if (tok == "all") {
            result |= kTraceCatAll;
            continue;
        }
        bool found = false;
        for (const CatName &c : kCatNames) {
            if (tok == c.name) {
                result |= std::uint32_t(c.cat);
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    if (result == 0)
        return false;
    *mask = result;
    return true;
}

std::string
traceCatUsageList()
{
    std::string out;
    for (const CatName &c : kCatNames) {
        if (!out.empty())
            out += ",";
        out += c.name;
    }
    return out;
}

// ---- Tracer --------------------------------------------------------

Tracer::Tracer(std::uint32_t mask, std::size_t capacity)
    : mask_(mask), capacity_(capacity ? capacity : 1)
{
    ring_.reserve(capacity_);
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size());
    if (wrapped_)
        out.insert(out.end(), ring_.begin() + std::ptrdiff_t(head_),
                   ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + std::ptrdiff_t(wrapped_ ? head_
                                                       : ring_.size()));
    return out;
}

// ---- TraceSink -----------------------------------------------------

void
TraceSink::add(const std::string &label, const Tracer &tracer)
{
    Run run;
    run.label = label;
    run.events = tracer.snapshot();
    run.dropped = tracer.dropped();
    std::lock_guard<std::mutex> lock(mutex_);
    runs_.push_back(std::move(run));
}

std::size_t
TraceSink::runCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return runs_.size();
}

std::size_t
TraceSink::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const Run &run : runs_)
        n += run.events.size();
    return n;
}

std::uint64_t
TraceSink::droppedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const Run &run : runs_)
        n += run.dropped;
    return n;
}

Json
TraceSink::toChromeJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Deterministic output for any worker completion order: runs are
    // serialized sorted by label, tid = 1-based sorted position.  Runs
    // that share a label keep add() order; the sweep engine labels a
    // run by its config, so such runs hold identical events.
    std::vector<const Run *> ordered;
    ordered.reserve(runs_.size());
    for (const Run &run : runs_)
        ordered.push_back(&run);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Run *a, const Run *b) {
                         return a->label < b->label;
                     });

    Json events = Json::array();
    int tid = 0;
    for (const Run *run : ordered) {
        ++tid;
        Json meta = Json::object();
        meta.add("name", Json("thread_name"));
        meta.add("ph", Json("M"));
        meta.add("pid", Json(1));
        meta.add("tid", Json(tid));
        Json margs = Json::object();
        margs.add("name", Json(run->label));
        meta.add("args", std::move(margs));
        events.push(std::move(meta));

        for (const TraceEvent &e : run->events) {
            Json ev = Json::object();
            ev.add("name", Json(e.name ? e.name : "event"));
            ev.add("cat", Json(traceCatName(e.cat)));
            ev.add("ph", Json(e.dur ? "X" : "i"));
            ev.add("ts", Json(double(e.ts) / kTicksPerMicrosecond));
            if (e.dur)
                ev.add("dur",
                       Json(double(e.dur) / kTicksPerMicrosecond));
            else
                ev.add("s", Json("t")); // instant scope: thread
            ev.add("pid", Json(1));
            ev.add("tid", Json(tid));
            Json args = Json::object();
            args.add("a0", Json(e.a0));
            args.add("a1", Json(e.a1));
            ev.add("args", std::move(args));
            events.push(std::move(ev));
        }
    }

    Json doc = Json::object();
    doc.add("schema", Json(std::string(kTraceSchema)));
    doc.add("displayTimeUnit", Json("ns"));
    doc.add("traceEvents", std::move(events));
    return doc;
}

void
TraceSink::writeChrome(std::ostream &os) const
{
    toChromeJson().write(os, 2);
    os << "\n";
}

// ---- validator -----------------------------------------------------

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

bool
validateTraceJson(const Json &doc, std::string *error)
{
    if (!doc.isObject())
        return fail(error, "trace document is not an object");
    if (!doc["schema"].isString() ||
        doc["schema"].asString() != kTraceSchema)
        return fail(error, std::string("missing/unknown schema (want ") +
                               kTraceSchema + ")");
    if (!doc["traceEvents"].isArray())
        return fail(error, "missing 'traceEvents' array");
    std::size_t index = 0;
    for (const Json &ev : doc["traceEvents"].items()) {
        const std::string where =
            "traceEvents[" + std::to_string(index++) + "]";
        if (!ev.isObject())
            return fail(error, where + ": not an object");
        if (!ev["name"].isString())
            return fail(error, where + ": missing string 'name'");
        if (!ev["ph"].isString())
            return fail(error, where + ": missing string 'ph'");
        const std::string ph = ev["ph"].asString();
        if (ph == "M")
            continue; // metadata carries no timestamp
        if (ph != "X" && ph != "i")
            return fail(error, where + ": unexpected phase '" + ph +
                                   "'");
        if (!ev["ts"].isNumber())
            return fail(error, where + ": missing numeric 'ts'");
        if (ph == "X" && !ev["dur"].isNumber())
            return fail(error, where + ": 'X' event missing 'dur'");
        if (!ev["pid"].isNumber() || !ev["tid"].isNumber())
            return fail(error, where + ": missing pid/tid");
        if (!ev["cat"].isString())
            return fail(error, where + ": missing string 'cat'");
    }
    return true;
}

} // namespace flywheel::obs
