#include "serve/journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/log.hh"

namespace flywheel::serve {

std::size_t
JournalState::uniqueCompleted() const
{
    std::set<std::size_t> completed;
    for (const JournalEntry &e : entries)
        completed.insert(e.cell);
    return completed.size();
}

std::string
journalPath(const std::string &dir, const std::string &jobId)
{
    return dir + "/job-" + jobId + ".json";
}

bool
journalIdFromName(const std::string &name, std::string *id)
{
    const std::string prefix = "job-";
    const std::string suffix = ".json";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.rfind(prefix, 0) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    *id = name.substr(prefix.size(),
                      name.size() - prefix.size() - suffix.size());
    return true;
}

namespace {

Json
headerJson(const std::string &jobId, const ExperimentSpec &spec,
           std::uint64_t cells)
{
    Json h = Json::object();
    h.add("v", kJournalSchema);
    h.add("job", jobId);
    h.add("cells", cells);
    h.add("spec", spec.toJson());
    return h;
}

/** write(2) all of @p bytes; false on any error but EINTR. */
bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t put =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (put < 0 && errno != EINTR)
            return false;
        if (put > 0)
            off += static_cast<std::size_t>(put);
    }
    return true;
}

/** Parse the header line; false + *error if it is unusable. */
bool
parseHeader(const std::string &line, JournalState *out,
            std::string *error)
{
    Json h;
    std::string parse_error;
    if (!Json::parse(line, h, &parse_error) || !h.isObject()) {
        *error = "unreadable journal header: " + parse_error;
        return false;
    }
    if (!h["v"].isString() || h["v"].asString() != kJournalSchema) {
        *error = std::string("journal version mismatch (want ") +
                 kJournalSchema + ")";
        return false;
    }
    if (!h["job"].isString() || h["job"].asString().empty() ||
        !h["cells"].isNumber()) {
        *error = "journal header missing job/cells";
        return false;
    }
    ExperimentSpec spec;
    if (!ExperimentSpec::fromJson(h["spec"], &spec, error)) {
        *error = "journal spec unusable: " + *error;
        return false;
    }
    out->jobId = h["job"].asString();
    out->cells = h["cells"].asU64();
    out->spec = std::move(spec);
    return true;
}

} // namespace

bool
journalLoad(const std::string &path, JournalState *out,
            std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot read " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string bytes = text.str();

    JournalState state;
    std::size_t pos = 0;
    bool have_header = false;
    while (pos < bytes.size()) {
        std::size_t nl = bytes.find('\n', pos);
        const bool torn = nl == std::string::npos;
        if (torn)
            nl = bytes.size();
        const std::string line = bytes.substr(pos, nl - pos);
        pos = nl + 1;

        if (!have_header) {
            // The header is load-bearing: without it there is no job
            // identity to resume, so damage here fails the load.
            std::string header_error;
            if (torn || !parseHeader(line, &state, &header_error)) {
                if (error)
                    *error = path + ": " +
                             (torn ? "torn header line" : header_error);
                return false;
            }
            have_header = true;
            continue;
        }

        // Body records: a torn tail (no newline) or a garbage line is
        // what a kill -9 mid-append leaves behind.  Count and skip —
        // the cell simply reruns.
        Json rec;
        if (torn || !Json::parse(line, rec, nullptr) ||
            !rec.isObject()) {
            ++state.ignoredLines;
            continue;
        }
        if (rec["complete"].kind() == Json::Kind::Bool &&
            rec["complete"].asBool()) {
            state.complete = true;
            continue;
        }
        if (rec["cancelled"].kind() == Json::Kind::Bool &&
            rec["cancelled"].asBool()) {
            state.cancelled = true;
            continue;
        }
        if (!rec["cell"].isNumber() || !rec["key"].isString() ||
            rec["key"].asString().empty()) {
            ++state.ignoredLines;
            continue;
        }
        JournalEntry entry;
        entry.cell = static_cast<std::size_t>(rec["cell"].asU64());
        entry.key = rec["key"].asString();
        entry.wallSeconds = rec["wall"].asDouble();
        if (entry.cell >= state.cells) {
            ++state.ignoredLines;  // foreign record; never index OOB
            continue;
        }
        state.entries.push_back(std::move(entry));
    }
    if (!have_header) {
        if (error)
            *error = path + ": empty journal";
        return false;
    }
    *out = std::move(state);
    return true;
}

bool
JournalWriter::open(const std::string &dir, const std::string &jobId,
                    const ExperimentSpec &spec, std::uint64_t cells,
                    std::string *error)
{
    const std::string path = journalPath(dir, jobId);
    if (std::ifstream(path)) {
        JournalState existing;
        if (!journalLoad(path, &existing, error))
            return false;
        if (existing.jobId != jobId || existing.cells != cells) {
            if (error)
                *error = path + ": journal belongs to a different job "
                                "(id/cell-count mismatch)";
            return false;
        }
        path_ = path;
        return true;
    }

    path_ = path;
    if (appendLine(headerJson(jobId, spec, cells).dump(0), true))
        return true;
    path_.clear();
    if (error)
        *error = "cannot write journal header to " + path;
    return false;
}

bool
JournalWriter::append(std::size_t cell, const std::string &key,
                      double wallSeconds)
{
    Json rec = Json::object();
    rec.add("cell", std::uint64_t(cell));
    rec.add("key", key);
    rec.add("wall", wallSeconds);
    return appendLine(rec.dump(0));
}

bool
JournalWriter::markComplete()
{
    return appendMarker("complete");
}

bool
JournalWriter::markCancelled()
{
    return appendMarker("cancelled");
}

bool
JournalWriter::appendMarker(const char *name)
{
    Json rec = Json::object();
    rec.add(name, true);
    return appendLine(rec.dump(0));
}

bool
JournalWriter::appendLine(const std::string &line, bool create)
{
    if (path_.empty())
        return false;
    // One write() call per record: O_APPEND makes concurrent appends
    // land whole, and a crash mid-call leaves at most one torn tail
    // line, which replay skips.
    const int fd =
        ::open(path_.c_str(),
               O_WRONLY | O_APPEND | O_CLOEXEC | (create ? O_CREAT : 0),
               0666);
    const bool ok =
        fd >= 0 && writeAll(fd, line + '\n') && ::fdatasync(fd) == 0;
    if (!ok)
        FW_WARN("journal %s: append failed: %s", path_.c_str(),
                std::strerror(errno));
    if (fd >= 0)
        ::close(fd);
    return ok;
}

} // namespace flywheel::serve
