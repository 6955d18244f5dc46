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

JournalWriter::~JournalWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
JournalWriter::open(const std::string &dir, const std::string &jobId,
                    const ExperimentSpec &spec, std::uint64_t cells,
                    std::string *error)
{
    const std::string path = journalPath(dir, jobId);

    bool need_header = true;
    std::ifstream probe(path);
    if (probe) {
        probe.close();
        JournalState existing;
        if (!journalLoad(path, &existing, error))
            return false;
        if (existing.jobId != jobId || existing.cells != cells) {
            if (error)
                *error = path + ": journal belongs to a different job "
                                "(id/cell-count mismatch)";
            return false;
        }
        need_header = false;
    }

    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                          0666);
    if (fd < 0) {
        if (error)
            *error = "cannot open " + path + ": " +
                     std::strerror(errno);
        return false;
    }
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = fd;
    path_ = path;

    if (need_header &&
        !appendLine(headerJson(jobId, spec, cells).dump(0))) {
        if (error)
            *error = "cannot write journal header to " + path;
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    return true;
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
    Json rec = Json::object();
    rec.add("complete", true);
    return appendLine(rec.dump(0));
}

bool
JournalWriter::appendLine(const std::string &line)
{
    if (fd_ < 0)
        return false;
    std::string bytes = line;
    bytes += '\n';
    // One write() call per record: O_APPEND makes concurrent appends
    // land whole, and a crash mid-call leaves at most one torn tail
    // line, which replay skips.
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t put =
            ::write(fd_, bytes.data() + off, bytes.size() - off);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            FW_WARN("journal %s: append failed: %s", path_.c_str(),
                    std::strerror(errno));
            return false;
        }
        off += static_cast<std::size_t>(put);
    }
    if (::fdatasync(fd_) != 0) {
        FW_WARN("journal %s: fdatasync failed: %s", path_.c_str(),
                std::strerror(errno));
        return false;
    }
    return true;
}

} // namespace flywheel::serve
