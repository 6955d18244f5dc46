#include "snapshot/checkpointer.hh"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/atomic_file.hh"
#include "common/log.hh"
#include "core/sim_driver.hh"
#include "obs/stats_registry.hh"
#include "sweep/result_cache.hh"

namespace flywheel {

std::string
checkpointKey(const RunConfig &config)
{
    // Everything that cannot influence warmed-up simulator state is
    // canonicalized away so equivalent cells share one checkpoint:
    //  - tech node and power gating feed only the energy model;
    //  - the measurement length happens after the warmup;
    //  - the snapshot policy chooses *whether* to checkpoint, never
    //    what the warm state is (sampling alters only the measurement
    //    phase, which follows the warmup);
    //  - the baseline core never reads the FE/BE clock plan or any
    //    Flywheel-only mechanism parameter (it clocks everything at
    //    basePeriodPs; see BaselineCore/CoreBase).
    RunConfig canon = config;
    canon.node = TechNode::N130;
    canon.frontEndPowerGating = false;
    canon.measureInstrs = 0;
    canon.snapshot = SnapshotPolicy{};
    if (canon.kind == CoreKind::Baseline) {
        const CoreParams defaults;
        canon.params.fePeriodPs = canon.params.basePeriodPs;
        canon.params.beFastPeriodPs = canon.params.basePeriodPs;
        canon.params.execCacheEnabled = defaults.execCacheEnabled;
        canon.params.srtEnabled = defaults.srtEnabled;
        canon.params.ecTotalBlocks = defaults.ecTotalBlocks;
        canon.params.ecBlockSlots = defaults.ecBlockSlots;
        canon.params.ecTaEntries = defaults.ecTaEntries;
        canon.params.ecReadCycles = defaults.ecReadCycles;
        canon.params.maxTraceBlocks = defaults.maxTraceBlocks;
        canon.params.minTraceUnits = defaults.minTraceUnits;
        canon.params.minTraceInstrs = defaults.minTraceInstrs;
        canon.params.traceRebuildPolicy = defaults.traceRebuildPolicy;
        canon.params.poolPhysRegs = defaults.poolPhysRegs;
        canon.params.minPoolSize = defaults.minPoolSize;
        canon.params.redistributionInterval =
            defaults.redistributionInterval;
        canon.params.redistributionCost = defaults.redistributionCost;
        canon.params.redistributionStallFrac =
            defaults.redistributionStallFrac;
    }
    return "ckptv=" + std::to_string(Snapshot::kFormatVersion) + ";" +
           configKey(canon);
}

namespace {

/** Size of @p path in bytes, 0 if it cannot be stat'ed. */
std::uint64_t
fileBytes(const std::string &path)
{
    struct ::stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

/** True iff @p name looks like a checkpoint store file. */
bool
isCheckpointFile(const std::string &name)
{
    const std::string suffix = ".fws";
    return name.rfind("ckpt-", 0) == 0 && name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

Checkpointer::Checkpointer(std::string dir)
    : Checkpointer(std::move(dir), Options())
{
}

Checkpointer::Checkpointer(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options)
{
    if (dir_ == kMemoryOnly)
        dir_.clear();
}

std::string
Checkpointer::pathFor(const std::string &key) const
{
    if (dir_.empty())
        return "";
    char name[40];
    std::snprintf(name, sizeof(name), "ckpt-%016llx.fws",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return dir_ + "/" + name;
}

bool
Checkpointer::parseCapMegabytes(const char *text,
                                std::uint64_t *out_bytes)
{
    if (!text || !*text)
        return false;
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long mb = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end != '\0')
        return false;
    if (mb > (~0ULL >> 20))
        return false;  // would overflow the byte conversion
    *out_bytes = static_cast<std::uint64_t>(mb) << 20;
    return true;
}

std::size_t
Checkpointer::pruneStore(const std::string &dir,
                         std::uint64_t cap_bytes,
                         std::uint64_t *bytes_removed)
{
    if (bytes_removed)
        *bytes_removed = 0;
    ::DIR *d = ::opendir(dir.c_str());
    if (!d)
        return 0;
    struct File
    {
        std::string path;
        std::uint64_t bytes;
        std::int64_t mtime;
    };
    std::vector<File> files;
    std::uint64_t total = 0;
    while (const struct ::dirent *ent = ::readdir(d)) {
        if (!isCheckpointFile(ent->d_name))
            continue;
        const std::string path = dir + "/" + ent->d_name;
        struct ::stat st;
        if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
            continue;
        files.push_back({path,
                         static_cast<std::uint64_t>(st.st_size),
                         static_cast<std::int64_t>(st.st_mtime)});
        total += static_cast<std::uint64_t>(st.st_size);
    }
    ::closedir(d);

    // Oldest mtime first: checkpoints re-warm on next use, so the
    // least-recently-written are the cheapest to lose.
    std::sort(files.begin(), files.end(),
              [](const File &a, const File &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });

    std::size_t removed = 0;
    for (const File &f : files) {
        if (total <= cap_bytes)
            break;
        if (std::remove(f.path.c_str()) != 0)
            continue;
        total -= f.bytes;
        ++removed;
        if (bytes_removed)
            *bytes_removed += f.bytes;
    }
    return removed;
}

std::shared_ptr<const Snapshot>
Checkpointer::acquire(const std::string &key, const Factory &make,
                      bool refresh, bool *created)
{
    if (created)
        *created = false;

    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = entries_[key];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }

    std::lock_guard<std::mutex> key_lock(entry->mutex);
    if (entry->snap && !refresh) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++memoryHits_;
        return entry->snap;
    }

    if (!dir_.empty() && !refresh) {
        const std::string path = pathFor(key);
        Snapshot snap;
        std::string error;
        if (Snapshot::readFile(path, &snap, &error)) {
            if (snap.key() == key) {
                entry->snap =
                    std::make_shared<const Snapshot>(std::move(snap));
                std::lock_guard<std::mutex> lock(mutex_);
                ++diskHits_;
                diskBytesRead_ += fileBytes(path);
                return entry->snap;
            }
            // A hash-collision name clash or a store refreshed by an
            // incompatible build: never restore the wrong state.
            FW_WARN("checkpoint %s holds a different key; recomputing",
                    path.c_str());
        } else if (error.find("cannot read") == std::string::npos) {
            // Present but rejected (corrupt/truncated/version).
            FW_WARN("%s; recomputing", error.c_str());
        }
    }

    std::shared_ptr<const Snapshot> snap = make();
    FW_ASSERT(snap != nullptr, "checkpoint factory returned nothing");
    FW_ASSERT(snap->key() == key,
              "checkpoint factory produced a snapshot for another key");
    const bool replaced = entry->snap != nullptr;
    entry->snap = snap;
    if (created)
        *created = true;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++computes_;
        if (replaced)
            ++evictions_;
    }

    if (!dir_.empty())
        persist(snap, key);
    return snap;
}

void
Checkpointer::persist(const std::shared_ptr<const Snapshot> &snap,
                      const std::string &key)
{
    const std::string path = pathFor(key);
    std::string error;
    const bool wrote =
        makeDirectories(dir_)
            ? snap->writeFile(path, &error)
            : (error = "cannot create store directory " + dir_, false);

    if (!wrote) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++persistFailures_;
        if (!persistFailureWarned_) {
            // One warning per session; the failure count stays
            // visible in summaryLine() and the stats registry.
            persistFailureWarned_ = true;
            FW_WARN("cannot persist checkpoint: %s (checkpoints stay "
                    "in memory; further persist failures counted "
                    "silently)",
                    error.c_str());
        }
        return;
    }

    std::uint64_t pruned_bytes = 0;
    std::size_t pruned = 0;
    if (options_.capBytes > 0)
        pruned = pruneStore(dir_, options_.capBytes, &pruned_bytes);

    std::lock_guard<std::mutex> lock(mutex_);
    diskBytesWritten_ += fileBytes(path);
    evictions_ += pruned;
}

std::uint64_t
Checkpointer::memoryHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return memoryHits_;
}

std::uint64_t
Checkpointer::diskHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return diskHits_;
}

std::uint64_t
Checkpointer::computes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return computes_;
}

std::uint64_t
Checkpointer::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

std::uint64_t
Checkpointer::diskBytesWritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return diskBytesWritten_;
}

std::uint64_t
Checkpointer::diskBytesRead() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return diskBytesRead_;
}

std::uint64_t
Checkpointer::persistFailures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return persistFailures_;
}

void
Checkpointer::registerStats(obs::StatsGroup &group) const
{
    // Formulas, not counter pointers: the accessors take the store
    // mutex, so a dump concurrent with sweep workers stays safe.
    group.formula("memoryHits", [this] { return double(memoryHits()); });
    group.formula("diskHits", [this] { return double(diskHits()); });
    group.formula("computes", [this] { return double(computes()); });
    group.formula("evictions", [this] { return double(evictions()); });
    group.formula("diskBytesWritten",
                  [this] { return double(diskBytesWritten()); });
    group.formula("diskBytesRead",
                  [this] { return double(diskBytesRead()); });
    group.formula("persistFailures",
                  [this] { return double(persistFailures()); });
}

std::string
Checkpointer::summaryLine() const
{
    char line[224];
    std::snprintf(line, sizeof(line),
                  "checkpoints: %llu memory hits, %llu disk hits, "
                  "%llu computed, %llu evicted, %llu B written, "
                  "%llu B read, %llu persist failures",
                  (unsigned long long)memoryHits(),
                  (unsigned long long)diskHits(),
                  (unsigned long long)computes(),
                  (unsigned long long)evictions(),
                  (unsigned long long)diskBytesWritten(),
                  (unsigned long long)diskBytesRead(),
                  (unsigned long long)persistFailures());
    return line;
}

} // namespace flywheel
