#include "snapshot/checkpointer.hh"

#include <sys/stat.h>

#include <cstdio>

#include "common/atomic_file.hh"
#include "common/log.hh"
#include "core/sim_driver.hh"
#include "sweep/result_store.hh"

namespace flywheel {

std::string
checkpointKey(const RunConfig &config)
{
    // Everything that cannot influence warmed-up simulator state is
    // canonicalized away so equivalent cells share one checkpoint:
    //  - the fields simulatedConfig() resets reach only the reduction;
    //  - the measurement length happens after the warmup;
    //  - the baseline core never reads the FE/BE clock plan or any
    //    Flywheel-only mechanism parameter (it clocks everything at
    //    basePeriodPs; see BaselineCore/CoreBase).
    RunConfig canon = simulatedConfig(config);
    canon.measureInstrs = 0;
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

} // namespace

Checkpointer::Checkpointer(std::string dir) : dir_(std::move(dir))
{
    if (dir_ == kMemoryOnly)
        dir_.clear();
}

std::string
Checkpointer::pathFor(const std::string &key) const
{
    if (dir_.empty())
        return "";
    return dir_ + "/ckpt-" + hexDigest(fnv1a64(key)) + ".fws";
}

std::shared_ptr<const Snapshot>
Checkpointer::acquire(const std::string &key, const Factory &make,
                      bool *created)
{
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = entries_[key];
        if (!slot)
            slot = std::make_shared<Entry>();
        ++slot->inFlight;
        entry = slot;
    }

    std::lock_guard<std::mutex> key_lock(entry->mutex);
    std::shared_ptr<const Snapshot> snap = fetch(key, *entry, make, created);
    // The last acquire of the key under way drops its entry unless
    // memory holds the key's only copy.
    std::lock_guard<std::mutex> lock(mutex_);
    if (--entry->inFlight == 0 && !entry->snap)
        entries_.erase(key);
    return snap;
}

std::shared_ptr<const Snapshot>
Checkpointer::fetch(const std::string &key, Entry &entry,
                    const Factory &make, bool *created)
{
    if (created)
        *created = false;

    if (entry.snap) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++memoryHits_;
        return entry.snap;
    }

    if (!dir_.empty()) {
        const std::string path = pathFor(key);
        Snapshot snap;
        std::string error;
        if (Snapshot::readFile(path, &snap, &error)) {
            if (snap.key() == key) {
                auto loaded =
                    std::make_shared<const Snapshot>(std::move(snap));
                std::lock_guard<std::mutex> lock(mutex_);
                ++diskHits_;
                diskBytesRead_ += fileBytes(path);
                return loaded;
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
    if (created)
        *created = true;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++computes_;
    }

    // Once written, the file is the copy every later acquire reads.
    if (dir_.empty() || !persist(snap, key))
        entry.snap = snap;
    return snap;
}

bool
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
            // visible in summaryLine().
            persistFailureWarned_ = true;
            FW_WARN("cannot persist checkpoint: %s (checkpoints stay "
                    "in memory; further persist failures counted "
                    "silently)",
                    error.c_str());
        }
        return false;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    diskBytesWritten_ += fileBytes(path);
    return true;
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

std::string
Checkpointer::summaryLine() const
{
    char line[224];
    std::snprintf(line, sizeof(line),
                  "checkpoints: %llu memory hits, %llu disk hits, "
                  "%llu computed, %llu B written, "
                  "%llu B read, %llu persist failures",
                  (unsigned long long)memoryHits(),
                  (unsigned long long)diskHits(),
                  (unsigned long long)computes(),
                  (unsigned long long)diskBytesWritten(),
                  (unsigned long long)diskBytesRead(),
                  (unsigned long long)persistFailures());
    return line;
}

} // namespace flywheel
