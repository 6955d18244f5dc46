#include "sweep/result_store.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "core/report.hh"

namespace flywheel {

namespace {

/**
 * The leading "v=" field of every configKey.  It is hashed into each
 * exported table's configHash and into every checkpoint key and file
 * name, so bumping it re-keys every store; a RunResult serialization
 * change bumps kResultSchema instead.
 */
constexpr unsigned kConfigKeyVersion = 2;

/** Append "name=value;" with deterministic double formatting. */
class KeyBuilder
{
  public:
    KeyBuilder &
    add(const char *name, double v)
    {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
        os_ << buf;
        return *this;
    }

    KeyBuilder &
    add(const char *name, std::uint64_t v)
    {
        os_ << name << '=' << v << ';';
        return *this;
    }

    KeyBuilder &
    add(const char *name, unsigned v)
    {
        return add(name, std::uint64_t(v));
    }

    KeyBuilder &
    add(const char *name, bool v)
    {
        os_ << name << '=' << (v ? 1 : 0) << ';';
        return *this;
    }

    KeyBuilder &
    add(const char *name, const char *v)
    {
        os_ << name << '=' << v << ';';
        return *this;
    }

    std::string str() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

} // namespace

std::string
configKey(const RunConfig &c)
{
    KeyBuilder k;
    k.add("v", kConfigKeyVersion);

    // Workload profile: every knob, not just the name, so ad-hoc
    // profiles and future recalibrations never alias.
    const BenchProfile &p = c.profile;
    k.add("bench", p.name)
        .add("seed", p.seed)
        .add("blocks", p.staticBlocks)
        .add("blkSize", p.avgBlockSize)
        .add("regions", p.regions)
        .add("loadFrac", p.loadFrac)
        .add("storeFrac", p.storeFrac)
        .add("fpFrac", p.fpFrac)
        .add("mulFrac", p.mulFrac)
        .add("divFrac", p.divFrac)
        .add("depDist", p.avgDepDist)
        .add("diamond", p.diamondFrac)
        .add("bias", p.branchBias)
        .add("trip", p.loopTripMean)
        .add("callProb", p.callProb)
        .add("regWs", p.regWorkingSet)
        .add("dataKB", p.dataFootprintKB)
        .add("memRand", p.memRandomFrac);

    k.add("kind", unsigned(c.kind))
        .add("node", unsigned(c.node))
        .add("gating", c.frontEndPowerGating)
        .add("warmup", c.warmupInstrs)
        .add("measure", c.measureInstrs);

    // Constants left by the removed interval sampling: dropping them
    // would move every configHash, result file and checkpoint name.
    for (const char *field : {"sampled", "sampleW", "sampleFf", "sampleWu"})
        k.add(field, 0u);

    const CoreParams &cp = c.params;
    k.add("fetchW", cp.fetchWidth)
        .add("dispW", cp.dispatchWidth)
        .add("issueW", cp.issueWidth)
        .add("commitW", cp.commitWidth)
        .add("iw", cp.iwEntries)
        .add("rob", cp.robEntries)
        .add("lsq", cp.lsqEntries)
        .add("physRegs", cp.physRegs)
        .add("feStages", cp.feStages)
        .add("extraFe", cp.extraFrontEndStages)
        .add("regRead", cp.regReadStages)
        .add("wakeup", cp.wakeupExtraDelay)
        .add("intAlu", cp.fus.intAlu)
        .add("intMulDiv", cp.fus.intMulDiv)
        .add("memPorts", cp.fus.memPorts)
        .add("fpAdd", cp.fus.fpAdd)
        .add("fpMulDiv", cp.fus.fpMulDiv)
        .add("latAlu", cp.lat.intAlu)
        .add("latMul", cp.lat.intMul)
        .add("latDiv", cp.lat.intDiv)
        .add("latFpAdd", cp.lat.fpAdd)
        .add("latFpMul", cp.lat.fpMul)
        .add("latFpDiv", cp.lat.fpDiv)
        .add("latBr", cp.lat.branch)
        .add("latAgen", cp.lat.agen)
        .add("l2Cyc", cp.mem.l2Cycles)
        .add("memCyc", cp.mem.memBaselineCycles)
        .add("ghist", cp.bpred.historyBits)
        .add("gtab", cp.bpred.tableEntries)
        .add("btb", cp.btb.entries)
        .add("btbAssoc", cp.btb.assoc)
        .add("basePs", cp.basePeriodPs)
        .add("fePs", cp.fePeriodPs)
        .add("bePs", cp.beFastPeriodPs)
        .add("ec", cp.execCacheEnabled)
        .add("srt", cp.srtEnabled)
        .add("ecBlocks", cp.ecTotalBlocks)
        .add("ecSlots", cp.ecBlockSlots)
        .add("ecTa", cp.ecTaEntries)
        .add("ecRead", cp.ecReadCycles)
        .add("maxTrace", cp.maxTraceBlocks)
        .add("minUnits", cp.minTraceUnits)
        .add("minInstrs", cp.minTraceInstrs)
        .add("rebuild", cp.traceRebuildPolicy)
        .add("pool", cp.poolPhysRegs)
        .add("minPool", cp.minPoolSize)
        .add("redistInt", cp.redistributionInterval)
        .add("redistCost", cp.redistributionCost)
        .add("redistFrac", cp.redistributionStallFrac);

    // L1/L2 cache geometry and timing.
    auto cache = [&k](const char *tag, const CacheParams &cc) {
        std::string t(tag);
        k.add((t + "Size").c_str(), cc.sizeBytes)
            .add((t + "Assoc").c_str(), cc.assoc)
            .add((t + "Line").c_str(), cc.lineBytes)
            .add((t + "Hit").c_str(), cc.hitCycles)
            .add((t + "Ports").c_str(), cc.ports);
    };
    cache("ic", cp.mem.icache);
    cache("dc", cp.mem.dcache);
    cache("l2", cp.mem.l2);

    return k.str();
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hexDigest(std::uint64_t h)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultStore::pathFor(const std::string &key) const
{
    return dir_ + "/result-" + hexDigest(fnv1a64(key)) + ".json";
}

bool
ResultStore::lookup(const std::string &key, RunResult *out)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++hits_;
            *out = it->second;
            return true;
        }
    }
    // Read outside the lock so the cells of a sweep load concurrently.
    // Nothing read is remembered: the file is the one copy, and
    // another process may publish the key at any time.
    const bool found = readFile(key, out);
    std::lock_guard<std::mutex> lock(mutex_);
    ++(found ? hits_ : misses_);
    return found;
}

std::uint64_t
ResultStore::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ResultStore::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

bool
ResultStore::readFile(const std::string &key, RunResult *out) const
{
    if (!persistent())
        return false;
    std::ifstream in(pathFor(key));
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();

    Json doc;
    if (!Json::parse(text.str(), doc, nullptr) || !doc.isObject())
        return false;
    if (!doc["v"].isString() || doc["v"].asString() != kResultSchema)
        return false;
    if (!doc["key"].isString() || doc["key"].asString() != key)
        return false;  // digest collision or foreign file: a miss
    if (!runResultJsonComplete(doc["result"]))
        return false;
    *out = runResultFromJson(doc["result"]);
    return true;
}

bool
ResultStore::save(const std::string &key, const RunResult &result)
{
    std::string error = "cannot create directory";
    if (persistent() && makeDirectories(dir_)) {
        Json doc = Json::object();
        doc.add("v", kResultSchema);
        doc.add("key", key);
        doc.add("result", toJson(result));
        if (atomicWriteFile(pathFor(key), doc.dump(0) + "\n", &error))
            return true;
    }
    // Memory holds what no file does: every result of a store without
    // a directory, and those whose write failed.
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[key] = result;
    if (!persistent())
        return true;
    if (!warned_) {
        warned_ = true;
        FW_WARN("result store %s: %s (results stay in memory; further "
                "write failures are silent)",
                dir_.c_str(), error.c_str());
    }
    return false;
}

} // namespace flywheel
