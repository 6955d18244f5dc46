/**
 * @file
 * Serializable simulator state.  A Snapshot is a versioned,
 * content-hashed value holding the complete dynamic state of one
 * simulation — workload stream, caches, predictors, rename state,
 * reorder buffer, Execution Cache, clocking — produced by
 * CoreBase::save() and consumed by CoreBase::restore().
 *
 * The payload is an ordered list of named byte sections, one per
 * stateful layer, each written by that layer's save() through the
 * fixed-width binary codec (snapshot/bincodec.hh).  The arena-backed
 * containers make those sections little more than memcpys of
 * contiguous buffers.  The content hash is computed over the raw
 * section bytes, before compression.
 *
 * The on-disk container (the checkpoint-store `.fws` format) is magic
 * + version + content hash + key + a length-prefixed section table
 * with per-section LZSS compression.  The decoder rejects truncated,
 * corrupted or version-mismatched input with a clear error instead of
 * restoring garbage (the same hardening discipline as the sweep
 * ResultCache), and bounds every length field before allocating.
 * `flywheel_bench --dump-checkpoint FILE` prints a decoded file's
 * header and section table as JSON for debugging.
 *
 * Restoring a snapshot into a freshly constructed core over an
 * identically configured program/stream and then simulating must be
 * bit-identical to never having snapshotted at all — the differential
 * and golden-figure machinery referee that contract (see
 * tests/test_snapshot.cc and the save/restore fuzz mode).
 */

#ifndef FLYWHEEL_SNAPSHOT_SNAPSHOT_HH
#define FLYWHEEL_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "snapshot/bincodec.hh"

namespace flywheel {

/** Complete serializable simulator state. */
class Snapshot
{
  public:
    /** On-disk format version (bump when any component layout changes). */
    static constexpr int kFormatVersion = 2;
    /** Document magic tag. */
    static constexpr const char *kMagic = "flywheel-snapshot";

    /**
     * Identity key recorded in the header (the Checkpointer's
     * checkpoint key): a loaded snapshot whose key does not match the
     * requested one is rejected rather than restored into the wrong
     * configuration.
     */
    void setKey(std::string key) { key_ = std::move(key); }
    const std::string &key() const { return key_; }

    /** Append one named section of raw codec bytes (order matters). */
    void
    addSection(std::string name, std::string bytes)
    {
        sections_.push_back({std::move(name), std::move(bytes)});
    }

    bool hasSection(const std::string &name) const;

    /** Reader over @p name's bytes; panics if the section is absent. */
    BinReader section(const std::string &name) const;

    std::size_t sectionCount() const { return sections_.size(); }
    const std::string &sectionName(std::size_t i) const
    {
        return sections_[i].name;
    }
    /** Raw (uncompressed) bytes of section @p i. */
    const std::string &sectionData(std::size_t i) const
    {
        return sections_[i].data;
    }

    /** Total raw payload bytes across all sections. */
    std::size_t payloadBytes() const;

    /**
     * FNV-1a 64-bit hash over section names, lengths and raw bytes
     * (before compression).
     */
    std::uint64_t contentHash() const;

    /** Full document: header + compressed section table. */
    std::string serialize() const;

    /**
     * Parse a serialized document.  Rejects — with a clear *error —
     * truncation, a wrong magic tag, a format version other than
     * kFormatVersion, length fields the remaining bytes cannot hold,
     * and a payload whose content hash does not match the header
     * (corruption).
     */
    static bool deserialize(const std::string &bytes, Snapshot *out,
                            std::string *error = nullptr);

    /** Write atomically (write-then-rename). @return false + *error. */
    bool writeFile(const std::string &path,
                   std::string *error = nullptr) const;

    /** Read and deserialize @p path. */
    static bool readFile(const std::string &path, Snapshot *out,
                         std::string *error = nullptr);

  private:
    struct Section
    {
        std::string name;
        std::string data;
    };

    std::string key_;
    std::vector<Section> sections_;
};

} // namespace flywheel

#endif // FLYWHEEL_SNAPSHOT_SNAPSHOT_HH
