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
 * binary codec (snapshot/bincodec.hh).  Dense state (rename maps,
 * the stream's cursor tables) goes out as memcpys of the
 * arena-backed buffers; caches, the BTB and Execution Cache traces
 * go out as recency ranks and varint deltas, in-flight timestamps as
 * deltas from the core's clock, and instruction records and trace
 * slots without the static fields the program supplies on restore:
 * the state their continuation reads.  The content hash is computed
 * over the raw section bytes, before compression.
 *
 * The on-disk container (the checkpoint-store `.fws` format) is magic
 * + version + content hash + key + a length-prefixed section table
 * with per-section LZSS compression.  The decoder rejects truncated,
 * corrupted or version-mismatched input with a clear error instead of
 * restoring garbage (the same hardening discipline as the sweep
 * ResultStore's result files), and bounds every length field before
 * allocating.
 * `flywheel_bench --dump-checkpoint FILE` prints a decoded file's
 * header and section table as JSON for debugging.
 *
 * Restoring a snapshot into a freshly constructed core over an
 * identically configured program/stream and then simulating must be
 * bit-identical to never having snapshotted at all.
 * tests/test_snapshot.cc, the save/restore fuzz mode and
 * tests/e2e/checkpoint_store.sh (fig12 through a cold store, a warm
 * store and none) referee that contract.
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
    /**
     * On-disk format version (bump when any component layout
     * changes).  A file of another version is refused, and the
     * version is part of every checkpoint key, so an older store is
     * recomputed, never read.
     */
    static constexpr int kFormatVersion = 4;
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
        sections_.push_back({std::move(name), std::move(bytes), 0, false});
    }

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
    /**
     * Payload bytes section @p i took in the document it was
     * deserialized from, and whether they were LZSS-compressed (0 and
     * false for a snapshot that was never deserialized).
     */
    std::uint64_t sectionStored(std::size_t i) const
    {
        return sections_[i].stored;
    }
    bool sectionCompressed(std::size_t i) const
    {
        return sections_[i].compressed;
    }

    /**
     * FNV-1a-style 64-bit hash over section names, lengths and raw
     * bytes (before compression).  Its offset basis differs from
     * fnv1a64's; see snapshot.cc.
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
        std::uint64_t stored = 0;
        bool compressed = false;
    };

    std::string key_;
    std::vector<Section> sections_;
};

} // namespace flywheel

#endif // FLYWHEEL_SNAPSHOT_SNAPSHOT_HH
