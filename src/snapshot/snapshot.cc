#include "snapshot/snapshot.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/log.hh"

namespace flywheel {

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

std::string
hashHex(std::uint64_t h)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// Incremental FNV-1a so the content hash folds over section pieces
// without concatenating them (same constants as sweep::fnv1a64).
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnvFold(std::uint64_t h, const void *data, std::size_t size)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

// ---- binary container ----------------------------------------------
//
// Layout (all integers little-endian):
//   char   magic[18]   "flywheel-snapshot\0"
//   u32    version
//   u64    contentHash (over the *raw* section bytes)
//   u32    keyLen, key bytes
//   u32    sectionCount
//   per section:
//     u32  nameLen, name bytes
//     u8   flags (bit 0: payload is LZSS-compressed)
//     u64  rawSize
//     u64  storedSize, then storedSize payload bytes
constexpr std::size_t kMagicBytes = 18; // includes the NUL
constexpr std::uint8_t kFlagCompressed = 1;
/** nameLen + flags + rawSize + storedSize of one section entry. */
constexpr std::size_t kMinSectionHeaderBytes = 4 + 1 + 8 + 8;

/**
 * Bounds-checked cursor for parsing untrusted container bytes: every
 * read reports failure instead of panicking, so a truncated or
 * corrupted file surfaces as a clear error (BinReader, by contrast,
 * runs only after the content hash has been verified).
 */
struct SafeCursor
{
    const char *p;
    const char *end;

    std::size_t left() const { return end - p; }

    bool
    bytes(std::size_t n, const char **out)
    {
        if (left() < n)
            return false;
        *out = p;
        p += n;
        return true;
    }

    template <typename T>
    bool
    fixed(T *out)
    {
        if (left() < sizeof(T))
            return false;
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<std::uint8_t>(p[i]))
                 << (8 * i);
        p += sizeof(T);
        *out = v;
        return true;
    }

    bool
    str(std::string *out)
    {
        std::uint32_t n = 0;
        const char *at = nullptr;
        if (!fixed(&n) || !bytes(n, &at))
            return false;
        out->assign(at, n);
        return true;
    }
};

} // namespace

bool
Snapshot::hasSection(const std::string &name) const
{
    for (const Section &s : sections_)
        if (s.name == name)
            return true;
    return false;
}

BinReader
Snapshot::section(const std::string &name) const
{
    for (const Section &s : sections_)
        if (s.name == name)
            return BinReader(s.data);
    FW_PANIC("snapshot has no section '%s'", name.c_str());
}

std::size_t
Snapshot::payloadBytes() const
{
    std::size_t total = 0;
    for (const Section &s : sections_)
        total += s.data.size();
    return total;
}

std::uint64_t
Snapshot::contentHash() const
{
    std::uint64_t h = kFnvBasis;
    for (const Section &s : sections_) {
        h = fnvFold(h, s.name.data(), s.name.size() + 1);
        unsigned char lenLe[8];
        const std::uint64_t len = s.data.size();
        for (int i = 0; i < 8; ++i)
            lenLe[i] =
                static_cast<unsigned char>((len >> (8 * i)) & 0xFF);
        h = fnvFold(h, lenLe, sizeof(lenLe));
        h = fnvFold(h, s.data.data(), s.data.size());
    }
    return h;
}

std::string
Snapshot::serialize() const
{
    BinWriter w;
    for (std::size_t i = 0; i < kMagicBytes; ++i)
        w.u8(static_cast<std::uint8_t>(kMagic[i]));
    w.u32(static_cast<std::uint32_t>(kFormatVersion));
    w.u64(contentHash());
    w.str(key_);
    w.u32(static_cast<std::uint32_t>(sections_.size()));
    for (const Section &s : sections_) {
        w.str(s.name);
        // Compress only when it actually shrinks: tiny sections and
        // incompressible data ship raw (and restore via memcpy).
        std::string packed =
            lzssCompress(s.data.data(), s.data.size());
        const bool compressed = packed.size() < s.data.size();
        w.u8(compressed ? kFlagCompressed : 0);
        w.u64(s.data.size());
        const std::string &stored = compressed ? packed : s.data;
        w.u64(stored.size());
        w.raw(stored);
    }
    return w.take();
}

bool
Snapshot::deserialize(const std::string &bytes, Snapshot *out,
                      std::string *error)
{
    if (bytes.empty())
        return fail(error, "empty snapshot document");
    SafeCursor c{bytes.data(), bytes.data() + bytes.size()};

    const char *magic = nullptr;
    if (!c.bytes(kMagicBytes, &magic) ||
        std::memcmp(magic, kMagic, kMagicBytes) != 0)
        return fail(error, "not a flywheel snapshot (bad magic tag)");

    std::uint32_t version = 0;
    if (!c.fixed(&version))
        return fail(error, "snapshot truncated in header");
    if (version != std::uint32_t(kFormatVersion))
        return fail(error, "snapshot format version " +
                               std::to_string(version) +
                               " unsupported (want " +
                               std::to_string(kFormatVersion) + ")");

    std::uint64_t want_hash = 0;
    Snapshot snap;
    std::uint32_t count = 0;
    if (!c.fixed(&want_hash) || !c.str(&snap.key_) || !c.fixed(&count))
        return fail(error, "snapshot truncated in header");
    // Bound the count by what the remaining bytes can hold before
    // reserving from it: a hostile count must not allocate.
    if (count > c.left() / kMinSectionHeaderBytes)
        return fail(error, "snapshot section count " +
                               std::to_string(count) +
                               " exceeds the file size: corrupt "
                               "snapshot");

    snap.sections_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Section s;
        std::uint8_t flags = 0;
        std::uint64_t raw_size = 0;
        std::uint64_t stored_size = 0;
        const char *payload = nullptr;
        if (!c.str(&s.name) || !c.fixed(&flags) ||
            !c.fixed(&raw_size) || !c.fixed(&stored_size) ||
            !c.bytes(static_cast<std::size_t>(stored_size), &payload))
            return fail(error, "snapshot truncated in section table "
                               "(corrupt or incomplete file)");
        if (flags & kFlagCompressed) {
            if (!lzssDecompress(payload,
                                static_cast<std::size_t>(stored_size),
                                static_cast<std::size_t>(raw_size),
                                &s.data))
                return fail(error,
                            "snapshot section '" + s.name +
                                "' fails to decompress: corrupt "
                                "snapshot");
        } else {
            if (stored_size != raw_size)
                return fail(error, "snapshot section '" + s.name +
                                       "' has inconsistent sizes: "
                                       "corrupt snapshot");
            s.data.assign(payload,
                          static_cast<std::size_t>(stored_size));
        }
        snap.sections_.push_back(std::move(s));
    }
    if (c.left() != 0)
        return fail(error,
                    "trailing bytes after snapshot payload: corrupt "
                    "snapshot");

    const std::uint64_t got_hash = snap.contentHash();
    if (got_hash != want_hash)
        return fail(error, "snapshot content hash mismatch (file " +
                               hashHex(want_hash) + ", payload " +
                               hashHex(got_hash) +
                               "): corrupt snapshot");
    *out = std::move(snap);
    return true;
}

bool
Snapshot::writeFile(const std::string &path, std::string *error) const
{
    // Unique-temp + rename (common/atomic_file.hh): several
    // processes may share one checkpoint store and cold-start the
    // same key concurrently; a fixed ".tmp" would let their writes
    // interleave before the rename and publish a corrupt
    // (hash-rejected) file.
    std::string inner;
    if (!atomicWriteFile(path, serialize(), &inner))
        return fail(error, inner);
    return true;
}

bool
Snapshot::readFile(const std::string &path, Snapshot *out,
                   std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(error, path + ": cannot read");
    std::ostringstream text;
    text << in.rdbuf();
    std::string inner_error;
    if (!deserialize(text.str(), out, &inner_error))
        return fail(error, path + ": " + inner_error);
    return true;
}

} // namespace flywheel
