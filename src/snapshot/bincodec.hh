/**
 * @file
 * Little-endian binary codec for snapshot sections, plus the in-repo
 * LZSS byte compressor the on-disk container uses.
 *
 * BinWriter/BinReader are the component-facing API: every stateful
 * layer's save() appends fixed-width fields, varints and bulk arrays
 * to a BinWriter, restore() reads them back in the same order.  Bulk
 * arrays of padding-free trivially-copyable element types go through
 * podArray() at memcpy speed; padded structs are encoded
 * field-by-field so indeterminate padding bytes never reach the
 * payload (the content hash must be a pure function of simulator
 * state).  Sparse state (tags, trace slots, instruction records) is
 * written as LEB128 varints (uvar) and zigzag-signed deltas (svar),
 * timestamps as deltas from one base tick (tickToBin), and nothing
 * the restoring core can re-derive from its program is written at
 * all (InstRecordCodec, traceBodyToBin), so a section holds what the
 * continuation needs rather than a memory image.
 *
 * Error handling is asymmetric by design: the snapshot container
 * verifies magic/version/content-hash before any component restore
 * runs, so BinReader treats overruns and count mismatches as
 * simulator bugs (FW_PANIC via FW_ASSERT), while the container-level
 * parser (snapshot.cc) reports truncation/corruption gracefully.
 * Either way a reader bounds every element count by the bytes left
 * before it allocates (podVec(), uvarCount()), so a hostile count
 * dies on the overrun check instead of throwing from the allocator.
 */

#ifndef FLYWHEEL_SNAPSHOT_BINCODEC_HH
#define FLYWHEEL_SNAPSHOT_BINCODEC_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace flywheel {

/** Zigzag map of a signed value (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...). */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** zigzag()'s inverse. */
inline std::int64_t
unzigzag(std::uint64_t z)
{
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/** Append-only little-endian binary section writer. */
class BinWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void u16(std::uint16_t v) { fixed(v); }
    void u32(std::uint32_t v) { fixed(v); }
    void u64(std::uint64_t v) { fixed(v); }
    void b(bool v) { u8(v ? 1 : 0); }

    /** Unsigned LEB128: seven bits per byte, low group first. */
    void
    uvar(std::uint64_t v)
    {
        while (v >= 0x80) {
            buf_.push_back(static_cast<char>((v & 0x7F) | 0x80));
            v >>= 7;
        }
        buf_.push_back(static_cast<char>(v));
    }

    /** Signed varint: zigzag (0, -1, 1, -2, ...) then uvar. */
    void svar(std::int64_t v) { uvar(zigzag(v)); }

    /** Length-prefixed byte string. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.append(s);
    }

    /** Unframed byte append (caller carries the length elsewhere). */
    void raw(const std::string &s) { buf_.append(s); }

    /**
     * Bulk array at memcpy speed.  Only for element types with no
     * padding bytes — padded structs must be written field-by-field.
     */
    template <typename T>
    void
    podArray(const T *data, std::size_t n)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "podArray requires trivially copyable T");
        u64(n);
        const std::size_t at = buf_.size();
        buf_.resize(at + n * sizeof(T));
        if (n)
            std::memcpy(&buf_[at], data, n * sizeof(T));
    }

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    template <typename T>
    void
    fixed(T v)
    {
        char raw[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            raw[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
        buf_.append(raw, sizeof(T));
    }

    std::string buf_;
};

/** Sequential reader over one section's bytes. */
class BinReader
{
  public:
    BinReader(const char *data, std::size_t size)
        : p_(data), end_(data + size)
    {
    }

    explicit BinReader(const std::string &bytes)
        : BinReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(*p_++);
    }

    std::uint16_t u16() { return fixed<std::uint16_t>(); }
    std::uint32_t u32() { return fixed<std::uint32_t>(); }
    std::uint64_t u64() { return fixed<std::uint64_t>(); }
    bool b() { return u8() != 0; }

    /** Read a BinWriter::uvar; at most 10 bytes and 64 bits. */
    std::uint64_t
    uvar()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0;; shift += 7) {
            FW_ASSERT(shift < 64,
                      "snapshot section overrun (varint longer than "
                      "10 bytes) — component codec out of sync");
            const std::uint8_t byte = u8();
            const std::uint64_t bits = byte & 0x7F;
            FW_ASSERT(shift < 63 || bits <= 1,
                      "snapshot section overrun (varint overflows 64 "
                      "bits) — component codec out of sync");
            v |= bits << shift;
            if (!(byte & 0x80))
                return v;
        }
    }

    /** Read a BinWriter::svar. */
    std::int64_t svar() { return unzigzag(uvar()); }

    /**
     * Read a uvar element count and bound it by the bytes left: each
     * element takes at least @p min_bytes, so a count the section
     * cannot hold fails the overrun check before anyone allocates
     * from it.
     */
    std::uint64_t
    uvarCount(std::size_t min_bytes)
    {
        return bounded(uvar(), min_bytes);
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s(p_, n);
        p_ += n;
        return s;
    }

    /** Read a podArray()-written block of exactly @p n elements. */
    template <typename T>
    void
    podArray(T *out, std::size_t n)
    {
        const std::uint64_t stored = u64();
        FW_ASSERT(stored == n,
                  "snapshot array count mismatch (stored %llu, "
                  "expected %zu)",
                  (unsigned long long)stored, n);
        need(n * sizeof(T));
        if (n)
            std::memcpy(out, p_, n * sizeof(T));
        p_ += n * sizeof(T);
    }

    /**
     * Read a podArray() block of any count into @p out (a std::vector
     * or an ArenaVector), resized to the stored count.
     */
    template <typename Vec>
    void
    podVec(Vec &out)
    {
        using T = std::remove_reference_t<decltype(*out.data())>;
        const std::size_t n =
            static_cast<std::size_t>(bounded(u64(), sizeof(T)));
        out.resize(n);
        if (n)
            std::memcpy(out.data(), p_, n * sizeof(T));
        p_ += n * sizeof(T);
    }

    std::size_t remaining() const { return end_ - p_; }

  private:
    template <typename T>
    T
    fixed()
    {
        need(sizeof(T));
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<std::uint8_t>(p_[i]))
                 << (8 * i);
        p_ += sizeof(T);
        return v;
    }

    std::uint64_t
    bounded(std::uint64_t n, std::size_t min_bytes)
    {
        FW_ASSERT(n <= remaining() / min_bytes,
                  "snapshot section overrun (count %llu of at least "
                  "%zu bytes each, have %zu) — component codec out of "
                  "sync",
                  (unsigned long long)n, min_bytes, remaining());
        return n;
    }

    void
    need(std::size_t n)
    {
        FW_ASSERT(static_cast<std::size_t>(end_ - p_) >= n,
                  "snapshot section overrun (want %zu, have %zu) — "
                  "component codec out of sync",
                  n, static_cast<std::size_t>(end_ - p_));
    }

    const char *p_;
    const char *end_;
};

/** @p to - @p from in instructions, for svar (both must be aligned). */
inline std::int64_t
instDelta(Addr to, Addr from)
{
    FW_ASSERT((to | from) % kInstBytes == 0,
              "snapshot needs instruction-aligned PCs");
    return static_cast<std::int64_t>(to - from) /
           std::int64_t(kInstBytes);
}

/** The address @p insts instructions after @p from (instDelta's inverse). */
inline Addr
plusInsts(Addr from, std::int64_t insts)
{
    return from + static_cast<Addr>(insts) * kInstBytes;
}

/**
 * A tick as a uvar: 0 for kTickMax, else 1 + the zigzag of its
 * distance from @p base.  A core's timestamps sit within a few
 * hundred cycles of its clock, so most take three bytes, not eight.
 */
inline void
tickToBin(BinWriter &w, Tick base, Tick t)
{
    if (t == kTickMax) {
        w.uvar(0);
        return;
    }
    const std::uint64_t z = zigzag(static_cast<std::int64_t>(t - base));
    FW_ASSERT(z != ~std::uint64_t(0),
              "snapshot tick %llu lies 2^63 from its base %llu",
              (unsigned long long)t, (unsigned long long)base);
    w.uvar(z + 1);
}

/** Read a tickToBin() tick written against @p base. */
inline Tick
tickFromBin(BinReader &r, Tick base)
{
    const std::uint64_t v = r.uvar();
    return v == 0 ? kTickMax
                  : base + static_cast<Tick>(unzigzag(v - 1));
}

/**
 * A set-associative LRU set's replacement state as a recency order.
 * Replacement compares lastUse stamps only among one set's valid
 * ways, so the order is all the continuation needs: one byte per
 * way, 0 if invalid, else 1 + the number of the set's valid ways used
 * less recently (1 = least recent).  @p Way has `valid` and
 * `lastUse`; an invalid way's stamp is never read.
 */
template <typename Way>
void
recencyToBin(BinWriter &w, const Way *set, unsigned ways)
{
    FW_ASSERT(ways < 256, "recency ranks fit one byte (%u ways)", ways);
    for (unsigned i = 0; i < ways; ++i) {
        unsigned rank = 0;
        if (set[i].valid) {
            rank = 1;
            for (unsigned j = 0; j < ways; ++j)
                if (set[j].valid && set[j].lastUse < set[i].lastUse)
                    ++rank;
        }
        w.u8(static_cast<std::uint8_t>(rank));
    }
}

/**
 * Read recencyToBin()'s bytes into @p set's `valid` and `lastUse`
 * (the stamp becomes the rank), checking that the ranks are a
 * permutation of 1..k over the k valid ways.  A clock restored to
 * @p ways then stamps every later use above every restored rank.
 */
template <typename Way>
void
recencyFromBin(BinReader &r, Way *set, unsigned ways)
{
    bool seen[256] = {};
    unsigned valid = 0;
    unsigned top = 0;
    for (unsigned i = 0; i < ways; ++i) {
        const std::uint8_t rank = r.u8();
        set[i].valid = rank != 0;
        set[i].lastUse = rank;
        if (rank == 0)
            continue;
        FW_ASSERT(!seen[rank], "snapshot set repeats recency rank %u",
                  unsigned(rank));
        seen[rank] = true;
        ++valid;
        top = rank > top ? rank : top;
    }
    // Distinct ranks whose largest equals their count: exactly 1..k.
    FW_ASSERT(top == valid,
              "snapshot set ranks are not a recency order (%u valid "
              "ways, top rank %u)",
              valid, top);
}

/**
 * LZSS byte compression for the on-disk snapshot container: 64 KiB
 * window, greedy single-probe hash matching (zlib-level-1 class
 * speed).  Simulator state is dominated by zero runs and repeated
 * fixed-width records, which this handles well; the point is cheap
 * deflation at near-memcpy restore speed, not density.
 */
std::string lzssCompress(const char *data, std::size_t size);

/**
 * Decompress an lzssCompress() stream.  @return false on a malformed
 * stream, including a @p raw_size no stream of @p size bytes can
 * expand to (graceful: the caller reports file corruption).
 */
bool lzssDecompress(const char *data, std::size_t size,
                    std::size_t raw_size, std::string *out);

} // namespace flywheel

#endif // FLYWHEEL_SNAPSHOT_BINCODEC_HH
