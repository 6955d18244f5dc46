/**
 * @file
 * Fixed-width little-endian binary codec for snapshot sections, plus
 * the in-repo LZSS byte compressor the on-disk container uses.
 *
 * BinWriter/BinReader are the component-facing API: every stateful
 * layer's save() appends fixed-width fields and bulk arrays to a
 * BinWriter, restore() reads them back in the same order.  Bulk
 * arrays of padding-free trivially-copyable element types go through
 * podArray() at memcpy speed; padded structs are encoded
 * field-by-field so indeterminate padding bytes never reach the
 * payload (the content hash must be a pure function of simulator
 * state).
 *
 * Error handling is asymmetric by design: the snapshot container
 * verifies magic/version/content-hash before any component restore
 * runs, so BinReader treats overruns and count mismatches as
 * simulator bugs (FW_PANIC via FW_ASSERT), while the container-level
 * parser (snapshot.cc) reports truncation/corruption gracefully.
 */

#ifndef FLYWHEEL_SNAPSHOT_BINCODEC_HH
#define FLYWHEEL_SNAPSHOT_BINCODEC_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"

namespace flywheel {

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

    /** Read a podArray() block of any count into @p out. */
    template <typename T>
    void
    podVec(std::vector<T> &out)
    {
        const std::uint64_t n = u64();
        need(n * sizeof(T));
        out.resize(static_cast<std::size_t>(n));
        if (n)
            std::memcpy(out.data(), p_, n * sizeof(T));
        p_ += n * sizeof(T);
    }

    /** Element count of the podArray starting here (non-consuming). */
    std::uint64_t
    peekCount() const
    {
        BinReader copy = *this;
        return copy.u64();
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
