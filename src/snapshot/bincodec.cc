#include "snapshot/bincodec.hh"

namespace flywheel {

namespace {

// Format: groups of one control byte followed by eight items, LSB
// first.  Control bit 0 = one literal byte; bit 1 = a match token of
// u16 little-endian back-distance (1..65535) and one byte of
// (length - kMinMatch).  Matches shorter than kMinMatch never win
// over literals (3 bytes + a bit vs 4 bytes + 4 bits), so kMinMatch
// is the break-even length.
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + 255;
constexpr std::size_t kWindow = 65535;
constexpr unsigned kHashBits = 15;

inline std::uint32_t
read32(const char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline std::uint32_t
hash4(std::uint32_t v)
{
    return (v * 2654435761u) >> (32 - kHashBits);
}

} // namespace

std::string
lzssCompress(const char *data, std::size_t size)
{
    std::string out;
    out.reserve(size / 2 + 16);
    // Single-probe table of the most recent position of each 4-byte
    // sequence hash: one candidate per lookup, greedy extension.
    std::vector<std::uint32_t> table(std::size_t(1) << kHashBits,
                                     0xFFFFFFFFu);

    std::size_t i = 0;
    while (i < size) {
        const std::size_t ctrl_at = out.size();
        out.push_back('\0');
        std::uint8_t ctrl = 0;
        for (unsigned bit = 0; bit < 8 && i < size; ++bit) {
            std::size_t len = 0;
            std::size_t dist = 0;
            if (i + kMinMatch <= size) {
                const std::uint32_t h = hash4(read32(data + i));
                const std::uint32_t cand = table[h];
                table[h] = static_cast<std::uint32_t>(i);
                if (cand != 0xFFFFFFFFu && i - cand <= kWindow &&
                    read32(data + cand) == read32(data + i)) {
                    const std::size_t limit =
                        size - i < kMaxMatch ? size - i : kMaxMatch;
                    len = kMinMatch;
                    while (len < limit &&
                           data[cand + len] == data[i + len])
                        ++len;
                    dist = i - cand;
                }
            }
            if (len >= kMinMatch) {
                ctrl |= std::uint8_t(1u << bit);
                out.push_back(static_cast<char>(dist & 0xFF));
                out.push_back(static_cast<char>((dist >> 8) & 0xFF));
                out.push_back(static_cast<char>(len - kMinMatch));
                // Index the skipped positions too, so repeated
                // records keep matching after the first hit.
                const std::size_t stop =
                    i + len + kMinMatch <= size ? i + len : 0;
                for (std::size_t j = i + 1; stop && j < stop; ++j)
                    table[hash4(read32(data + j))] =
                        static_cast<std::uint32_t>(j);
                i += len;
            } else {
                out.push_back(data[i]);
                ++i;
            }
        }
        out[ctrl_at] = static_cast<char>(ctrl);
    }
    return out;
}

bool
lzssDecompress(const char *data, std::size_t size,
               std::size_t raw_size, std::string *out)
{
    out->clear();
    // No input byte expands to more than kMaxMatch output bytes (a
    // 3-byte match token yields at most kMaxMatch), so a larger
    // claimed size is corrupt; reject it before reserving from it.
    if (raw_size / kMaxMatch > size)
        return false;
    out->reserve(raw_size);
    std::size_t i = 0;
    while (i < size && out->size() < raw_size) {
        const std::uint8_t ctrl = static_cast<std::uint8_t>(data[i++]);
        for (unsigned bit = 0;
             bit < 8 && i < size && out->size() < raw_size; ++bit) {
            if (ctrl & (1u << bit)) {
                if (i + 3 > size)
                    return false;
                const std::size_t dist =
                    static_cast<std::uint8_t>(data[i]) |
                    (std::size_t(static_cast<std::uint8_t>(
                         data[i + 1]))
                     << 8);
                const std::size_t len =
                    kMinMatch +
                    static_cast<std::uint8_t>(data[i + 2]);
                i += 3;
                if (dist == 0 || dist > out->size() ||
                    out->size() + len > raw_size)
                    return false;
                // Overlapping copy must run byte-by-byte (a match
                // may reference bytes it is itself producing).
                std::size_t src = out->size() - dist;
                for (std::size_t k = 0; k < len; ++k)
                    out->push_back((*out)[src + k]);
            } else {
                out->push_back(data[i++]);
            }
        }
    }
    return out->size() == raw_size;
}

} // namespace flywheel
