/**
 * @file
 * The one strict decimal parser.  Worker counts (FLYWHEEL_JOBS and
 * --jobs), run lengths (FLYWHEEL_SIM_INSTRS / FLYWHEEL_WARMUP_INSTRS),
 * serve TCP ports and every integer CLI flag go through it, so each
 * rejects the same garbage: strtoull alone would accept "100k" (a
 * prefix), " 7" (leading space), "0x10" (a prefix "0"), wrap "-1" to
 * 2^64-1 and clamp an overflowing value to 2^64-1.
 */

#ifndef FLYWHEEL_COMMON_DECIMAL_HH
#define FLYWHEEL_COMMON_DECIMAL_HH

#include <cstdint>
#include <string_view>

namespace flywheel {

/** Outcome of parseDecimal(). */
enum class DecimalParse
{
    Ok,          ///< a plain decimal in range; the value was stored
    Malformed,   ///< empty, or anything but the digits 0-9
    OutOfRange,  ///< a plain decimal outside [lo, hi] or past 2^64-1
};

/**
 * Parse @p text as an unsigned decimal in [@p lo, @p hi]: digits only
 * (no sign, space, prefix or trailing text) and no overflow.  @p out
 * is written only on DecimalParse::Ok.
 */
inline DecimalParse
parseDecimal(std::string_view text, std::uint64_t lo, std::uint64_t hi,
             std::uint64_t *out)
{
    if (text.empty())
        return DecimalParse::Malformed;
    constexpr std::uint64_t kMax = ~std::uint64_t(0);
    std::uint64_t v = 0;
    bool overflow = false;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return DecimalParse::Malformed;
        const unsigned digit = unsigned(c - '0');
        if (v > (kMax - digit) / 10)
            overflow = true;
        else
            v = v * 10 + digit;
    }
    if (overflow || v < lo || v > hi)
        return DecimalParse::OutOfRange;
    *out = v;
    return DecimalParse::Ok;
}

} // namespace flywheel

#endif // FLYWHEEL_COMMON_DECIMAL_HH
