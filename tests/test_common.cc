/**
 * @file
 * Unit tests for common infrastructure: the PCG32 generator, the
 * statistic value types, and the JSON parser/writer edge cases (escape
 * sequences, nesting limits, NaN/Inf rejection, uint64 round-trips).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/decimal.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/stats.hh"

namespace flywheel {
namespace {

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BelowStaysInRange)
{
    Pcg32 rng(123);
    for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, 1u << 30}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Pcg32, BelowOneAlwaysZero)
{
    Pcg32 rng(5);
    for (int i = 0; i < 50; ++i)
        ASSERT_EQ(rng.below(1), 0u);
}

TEST(Pcg32, RangeInclusive)
{
    Pcg32 rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint32_t v = rng.range(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 rng(77);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32, GeometricMeanApproximatelyCorrect)
{
    Pcg32 rng(31);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.geometric(8.0, 1000);
    EXPECT_NEAR(sum / n, 8.0, 0.6);
}

TEST(Pcg32, GeometricRespectsCap)
{
    Pcg32 rng(13);
    for (int i = 0; i < 5000; ++i)
        ASSERT_LE(rng.geometric(50.0, 16), 16u);
}

TEST(Pcg32, ChanceExtremes)
{
    Pcg32 rng(99);
    for (int i = 0; i < 100; ++i) {
        ASSERT_FALSE(rng.chance(0.0));
        ASSERT_TRUE(rng.chance(1.0));
    }
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, DistributionBucketsAndOverflow)
{
    Distribution d(4, 10);  // buckets [0,10) [10,20) [20,30) [30,40)
    d.sample(5);
    d.sample(15);
    d.sample(35);
    d.sample(100);  // overflow
    EXPECT_EQ(d.count(), 4u);
    EXPECT_EQ(d.bins()[0], 1u);
    EXPECT_EQ(d.bins()[1], 1u);
    EXPECT_EQ(d.bins()[3], 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.max(), 100u);
    EXPECT_NEAR(d.mean(), 155.0 / 4, 1e-9);
}

TEST(Decimal, RangeIsInclusiveAndOverflowIsOutOfRange)
{
    constexpr std::uint64_t kMax = ~std::uint64_t(0);
    std::uint64_t v = 7;
    EXPECT_EQ(parseDecimal("18446744073709551615", 0, kMax, &v),
              DecimalParse::Ok);
    EXPECT_EQ(v, kMax);
    EXPECT_EQ(parseDecimal("0003", 3, 3, &v), DecimalParse::Ok);
    EXPECT_EQ(v, 3u);

    v = 7;  // written only on success
    EXPECT_EQ(parseDecimal("18446744073709551616", 0, kMax, &v),
              DecimalParse::OutOfRange);
    EXPECT_EQ(parseDecimal("2", 3, 9, &v), DecimalParse::OutOfRange);
    EXPECT_EQ(parseDecimal("10", 3, 9, &v), DecimalParse::OutOfRange);
    // Text that is not a plain decimal is malformed, even past an
    // overflow; the callers' tests cover the rest of the garbage.
    for (const char *bad : {"", "-1", "99999999999999999999x"})
        EXPECT_EQ(parseDecimal(bad, 0, kMax, &v),
                  DecimalParse::Malformed) << "'" << bad << "'";
    EXPECT_EQ(v, 7u);
}

TEST(JsonEdge, EscapeSequencesRoundTrip)
{
    // Every escape the writer can emit, plus a few only the parser
    // produces (\/ \b \f and \u forms).
    const std::string original =
        std::string("quote\" backslash\\ nl\n cr\r tab\t nul") +
        '\x01' + "\x02 end";
    Json j(original);
    std::string dumped = j.dump(0);
    EXPECT_NE(dumped.find("\\u0001"), std::string::npos);

    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(dumped, back, &error)) << error;
    EXPECT_EQ(back.asString(), original);
}

TEST(JsonEdge, ParserDecodesExplicitEscapes)
{
    Json out;
    std::string error;
    ASSERT_TRUE(Json::parse(
        "\"a\\/b\\b\\f\\u0041\\u00e9\\u20ac\"", out, &error))
        << error;
    // \u0041 = 'A'; \u00e9 and \u20ac UTF-8 encode to 2 and 3 bytes.
    EXPECT_EQ(out.asString(), "a/b\b\fA\xc3\xa9\xe2\x82\xac");

    EXPECT_FALSE(Json::parse("\"bad \\q escape\"", out));
    EXPECT_FALSE(Json::parse("\"truncated \\u12\"", out));
    EXPECT_FALSE(Json::parse("\"bad hex \\u12g4\"", out));
    EXPECT_FALSE(Json::parse("\"unterminated", out));
    EXPECT_FALSE(Json::parse("\"unterminated escape \\", out));
}

TEST(JsonEdge, DeepNestingParsesUpToTheLimit)
{
    const int depth = Json::kMaxParseDepth;
    std::string nested(depth, '[');
    nested.append(depth, ']');
    Json out;
    std::string error;
    EXPECT_TRUE(Json::parse(nested, out, &error)) << error;
}

TEST(JsonEdge, ExcessiveNestingFailsCleanly)
{
    // Far past the limit: must return false, not overflow the stack.
    std::string bomb(100000, '[');
    bomb.append(100000, ']');
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse(bomb, out, &error));
    EXPECT_NE(error.find("nesting"), std::string::npos);

    std::string obj_bomb;
    for (int i = 0; i < 1000; ++i)
        obj_bomb += "{\"k\":";
    EXPECT_FALSE(Json::parse(obj_bomb, out, &error));
}

TEST(JsonEdge, NanAndInfinityAreRejected)
{
    Json out;
    for (const char *text :
         {"nan", "NaN", "inf", "Infinity", "-Infinity", "-inf",
          "1e999", "-1e999", "[1, 1e999]"}) {
        EXPECT_FALSE(Json::parse(text, out)) << text;
    }
}

TEST(JsonEdge, WriterEmitsNullForNonFiniteNumbers)
{
    // The writer cannot emit tokens the parser rejects.
    Json inf(1e308 * 10);
    EXPECT_EQ(inf.dump(0), "null");
    EXPECT_EQ(Json(std::stod("nan")).dump(0), "null");
}

TEST(JsonEdge, LargeUint64ValuesRoundTrip)
{
    // Exactly double-representable values round-trip bit-exactly,
    // including Tick magnitudes far beyond 2^53.
    const std::uint64_t values[] = {
        0u,
        (1ULL << 53) - 1,           // last contiguous integer
        1ULL << 53,
        1ULL << 62,
        (1ULL << 62) + (1ULL << 13),
        9007199254740992ULL,        // 2^53, printed via %.17g
    };
    for (std::uint64_t v : values) {
        Json j(v);
        Json back;
        std::string error;
        ASSERT_TRUE(Json::parse(j.dump(0), back, &error))
            << v << ": " << error;
        EXPECT_EQ(back.asU64(), v) << j.dump(0);
    }

    // UINT64_MAX itself is not a representable double; the nearest
    // double is 2^64 and the saturating asU64 maps it back.
    Json max_j(std::uint64_t(0) - 1);
    Json back;
    ASSERT_TRUE(Json::parse(max_j.dump(0), back, nullptr));
    EXPECT_EQ(back.asU64(), std::uint64_t(0) - 1);
}

TEST(JsonEdge, AsU64SaturatesInsteadOfOverflowing)
{
    EXPECT_EQ(Json(-5.0).asU64(), 0u);
    EXPECT_EQ(Json(-0.5).asU64(), 0u);
    EXPECT_EQ(Json(1e300).asU64(), std::uint64_t(0) - 1);
    EXPECT_EQ(Json(42.9).asU64(), 42u);
    EXPECT_EQ(Json().asU64(), 0u);  // null
}

} // namespace
} // namespace flywheel
