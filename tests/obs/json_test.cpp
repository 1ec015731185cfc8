#include "obs/json.hpp"

#include "support/json_parser.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace powerlens::obs {
namespace {

using test_support::JsonParser;
using test_support::JsonValue;

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonNumber, IntegersPrintWithoutFraction) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
}

TEST(JsonNumber, FractionsKeepPrecision) {
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_NE(json_number(3.14159).find("3.14159"), std::string::npos);
}

// append_json_number formats with std::to_chars; printf's "%.0f" (integral
// values below 2^53) and "%.12g" (everything else) in the C locale are the
// reference it must match byte for byte.
std::string printf_reference(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.12g", v);
  }
  return buf;
}

TEST(JsonNumber, MatchesPrintfFormats) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-5, 1e-4, 123456789012.5,
      999999999999.5, 9999999999995.0, 1e12, 1e15, 1e16, 1e17, 1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0)};
  // The 2^53 boundary where the integral branch ends, from both sides.
  for (const double edge : {9.007199254740992e15, -9.007199254740992e15}) {
    double below = edge;
    double above = edge;
    for (int i = 0; i < 8; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, edge * 2.0);
      values.push_back(below);
      values.push_back(above);
    }
    values.push_back(edge);
  }
  std::mt19937_64 rng(20240601);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-320, 300);
  std::uniform_int_distribution<std::int64_t> integer(
      -(std::int64_t{1} << 53), std::int64_t{1} << 53);
  for (int i = 0; i < 100000; ++i) {
    // Random bit patterns cover every exponent, subnormals included.
    const std::uint64_t bits = rng();
    double raw;
    std::memcpy(&raw, &bits, sizeof(raw));
    if (std::isfinite(raw)) values.push_back(raw);
    values.push_back(unit(rng) * std::pow(10.0, exponent(rng)));
    values.push_back(static_cast<double>(integer(rng)));
    // Values near .5 at 12 significant digits exercise the rounding.
    values.push_back(std::round(unit(rng) * 1e12) + 0.5);
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string expected = printf_reference(v);
    const std::string got = json_number(v);
    if (got != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "value " << std::hexfloat << v << ": got " << got
                    << ", printf gives " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

// Integral values below 2^53 print through the integer formatter; the
// double formatter's to_chars(fixed, 0) output, and general 12 from 2^53
// on, are what it must reproduce, -0.0 included.
std::string to_chars_reference(double v) {
  char buf[64];
  const bool integral =
      v == std::floor(v) && std::fabs(v) < 9.007199254740992e15;
  const std::to_chars_result r =
      integral ? std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, 12);
  return std::string(buf, r.ptr);
}

TEST(JsonNumber, IntegerFastPathMatchesFixedFormat) {
  constexpr double kTwo53 = 9007199254740992.0;
  std::vector<double> values = {0.0,           -0.0,          1.0,
                                -1.0,          kTwo53 - 1.0,  -(kTwo53 - 1.0),
                                kTwo53,        -kTwo53};
  std::mt19937_64 rng(20261020);
  std::uniform_int_distribution<std::int64_t> integer(
      -(std::int64_t{1} << 53) + 1, (std::int64_t{1} << 53) - 1);
  std::uniform_int_distribution<int> digits(0, 15);
  for (int i = 0; i < 10000; ++i) {
    // Spread over every digit count, not just the large magnitudes a
    // uniform draw favours.
    const std::int64_t scale = static_cast<std::int64_t>(
        std::pow(10.0, static_cast<double>(digits(rng))));
    values.push_back(static_cast<double>(integer(rng) % scale));
  }
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(kTwo53 - 1.0), "9007199254740991");
  EXPECT_EQ(json_number(kTwo53), to_chars_reference(kTwo53));
  EXPECT_NE(json_number(kTwo53), "9007199254740992");  // general path
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string expected = to_chars_reference(v);
    const std::string got = json_number(v);
    if (got != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "value " << v << ": got " << got << ", to_chars gives "
                    << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(JsonNumber, HexSignatureIsFixedWidth) {
  EXPECT_EQ(hex_signature(0), "0x0000000000000000");
  EXPECT_EQ(hex_signature(0xdeadbeefULL), "0x00000000deadbeef");
  EXPECT_EQ(hex_signature(std::numeric_limits<std::uint64_t>::max()),
            "0xffffffffffffffff");
}

TEST(JsonNumber, NonFiniteClampsToZero) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::nan("")), "0");
}

TEST(JsonWriter, BuildsObjectRecords) {
  const std::string s = JsonWriter()
                            .field("phase", "generate")
                            .field("threads", 4.0)
                            .field("ok", true)
                            .str();
  EXPECT_EQ(s, "{\"phase\": \"generate\", \"threads\": 4, \"ok\": true}");
}

TEST(JsonWriter, EmptyObject) {
  EXPECT_EQ(JsonWriter().str(), "{}");
}

TEST(JsonWriter, EscapesStringValues) {
  const std::string s = JsonWriter().field("k", "a\"b").str();
  EXPECT_EQ(s, "{\"k\": \"a\\\"b\"}");
}

// --- adversarial inputs: every emitted record must survive a strict parse
// and decode back to the original payload.

TEST(JsonEscapeAdversarial, AllControlBytesRoundTrip) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw += static_cast<char>(c);
  const std::string quoted = "\"" + json_escape(raw) + "\"";
  // No bare control byte may survive escaping.
  for (char c : json_escape(raw)) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  const JsonValue v = JsonParser(quoted).parse();
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.string(), raw);
}

TEST(JsonEscapeAdversarial, BackslashQuoteGauntletRoundTrips) {
  const std::string raw = "\\\\\"\\\"\"\\n literal \\u0041 \"\" \\";
  const JsonValue v = JsonParser("\"" + json_escape(raw) + "\"").parse();
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.string(), raw);
}

TEST(JsonEscapeAdversarial, Utf8PayloadPassesThroughUnmangled) {
  // Multibyte UTF-8 (é, 中, 🚀) is valid inside JSON strings and must not
  // be escaped byte-by-byte.
  const std::string raw = "caf\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x9a\x80";
  EXPECT_EQ(json_escape(raw), raw);
  const JsonValue v = JsonParser("\"" + raw + "\"").parse();
  EXPECT_EQ(v.string(), raw);
}

TEST(JsonEscapeAdversarial, EmbeddedNulIsEscapedNotTruncated) {
  const std::string raw = std::string("a\0b", 3);
  const std::string escaped = json_escape(raw);
  EXPECT_EQ(escaped, "a\\u0000b");
  const JsonValue v = JsonParser("\"" + escaped + "\"").parse();
  EXPECT_EQ(v.string(), raw);
}

TEST(JsonNumberAdversarial, ExtremeMagnitudesStayParseable) {
  for (double d : {std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::lowest(),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min(), -0.0, 1e-300,
                   -1e300}) {
    const std::string text = json_number(d);
    const JsonValue v = JsonParser(text).parse();
    ASSERT_TRUE(v.is_number()) << text;
  }
  EXPECT_EQ(JsonParser(json_number(-std::numeric_limits<double>::infinity()))
                .parse()
                .number(),
            0.0);
}

TEST(JsonWriterAdversarial, HostileKeysAndValuesParseBack) {
  const std::string key = "bad\nkey\"with\\stuff";
  const std::string val = std::string("\x01\x7f\t\0", 4);
  const std::string s = JsonWriter()
                            .field(key, val)
                            .field("inf", std::numeric_limits<double>::infinity())
                            .field("flag", false)
                            .str();
  const JsonValue v = JsonParser(s).parse();
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object().count(key), 1u);
  EXPECT_EQ(v.object().at(key).string(), val);
  EXPECT_EQ(v.object().at("inf").number(), 0.0);
  EXPECT_FALSE(v.object().at("flag").boolean());
}

TEST(JsonWriterAdversarial, DeepNestingViaStringPayloadsSurvives) {
  // A value that itself looks like deeply nested JSON must arrive as an
  // inert string, not change the document structure.
  std::string bomb;
  for (int i = 0; i < 64; ++i) bomb += "{\"a\":[";
  const std::string s = JsonWriter().field("payload", bomb).str();
  const JsonValue v = JsonParser(s).parse();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.object().at("payload").string(), bomb);
}

TEST(JsonParserSupport, RejectsMalformedDocuments) {
  for (const char* bad :
       {"{", "[1,", "\"unterminated", "{\"k\" 1}", "{\"k\":1} extra",
        "\"\\x41\"", "\"\\u00g1\"", "nul", "--1"}) {
    EXPECT_THROW(JsonParser(bad).parse(), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace powerlens::obs
