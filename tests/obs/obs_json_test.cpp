#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "mel/obs/json.hpp"
#include "mel/util/rng.hpp"

namespace mel::obs {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json_escape("\b\f"), "\\b\\f");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("true").boolean);
  EXPECT_FALSE(json::parse("false").boolean);
  const auto n = json::parse("-42");
  ASSERT_TRUE(n.is_number());
  EXPECT_TRUE(n.is_integer);
  EXPECT_EQ(n.as_int(), -42);
  const auto d = json::parse("2.5e3");
  ASSERT_TRUE(d.is_number());
  EXPECT_FALSE(d.is_integer);
  EXPECT_DOUBLE_EQ(d.number, 2500.0);
}

TEST(JsonParse, LargeIntegersStayExact) {
  // Beyond the 2^53 double mantissa: exactness must survive.
  const auto v = json::parse("9007199254740995");
  ASSERT_TRUE(v.is_integer);
  EXPECT_EQ(v.integer, 9007199254740995LL);
}

TEST(JsonParse, NestedStructure) {
  const auto v = json::parse(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}, "e": -1.5})");
  ASSERT_TRUE(v.is_object());
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[1].as_int(), 2);
  EXPECT_EQ(a->array[2].find("b")->string, "x");
  EXPECT_TRUE(v.find("c")->find("d")->is_null());
  EXPECT_DOUBLE_EQ(v.find("e")->number, -1.5);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(json::parse(""), json::ParseError);
  EXPECT_THROW(json::parse("{"), json::ParseError);
  EXPECT_THROW(json::parse("[1,]2"), json::ParseError);
  EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
  EXPECT_THROW(json::parse("tru"), json::ParseError);
  EXPECT_THROW(json::parse(std::string("\"a\x01b\"", 5)), json::ParseError);
}

/// The ParseError message for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    json::parse(text);
  } catch (const json::ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonParse, NumbersFollowTheJsonGrammar) {
  for (const char* ok : {"0", "-0", "7", "-42", "1.5", "-0.25", "1e3", "1E+3",
                         "2.5e-3", "9223372036854775808", "1e999"}) {
    EXPECT_EQ(parse_error(ok), "") << ok;
  }
  EXPECT_DOUBLE_EQ(json::parse("9223372036854775808").number,
                   9.223372036854775808e18);
  // Each malformed token fails at the byte that breaks the grammar.
  const std::pair<const char*, int> bad[] = {
      {"1.2.3", 3}, {"+0", 0}, {"-", 1},  {"1e", 2},  {"01", 1},
      {".5", 0},    {"1.", 2}, {"-x", 1}, {"1e+", 3}, {"1-2", 1},
      {"00", 1},    {"-01", 2}};
  for (const auto& [text, at] : bad) {
    EXPECT_EQ(parse_error(text), "JSON parse error at byte " +
                                     std::to_string(at) + ": malformed number")
        << text;
  }
  EXPECT_EQ(parse_error(R"({"ts":1.2.3})"),
            "JSON parse error at byte 9: malformed number");
  EXPECT_EQ(parse_error("[1,x]"),
            "JSON parse error at byte 3: expected a value");
}

/// Lexer::number() on `tok` must equal the reference reading bit for bit:
/// std::from_chars into int64 when the token is integral and fits, else
/// into a double.
void expect_number_matches_from_chars(const std::string& tok) {
  json::Lexer lex(tok);
  const json::Number n = lex.number();
  ASSERT_TRUE(lex.at_end()) << tok;
  const char* first = tok.data();
  const char* last = first + tok.size();
  std::int64_t integer = 0;
  const bool is_integer =
      tok.find_first_of(".eE") == std::string::npos &&
      std::from_chars(first, last, integer).ec == std::errc{};
  double number = static_cast<double>(integer);
  if (!is_integer) {
    integer = 0;
    ASSERT_EQ(std::from_chars(first, last, number).ec, std::errc{}) << tok;
  }
  EXPECT_EQ(n.is_integer, is_integer) << tok;
  EXPECT_EQ(n.integer, integer) << tok;
  EXPECT_EQ(std::memcmp(&n.number, &number, sizeof number), 0)
      << tok << ": " << n.number << " vs " << number;
}

TEST(JsonLexer, NumbersEqualFromCharsBitForBit) {
  // Signs and zeros, the 15/16-digit edge of the exact fast path, and the
  // int64 limits.
  for (const char* tok :
       {"0", "-0", "0.0", "-0.0", "-0.000", "0.000000000000000000000",
        "1", "-1", "0.1", "0.2", "0.3", "-0.5", "123456789012345",
        "-123456789012345", "999999999999999", "1000000000000000",
        "9999999999999999", "12345678901234.5", "1234567890123.45",
        "1.23456789012345", "1.234567890123456", "0.00000000000001",
        "0.000000000000001", "999999999999.999", "9007199254740993",
        "9007199254740993.5", "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "-9223372036854775809",
        "18446744073709551616", "4.35", "0.07", "1e3", "-2.5E-3", "1e22",
        "1.5e+300", "5e-324"}) {
    expect_number_matches_from_chars(tok);
  }
  // Seeded random tokens: 1-17 integer digits (sometimes 18-20), 0-22
  // fraction digits, either sign, digit runs biased toward 0/5/9 so that
  // rounding ties and carries show up.
  std::uint64_t state = 0x5eedf00du;
  const auto below = [&state](std::uint64_t n) {
    return util::splitmix64(state) % n;
  };
  const auto digit = [&below] {
    static const char kDigits[] = "01234567890599";
    return kDigits[below(sizeof kDigits - 1)];
  };
  for (int i = 0; i < 200000; ++i) {
    std::string tok = below(2) == 0 ? "-" : "";
    const std::uint64_t int_digits = below(8) == 0 ? 18 + below(3)
                                                   : 1 + below(17);
    if (below(6) == 0) {
      tok += '0';
    } else {
      tok += static_cast<char>('1' + below(9));
      for (std::uint64_t k = 1; k < int_digits; ++k) tok += digit();
    }
    const std::uint64_t frac_digits = below(3) == 0 ? 0 : below(23);
    if (frac_digits > 0) {
      tok += '.';
      for (std::uint64_t k = 0; k < frac_digits; ++k) tok += digit();
    }
    expect_number_matches_from_chars(tok);
    if (HasFailure()) break;
  }
}

TEST(JsonParse, NestingIsBoundedWithoutRecursionBlowup) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(parse_error(nested(json::Lexer::kMaxDepth)), "");
  EXPECT_EQ(parse_error(nested(json::Lexer::kMaxDepth + 1)),
            "JSON parse error at byte 512: nesting too deep");
  EXPECT_EQ(parse_error(std::string(200000, '[')),
            "JSON parse error at byte 512: nesting too deep");
  // Objects count as levels too, and skip_value applies the same limit at
  // the same byte.
  std::string objects;
  for (std::size_t i = 0; i <= json::Lexer::kMaxDepth; ++i) {
    objects += "{\"k\":";
  }
  EXPECT_EQ(parse_error(objects),
            "JSON parse error at byte 2560: nesting too deep");
  json::Lexer lex(objects);
  try {
    lex.skip_value();
    ADD_FAILURE() << "skip_value accepted a too-deep document";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "JSON parse error at byte 2560: nesting too deep");
  }
}

TEST(JsonParse, DecodesEscapes) {
  const auto v = json::parse(R"("a\"b\\c\ndAeé")");
  EXPECT_EQ(v.string, "a\"b\\c\ndAe\xc3\xa9");
}

// The golden round trip: every hostile string the writers might emit goes
// escape -> embed -> parse and must come back byte-identical.
TEST(JsonEscape, GoldenRoundTripThroughParser) {
  const std::string nasty[] = {
      "plain",
      "quote\" backslash\\ slash/",
      "newline\n tab\t cr\r",
      std::string("nul\x00mid", 7),
      std::string("\x01\x02\x1f", 3),
      "utf8 \xc3\xa9\xe2\x82\xac intact",
      "{\"fake\":\"json\"}",
      "trailing backslash\\",
  };
  for (const auto& s : nasty) {
    const std::string doc = "{\"k\":\"" + json_escape(s) + "\"}";
    const auto v = json::parse(doc);
    ASSERT_NE(v.find("k"), nullptr) << doc;
    EXPECT_EQ(v.find("k")->string, s) << doc;
  }
}

}  // namespace
}  // namespace mel::obs
