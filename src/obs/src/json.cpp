#include "mel/obs/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace mel::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace json {

void Lexer::fail(const std::string& why) const {
  throw ParseError("JSON parse error at byte " + std::to_string(pos_) + ": " +
                   why);
}

void Lexer::fail_end() const { fail("unexpected end of input"); }

void Lexer::fail_expected(char c) const {
  if (pos_ >= text_.size()) fail_end();
  fail(std::string("expected '") + c + "'");
}

void Lexer::literal(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) != lit) fail("bad literal");
  pos_ += lit.size();
}

std::string_view Lexer::string(std::string& scratch) {
  expect('"');
  // Fast path: a run of plain bytes closed by a quote is its own value.
  const std::size_t begin = pos_;
  std::size_t i = pos_;
  while (i < text_.size() && text_[i] != '"' && text_[i] != '\\' &&
         static_cast<unsigned char>(text_[i]) >= 0x20) {
    ++i;
  }
  if (i < text_.size() && text_[i] == '"') {
    pos_ = i + 1;
    return text_.substr(begin, i - begin);
  }
  scratch.assign(text_.data() + begin, i - begin);
  pos_ = i;
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return scratch;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("raw control character inside string (must be escaped)");
    }
    if (c != '\\') {
      scratch += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': scratch += '"'; break;
      case '\\': scratch += '\\'; break;
      case '/': scratch += '/'; break;
      case 'n': scratch += '\n'; break;
      case 't': scratch += '\t'; break;
      case 'r': scratch += '\r'; break;
      case 'b': scratch += '\b'; break;
      case 'f': scratch += '\f'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else fail("bad hex digit in \\u escape");
        }
        // The writers only emit \u00XX for control bytes; encode the
        // general case as UTF-8 anyway so foreign traces parse.
        if (code < 0x80) {
          scratch += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch += static_cast<char>(0xc0 | (code >> 6));
          scratch += static_cast<char>(0x80 | (code & 0x3f));
        } else {
          scratch += static_cast<char>(0xe0 | (code >> 12));
          scratch += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
          scratch += static_cast<char>(0x80 | (code & 0x3f));
        }
        break;
      }
      default: fail("unknown escape");
    }
  }
}

void Lexer::open(char c) {
  if (depth_ == kMaxDepth) fail("nesting too deep");
  expect(c);
  ++depth_;
}

Number Lexer::number() {
  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and the next byte must
  // not continue the token: "1.2.3", "01", "+0", "-" and "1e" fail at the
  // byte that breaks the grammar.
  const std::size_t start = pos_;
  const auto byte = [this] {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  };
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  // The digits before any exponent, as one integer (wraps past 19 digits;
  // read only on the fast path, which needs at most kFastDigits of them).
  std::uint64_t mantissa = 0;
  std::size_t ndigits = 0;
  const auto digits = [&] {
    if (!is_digit(byte())) fail("malformed number");
    do {
      mantissa = mantissa * 10 + static_cast<unsigned>(byte() - '0');
      ++ndigits;
      ++pos_;
    } while (is_digit(byte()));
  };
  const bool negative = byte() == '-';
  if (negative) ++pos_;
  char c = byte();
  if (c == '0') {
    ++pos_;
    ndigits = 1;
  } else if (pos_ == start && !is_digit(c) && c != '+' && c != '.' &&
             c != 'e' && c != 'E') {
    fail("expected a value");
  } else {
    digits();
  }
  std::size_t fraction = 0;
  if (byte() == '.') {
    ++pos_;
    const std::size_t before = ndigits;
    digits();
    fraction = ndigits - before;
  }
  bool exponent = false;
  c = byte();
  if (c == 'e' || c == 'E') {
    exponent = true;
    ++pos_;
    c = byte();
    if (c == '+' || c == '-') ++pos_;
    digits();  // mantissa is not read past here
  }
  c = byte();
  if (is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
      c == '-') {
    fail("malformed number");
  }
  Number n;
  // Exact fast path: at most 15 digits and no exponent is the integer
  // mantissa / 10^fraction with both operands exact doubles (< 2^53), and
  // IEEE division rounds that quotient correctly, so the result is
  // from_chars's bit for bit.
  constexpr std::size_t kFastDigits = 15;
  if (!exponent && ndigits <= kFastDigits) {
    static constexpr double kPow10[kFastDigits + 1] = {
        1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
        1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};
    if (fraction == 0) {
      const auto m = static_cast<std::int64_t>(mantissa);
      n.integer = negative ? -m : m;
      n.is_integer = true;
      n.number = static_cast<double>(n.integer);
    } else {
      const double v = static_cast<double>(mantissa) / kPow10[fraction];
      n.number = negative ? -v : v;
    }
    return n;
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  if (fraction == 0 && !exponent) {
    if (std::from_chars(first, last, n.integer).ec == std::errc{}) {
      n.is_integer = true;
      n.number = static_cast<double>(n.integer);
      return n;
    }
    n.integer = 0;  // beyond int64: read as a double below
  }
  if (std::from_chars(first, last, n.number).ec != std::errc{}) {
    n.number = std::strtod(std::string(first, last).c_str(), nullptr);  // +-inf
  }
  return n;
}

void Lexer::skip_value() {
  std::string closers;  // open containers, innermost last
  std::string scratch;
  for (;;) {
    skip_ws();
    switch (peek()) {
      case '{':
        if (depth_ + closers.size() == kMaxDepth) fail("nesting too deep");
        ++pos_;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          break;
        }
        closers += '}';
        skip_ws();
        string(scratch);
        skip_ws();
        expect(':');
        continue;  // the member's value
      case '[':
        if (depth_ + closers.size() == kMaxDepth) fail("nesting too deep");
        ++pos_;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          break;
        }
        closers += ']';
        continue;  // the first element
      case '"': string(scratch); break;
      case 't': literal("true"); break;
      case 'f': literal("false"); break;
      case 'n': literal("null"); break;
      default: number();
    }
    // A value ended: close finished containers, or move to the next
    // member/element.
    for (;;) {
      if (closers.empty()) return;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        if (closers.back() == '}') {
          skip_ws();
          string(scratch);
          skip_ws();
          expect(':');
        }
        break;
      }
      expect(closers.back());
      closers.pop_back();
    }
  }
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : lex_(text) {}

  Value run() {
    Value v = value();
    lex_.skip_ws();
    if (!lex_.at_end()) lex_.fail("trailing garbage after JSON document");
    return v;
  }

 private:
  Value value() {
    lex_.skip_ws();
    Value v;
    switch (lex_.peek()) {
      case '{': return object();
      case '[': return array();
      case '"':
        v.kind = Value::Kind::kString;
        v.string = std::string(lex_.string(scratch_));
        return v;
      case 't':
        lex_.literal("true");
        return make_bool(true);
      case 'f':
        lex_.literal("false");
        return make_bool(false);
      case 'n': lex_.literal("null"); return v;
      default: {
        const Number n = lex_.number();
        v.kind = Value::Kind::kNumber;
        v.number = n.number;
        v.integer = n.integer;
        v.is_integer = n.is_integer;
        return v;
      }
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.kind = Value::Kind::kBool;
    v.boolean = b;
    return v;
  }

  Value object() {
    Value v;
    v.kind = Value::Kind::kObject;
    lex_.members([&](std::string_view key) {
      std::string k(key);
      v.object.emplace_back(std::move(k), value());
    });
    return v;
  }

  Value array() {
    Value v;
    v.kind = Value::Kind::kArray;
    lex_.elements([&] { v.array.push_back(value()); });
    return v;
  }

  Lexer lex_;
  std::string scratch_;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace json
}  // namespace mel::obs
