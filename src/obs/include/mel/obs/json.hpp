// Minimal JSON support for the observability layer: escaping for every
// string the trace/metrics writers emit, a token-level Lexer, and a small
// recursive-descent parser on top of it (trace headers, metrics JSONL,
// mellint baselines). The streaming trace reader (trace_reader.hpp) uses
// the same Lexer. No external dependency.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mel::obs {

/// Escape a string for embedding inside a JSON string literal (quotes not
/// included): `"`, `\`, and control characters below 0x20 (the latter as
/// \uXXXX except the common \n \t \r \b \f shorthands).
std::string json_escape(std::string_view s);

namespace json {

class ParseError : public std::runtime_error {
 public:
  explicit ParseError(std::string what) : std::runtime_error(std::move(what)) {}
};

/// A parsed JSON value. Numbers keep both a double and, when the source
/// text was integral, an exact int64 (virtual-time stamps exceed the
/// 2^53 double mantissa only after ~104 days of simulated time, but the
/// exactness matters for byte-equality checks).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;
  bool is_integer = false;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup (first match); null when absent or not an object.
  const Value* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Integer accessor: exact when the source was integral, else truncated.
  std::int64_t as_int() const {
    return is_integer ? integer : static_cast<std::int64_t>(number);
  }
};

/// A number token as parse() reads it: the double value, plus the exact
/// int64 when the token was integral and fits.
struct Number {
  double number = 0.0;
  std::int64_t integer = 0;
  bool is_integer = false;

  std::int64_t as_int() const {
    return is_integer ? integer : static_cast<std::int64_t>(number);
  }
};

/// Token-level cursor over one JSON text, shared by parse() and the
/// streaming trace reader so both accept exactly the same documents and
/// decode strings identically. Every method throws ParseError (with the
/// byte offset) on malformed input.
class Lexer {
 public:
  /// Deepest container nesting accepted; one level deeper fails with
  /// "nesting too deep" (json::parse recurses once per level).
  static constexpr std::size_t kMaxDepth = 512;

  explicit Lexer(std::string_view text) : text_(text) {}

  [[noreturn]] void fail(const std::string& why) const;
  // skip_ws/peek/expect run several times per token, so they are inline
  // and keep their throws out of line.
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }
  /// Next byte (not consumed); fails at end of input.
  char peek() {
    if (pos_ >= text_.size()) fail_end();
    return text_[pos_];
  }
  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) fail_expected(c);
    ++pos_;
  }
  bool at_end() const { return pos_ >= text_.size(); }
  std::size_t pos() const { return pos_; }
  std::string_view text() const { return text_; }

  /// Decoded string value. Escape-free strings come back as a view into
  /// the text; otherwise the decoded bytes land in `scratch`.
  std::string_view string(std::string& scratch);
  /// A number in the JSON grammar; anything else ("1.2.3", "+0", "-",
  /// "1e", "01") fails with "malformed number" at the offending byte.
  Number number();
  /// `true`, `false` or `null` (fails with "bad literal" otherwise).
  void literal(std::string_view lit);

  /// `{ "key": value, ... }`: calls `on_member(key)` once per member, in
  /// order; the callback must consume the value. `key` is valid until the
  /// callback returns.
  template <typename OnMember>
  void members(OnMember&& on_member) {
    std::string key_buf;
    open('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return;
    }
    for (;;) {
      skip_ws();
      const std::string_view key = string(key_buf);
      skip_ws();
      expect(':');
      on_member(key);
      skip_ws();
      if (peek() != ',') break;
      ++pos_;
    }
    expect('}');
    --depth_;
  }

  /// `[ value, ... ]`: calls `on_element()` once per element, which must
  /// consume it.
  template <typename OnElement>
  void elements(OnElement&& on_element) {
    open('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return;
    }
    for (;;) {
      on_element();
      skip_ws();
      if (peek() != ',') break;
      ++pos_;
    }
    expect(']');
    --depth_;
  }

  /// Validate one complete value without building it (iterative, so
  /// nesting depth costs no stack; the kMaxDepth limit still applies).
  void skip_value();

 private:
  /// "unexpected end of input".
  [[noreturn]] void fail_end() const;
  /// What expect(c) reports: end of input, or "expected 'c'".
  [[noreturn]] void fail_expected(char c) const;
  /// Consumes the container opener `c`, one level deeper.
  void open(char c);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // containers opened by members()/elements()
};

/// Parse one JSON document (throws ParseError on malformed input or
/// trailing garbage).
Value parse(std::string_view text);

}  // namespace json
}  // namespace mel::obs
