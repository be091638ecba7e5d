// Minimal recursive-descent JSON parser, just enough for the telemetry
// round-trip tests and the bench-report schema checker to validate what the
// tree itself emits. Not a general-purpose library: no \uXXXX decoding
// (escapes are kept verbatim in the string value), numbers parse via
// strtod, objects preserve insertion order.
#pragma once

#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace convolve::json {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;   // kArray elements, or kObject values
  std::vector<std::string> keys;  // kObject keys, parallel to arr

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == key) return &arr[i];
    }
    return nullptr;
  }
};

class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so hostile input must not pick the recursion depth; the tree
/// itself emits fewer than ten levels.
inline constexpr std::size_t kMaxDepth = 256;

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays/objects currently open

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("JSON parse error at offset " +
                         std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return parse_string();
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'r': v.str += '\r'; break;
          case 'b': v.str += '\b'; break;
          case 'f': v.str += '\f'; break;
          case 'u':
            // Kept verbatim; the telemetry emitters only escape control
            // characters, which never round-trip through comparisons here.
            v.str += "\\u";
            break;
          default: fail("bad escape");
        }
      } else {
        v.str += c;
      }
    }
    return v;
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) fail("bad number");
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(parse_value());
      skip_ws();
      char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.keys.push_back(std::move(key.str));
      v.arr.push_back(parse_value());
      skip_ws();
      char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return v;
  }
};

}  // namespace detail

/// Parse a complete JSON document; throws JsonParseError on malformed input.
inline JsonValue parse(std::string_view text) {
  return detail::Parser(text).parse_document();
}

}  // namespace convolve::json
