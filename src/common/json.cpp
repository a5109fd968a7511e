#include "common/json.hpp"

#include <cassert>
#include <charconv>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace wsx::json {

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

ObjectWriter::ObjectWriter() : out_("{") {}

void ObjectWriter::begin_field(std::string_view key) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += '"';
  out_ += escape(key);
  out_ += "\":";
}

ObjectWriter& ObjectWriter::field(std::string_view key, std::string_view value) {
  begin_field(key);
  out_ += '"';
  out_ += escape(value);
  out_ += '"';
  return *this;
}

ObjectWriter& ObjectWriter::field(std::string_view key, const char* value) {
  return field(key, std::string_view(value));
}

ObjectWriter& ObjectWriter::field(std::string_view key, bool value) {
  begin_field(key);
  out_ += value ? "true" : "false";
  return *this;
}

ObjectWriter& ObjectWriter::field(std::string_view key, std::size_t value) {
  begin_field(key);
  out_ += std::to_string(value);
  return *this;
}

ObjectWriter& ObjectWriter::field(std::string_view key, long long value) {
  begin_field(key);
  out_ += std::to_string(value);
  return *this;
}

ObjectWriter& ObjectWriter::field(std::string_view key, double value) {
  begin_field(key);
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  out_ += buffer;
  return *this;
}

ObjectWriter& ObjectWriter::raw_field(std::string_view key, std::string_view json_value) {
  begin_field(key);
  out_ += json_value;
  return *this;
}

std::string ObjectWriter::str() const { return out_ + "}"; }

ArrayWriter::ArrayWriter() : out_("[") {}

ArrayWriter& ArrayWriter::item(std::string_view value) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += '"';
  out_ += escape(value);
  out_ += '"';
  return *this;
}

ArrayWriter& ArrayWriter::raw_item(std::string_view json_value) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += json_value;
  return *this;
}

std::string ArrayWriter::str() const { return out_ + "]"; }

bool Value::as_bool() const {
  assert(is_bool());
  return bool_;
}

double Value::as_number() const {
  assert(is_number());
  return number_;
}

const std::string& Value::as_string() const {
  assert(is_string());
  return string_;
}

const std::vector<Value>& Value::items() const {
  assert(is_array());
  return items_;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  assert(is_object());
  return members_;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::size_t Value::size() const {
  if (is_array()) return items_.size();
  if (is_object()) return members_.size();
  return 0;
}

Value Value::make_null() { return Value{}; }

Value Value::make_bool(bool value) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

Value Value::make_number(double value) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

Value Value::make_integer(std::uint64_t magnitude, bool negative) {
  const auto number = static_cast<double>(magnitude);
  Value v = make_number(negative ? -number : number);
  v.integral_ = true;
  v.negative_ = negative && magnitude != 0;
  v.magnitude_ = magnitude;
  return v;
}

Value Value::make_string(std::string value) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

Value Value::make_object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

namespace {

/// Recursive-descent JSON parser over the grammar of RFC 8259, minus the
/// parts the library never produces (surrogate-pair escapes decode to the
/// replacement character).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<Value> parse() {
    skip_space();
    Result<Value> value = parse_value(0);
    if (!value.ok()) return value;
    skip_space();
    if (pos_ != text_.size()) return fail("json.trailing-content", "content after value");
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 128;

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_space() {
    while (!at_end() && (peek() == ' ' || peek() == '\t' || peek() == '\r' || peek() == '\n')) {
      ++pos_;
    }
  }

  Error fail(std::string code, std::string_view what) const {
    return Error{std::move(code),
                 std::string(what) + " at offset " + std::to_string(pos_)};
  }

  Result<Value> parse_value(std::size_t depth) {
    if (depth > kMaxDepth) return fail("json.too-deep", "maximum nesting depth exceeded");
    if (at_end()) return fail("json.unexpected-eof", "unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"': {
        Result<std::string> text = parse_string();
        if (!text.ok()) return text.error();
        return Value::make_string(std::move(text.value()));
      }
      case 't':
        return parse_literal("true", Value::make_bool(true));
      case 'f':
        return parse_literal("false", Value::make_bool(false));
      case 'n':
        return parse_literal("null", Value::make_null());
      default:
        return parse_number();
    }
  }

  Result<Value> parse_literal(std::string_view literal, Value value) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return fail("json.bad-literal", "unrecognized literal");
    }
    pos_ += literal.size();
    return value;
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) != 0 ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' || peek() == '+' ||
                         peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("json.bad-value", "expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return fail("json.bad-number", "malformed number '" + token + "'");
    }
    // An integer token keeps its exact value when its magnitude fits in 64
    // bits; the double alone would round anything above 2^53.
    const bool negative = token[0] == '-';
    const char* const first = token.data() + (negative ? 1 : 0);
    const char* const last = token.data() + token.size();
    std::uint64_t magnitude = 0;
    const auto [digits_end, error] = std::from_chars(first, last, magnitude);
    return error == std::errc{} && digits_end == last ? Value::make_integer(magnitude, negative)
                                                      : Value::make_number(number);
  }

  Result<std::string> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (at_end()) return fail("json.unterminated-string", "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) return fail("json.bad-escape", "unterminated escape");
      const char escape_char = text_[pos_++];
      switch (escape_char) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("json.bad-escape", "truncated \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("json.bad-escape", "malformed \\u escape");
            }
          }
          // Encode as UTF-8 (no surrogate-pair recombination).
          if (value < 0x80) {
            out += static_cast<char>(value);
          } else if (value < 0x800) {
            out += static_cast<char>(0xC0 | (value >> 6));
            out += static_cast<char>(0x80 | (value & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (value >> 12));
            out += static_cast<char>(0x80 | ((value >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (value & 0x3F));
          }
          break;
        }
        default:
          return fail("json.bad-escape", "unknown escape");
      }
    }
  }

  Result<Value> parse_array(std::size_t depth) {
    ++pos_;  // '['
    std::vector<Value> items;
    skip_space();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      skip_space();
      Result<Value> item = parse_value(depth + 1);
      if (!item.ok()) return item;
      items.push_back(std::move(item.value()));
      skip_space();
      if (at_end()) return fail("json.unterminated-array", "unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return Value::make_array(std::move(items));
      }
      return fail("json.bad-array", "expected ',' or ']'");
    }
  }

  Result<Value> parse_object(std::size_t depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, Value>> members;
    skip_space();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      skip_space();
      if (at_end() || peek() != '"') return fail("json.bad-object", "expected member name");
      Result<std::string> key = parse_string();
      if (!key.ok()) return key.error();
      skip_space();
      if (at_end() || peek() != ':') return fail("json.bad-object", "expected ':'");
      ++pos_;
      skip_space();
      Result<Value> value = parse_value(depth + 1);
      if (!value.ok()) return value;
      members.emplace_back(std::move(key.value()), std::move(value.value()));
      skip_space();
      if (at_end()) return fail("json.unterminated-object", "unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return Value::make_object(std::move(members));
      }
      return fail("json.bad-object", "expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Value> parse(std::string_view text) { return JsonParser{text}.parse(); }

namespace {

void append_value(const Value& value, std::string& out) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber: {
      if (value.is_integer()) {
        if (value.is_negative()) out += '-';
        out += std::to_string(value.magnitude());
        break;
      }
      const double number = value.as_number();
      // Integers below 2^53 are exact in double, so re-emitting them through
      // integer formatting reproduces what ObjectWriter wrote originally.
      if (number == std::floor(number) && std::fabs(number) < 9007199254740992.0) {
        out += std::to_string(static_cast<long long>(number));
      } else {
        char buffer[32];
        std::snprintf(buffer, sizeof buffer, "%.17g", number);
        out += buffer;
      }
      break;
    }
    case Value::Kind::kString:
      out += '"';
      out += escape(value.as_string());
      out += '"';
      break;
    case Value::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Value& item : value.items()) {
        if (!first) out += ',';
        first = false;
        append_value(item, out);
      }
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += escape(key);
        out += "\":";
        append_value(member, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string to_text(const Value& value) {
  std::string out;
  append_value(value, out);
  return out;
}

}  // namespace wsx::json
