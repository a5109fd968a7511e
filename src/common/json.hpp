// json.hpp — a minimal JSON emitter plus a small value parser.
//
// Originally write-only (JSON-lines test records, report payloads); the
// analysis subsystem added the reader so SARIF output can be structurally
// verified and baseline files can be consumed without new dependencies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace wsx::json {

/// Escapes a string for inclusion inside JSON double quotes.
std::string escape(std::string_view text);

/// Builds one JSON object incrementally: field(...) calls, then str().
class ObjectWriter {
 public:
  ObjectWriter();

  ObjectWriter& field(std::string_view key, std::string_view value);
  ObjectWriter& field(std::string_view key, const char* value);
  ObjectWriter& field(std::string_view key, bool value);
  ObjectWriter& field(std::string_view key, std::size_t value);
  ObjectWriter& field(std::string_view key, long long value);
  ObjectWriter& field(std::string_view key, double value);
  /// Inserts a pre-rendered JSON value (object/array) verbatim.
  ObjectWriter& raw_field(std::string_view key, std::string_view json_value);

  /// Finalizes and returns the object text ("{...}").
  std::string str() const;

 private:
  void begin_field(std::string_view key);
  std::string out_;
  bool first_ = true;
};

/// Builds one JSON array incrementally: item(...) calls, then str().
class ArrayWriter {
 public:
  ArrayWriter();

  ArrayWriter& item(std::string_view value);          ///< string item
  ArrayWriter& raw_item(std::string_view json_value); ///< pre-rendered value

  /// Finalizes and returns the array text ("[...]").
  std::string str() const;
  bool empty() const { return first_; }

 private:
  std::string out_;
  bool first_ = true;
};

/// A parsed JSON value. Every number is kept as a double; a number written
/// as an integer (no fraction or exponent) whose magnitude fits in 64 bits
/// also keeps its exact value, so seeds and counts above 2^53 survive.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// True for a number token with an exact 64-bit integer value.
  bool is_integer() const { return kind_ == Kind::kNumber && integral_; }

  /// Preconditions: matching kind (asserted).
  bool as_bool() const;
  double as_number() const;
  /// The exact integer: its magnitude and sign (meaningful when
  /// is_integer()).
  std::uint64_t magnitude() const { return magnitude_; }
  bool is_negative() const { return negative_; }
  const std::string& as_string() const;
  const std::vector<Value>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// items().size() for arrays, members().size() for objects, else 0.
  std::size_t size() const;

  static Value make_null();
  static Value make_bool(bool value);
  static Value make_number(double value);
  static Value make_integer(std::uint64_t magnitude, bool negative = false);
  static Value make_string(std::string value);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool integral_ = false;
  bool negative_ = false;
  double number_ = 0.0;
  std::uint64_t magnitude_ = 0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parses one JSON document. Error codes use the "json." prefix and name
/// the offset of the problem.
Result<Value> parse(std::string_view text);

/// Serializes a parsed Value back to compact JSON text. Field order is
/// preserved, and integers print their exact value, so a document built
/// from ObjectWriter/ArrayWriter integer, bool and string fields
/// round-trips byte-identically through parse() + to_text() — the property
/// the resilience journal's config fingerprint relies on.
std::string to_text(const Value& value);

}  // namespace wsx::json
