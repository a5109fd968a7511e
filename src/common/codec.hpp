// codec.hpp — one JSON codec for every config fingerprint and journal record.
//
// A serialised struct declares its fields once, as a visitor template next
// to the type:
//
//   template <class V> void fields(V& v, BreakerSettings& s) {
//     v("failure_threshold", s.failure_threshold);
//     v("open_ms", s.open_ms);
//   }
//
// encode() drives the list with a writer that renders compact JSON in
// declaration order (the canonical bytes a journal fingerprint compares);
// decode() drives it with a strict reader that looks each member up by name
// and collects every missing or mistyped member, so one error names them
// all. Where one struct has two serialised forms (two campaigns fingerprint
// the same config differently), each form is a field-list lambda passed to
// encode/decode explicitly.
//
// Member types: bool; integers, read exactly (a negative, fractional or
// out-of-range value is an error naming the field); std::string; enums, by
// name through ADL `to_string(E)` and `from_string(std::string_view, E&)`;
// std::vector, std::set, std::array (exact length) and std::span (a task's
// row slots: read in place, all of them or none, and narrowed to the items
// read) as arrays;
// std::map<std::string, T> as an object; std::unique_ptr<T> as an optional
// member, omitted when null; any struct with a `fields` list; and the
// Raw, Ordinal and Fixed adapters below.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"

namespace wsx::codec {

/// A member holding JSON text, embedded as-is (a journal's config and task
/// records); reading keeps the member's canonical text (json::to_text).
struct Raw {
  std::string& text;
};

/// An enum written as its index (below `count`) instead of its name.
template <class E>
struct Ordinal {
  E& value;
  std::size_t count;
};

/// A member with one legal value, such as a format version: written as
/// `value`, and any other value read back is an error.
template <class T>
struct Fixed {
  T value;
};

namespace detail {

template <class T, template <class...> class Template>
struct is_a : std::false_type {};
template <template <class...> class Template, class... Args>
struct is_a<Template<Args...>, Template> : std::true_type {};
template <class T> struct is_std_array : std::false_type {};
template <class T, std::size_t N> struct is_std_array<std::array<T, N>> : std::true_type {};
template <class T> struct is_span : std::false_type {};
template <class T, std::size_t N> struct is_span<std::span<T, N>> : std::true_type {};

template <class T>
constexpr bool is_sequence = is_a<T, std::vector>::value || is_a<T, std::set>::value ||
                             is_std_array<T>::value || is_span<T>::value;

/// Appends `"key":` (after a comma unless `first`) to an open object.
void open_member(std::string& out, bool& first, std::string_view key);
void write_string(std::string& out, std::string_view text);

template <class T>
void write_value(std::string& out, const T& value);

/// The visitor encode() hands to a field list.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  template <class T>
  void operator()(std::string_view key, T&& value) {
    if constexpr (is_a<std::remove_cvref_t<T>, std::unique_ptr>::value) {
      if (value != nullptr) (*this)(key, *value);
    } else {
      open_member(out_, first_, key);
      write_value(out_, value);
    }
  }

 private:
  std::string& out_;
  bool first_ = true;
};

template <class T>
void write_value(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    out += std::to_string(value);
  } else if constexpr (std::is_enum_v<T>) {
    write_string(out, to_string(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    write_string(out, value);
  } else if constexpr (std::is_same_v<T, Raw>) {
    out += value.text;
  } else if constexpr (is_a<T, Ordinal>::value) {
    out += std::to_string(static_cast<std::size_t>(value.value));
  } else if constexpr (is_a<T, Fixed>::value) {
    write_value(out, value.value);
  } else if constexpr (is_sequence<T>) {
    out += '[';
    bool first = true;
    for (const auto& item : value) {
      if (!first) out += ',';
      first = false;
      write_value(out, item);
    }
    out += ']';
  } else if constexpr (is_a<T, std::map>::value) {
    out += '{';
    bool first = true;
    for (const auto& [key, item] : value) {
      open_member(out, first, key);
      write_value(out, item);
    }
    out += '}';
  } else {
    out += '{';
    Writer writer(out);
    fields(writer, const_cast<T&>(value));  // the writer only reads
    out += '}';
  }
}

/// Problems found while decoding one document, each naming its member.
using Problems = std::vector<std::string>;

std::string member_path(const std::string& parent, std::string_view key);
/// Reads an exact integer in [-(max+1), max] when signed, else [0, max];
/// false (with a problem naming `where`) when `value` is not one.
bool read_integer(const json::Value& value, bool is_signed, std::uint64_t max,
                  const std::string& where, Problems& problems, std::uint64_t& magnitude,
                  bool& negative);

template <class T>
void read_value(const json::Value& json, T& out, const std::string& where, Problems& problems);

/// The visitor decode() hands to a field list, over one JSON object.
class Reader {
 public:
  Reader(const json::Value& object, std::string path, Problems& problems)
      : object_(object), path_(std::move(path)), problems_(problems) {}

  template <class T>
  void operator()(std::string_view key, T&& value) {
    using U = std::remove_cvref_t<T>;
    const json::Value* member = object_.find(key);
    const std::string where = member_path(path_, key);
    if constexpr (is_a<U, std::unique_ptr>::value) {
      value = member == nullptr ? nullptr : std::make_unique<typename U::element_type>();
      if (value != nullptr) read_value(*member, *value, where, problems_);
    } else if (member == nullptr) {
      problems_.push_back("missing '" + where + "'");
    } else {
      read_value(*member, value, where, problems_);
    }
  }

 private:
  const json::Value& object_;
  std::string path_;
  Problems& problems_;
};

template <class T>
void read_value(const json::Value& json, T& out, const std::string& where, Problems& problems) {
  const auto expected = [&](const std::string& what) {
    problems.push_back("'" + where + "' " + what);
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (!json.is_bool()) return expected("is not a boolean");
    out = json.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    std::uint64_t magnitude = 0;
    bool negative = false;
    if (!read_integer(json, std::is_signed_v<T>, std::numeric_limits<T>::max(), where, problems,
                      magnitude, negative)) {
      return;
    }
    // Two's complement: -magnitude, computed without overflowing T.
    out = negative ? static_cast<T>(-static_cast<std::int64_t>(magnitude - 1) - 1)
                   : static_cast<T>(magnitude);
  } else if constexpr (std::is_enum_v<T>) {
    if (!json.is_string()) return expected("is not a string");
    if (!from_string(json.as_string(), out)) {
      expected("has unknown value \"" + json.as_string() + "\"");
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!json.is_string()) return expected("is not a string");
    out = json.as_string();
  } else if constexpr (std::is_same_v<T, Raw>) {
    out.text = json::to_text(json);
  } else if constexpr (is_a<T, Ordinal>::value) {
    std::size_t index = 0;
    read_value(json, index, where, problems);
    if (index >= out.count) {
      return expected("is not an index below " + std::to_string(out.count));
    }
    out.value = static_cast<std::remove_cvref_t<decltype(out.value)>>(index);
  } else if constexpr (is_a<T, Fixed>::value) {
    auto value = out.value;
    const std::size_t before = problems.size();
    read_value(json, value, where, problems);
    if (problems.size() != before || value == out.value) return;
    std::string want;
    write_value(want, out.value);
    expected("must be " + want);
  } else if constexpr (is_a<T, std::set>::value) {
    std::vector<typename T::value_type> items;
    read_value(json, items, where, problems);
    out = T(items.begin(), items.end());
  } else if constexpr (is_sequence<T>) {
    if (!json.is_array()) return expected("is not an array");
    const std::vector<json::Value>& items = json.items();
    if constexpr (is_a<T, std::vector>::value) {
      out.resize(items.size());
    } else if (items.size() != out.size() && (is_std_array<T>::value || !items.empty())) {
      return expected("has " + std::to_string(items.size()) + " items, expected " +
                      (is_span<T>::value ? "0 or " : "") + std::to_string(out.size()));
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      read_value(items[i], out[i], where + "[" + std::to_string(i) + "]", problems);
    }
    if constexpr (is_span<T>::value) out = out.first(items.size());
  } else if constexpr (is_a<T, std::map>::value) {
    if (!json.is_object()) return expected("is not an object");
    out.clear();
    for (const auto& [key, item] : json.members()) {
      read_value(item, out[key], member_path(where, key), problems);
    }
  } else {
    if (!json.is_object()) return expected("is not an object");
    Reader reader(json, where, problems);
    fields(reader, out);
  }
}

/// The decode error: {code, "<what>: <problems joined by '; '>"}.
Error failure(std::string_view code, std::string_view what, const Problems& problems);

}  // namespace detail

/// Renders `value` through the field list `list` (a callable taking the
/// writer and the value).
template <class T, class Fields>
std::string encode(const T& value, Fields list) {
  std::string out = "{";
  detail::Writer writer(out);
  list(writer, const_cast<T&>(value));  // the writer only reads
  out += '}';
  return out;
}

/// Renders `value` through its own `fields` list.
template <class T>
std::string encode(const T& value) {
  std::string out;
  detail::write_value(out, value);
  return out;
}

/// Reads `text` into `out` through the field list `list`. Members absent
/// from the list are ignored; any missing or mistyped member fails the
/// whole decode with one error {code, "<what>: <every problem>"}.
template <class T, class Fields>
Status decode(std::string_view text, T& out, Fields list, std::string_view code,
              std::string_view what) {
  Result<json::Value> parsed = json::parse(text);
  if (!parsed.ok()) return detail::failure(code, what, {parsed.error().message});
  if (!parsed->is_object()) return detail::failure(code, what, {"not a JSON object"});
  detail::Problems problems;
  detail::Reader reader(*parsed, "", problems);
  list(reader, out);
  if (problems.empty()) return Status::success();
  return detail::failure(code, what, problems);
}

/// Reads `text` into `out` through its own `fields` list.
template <class T>
Status decode(std::string_view text, T& out, std::string_view code, std::string_view what) {
  return decode(
      text, out, [](auto& v, T& target) { fields(v, target); }, code, what);
}

/// decode() into a new value: decode_value<T>(text, [list,] code, what).
template <class T, class... Args>
Result<T> decode_value(std::string_view text, Args&&... args) {
  T out;
  const Status decoded = decode(text, out, std::forward<Args>(args)...);
  if (!decoded.ok()) return decoded.error();
  return out;
}

}  // namespace wsx::codec
