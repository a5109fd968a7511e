#include "gen/value_gen.hpp"

#include <algorithm>
#include <optional>
#include <string_view>

#include "xsd/pattern.hpp"
#include "xsd/values.hpp"

namespace wsx::gen {
namespace {

// No '!' — "!throw" is the catalog's reserved fault trigger and generated
// strings must never spell it by accident.
constexpr std::string_view kTextAlphabet =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-.";
constexpr std::string_view kNameAlphabet = "abcdefghijklmnopqrstuvwxyz";
constexpr std::string_view kBase64Alphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
constexpr std::string_view kHexAlphabet = "0123456789ABCDEF";

std::string random_text(Rng& rng, std::size_t max_length) {
  std::string value;
  const std::size_t length = rng.below(max_length + 1);
  value.reserve(length);
  for (std::size_t i = 0; i < length; ++i) value.push_back(rng.pick(kTextAlphabet));
  return value;
}

std::string random_digits(Rng& rng, std::size_t count) {
  std::string value;
  for (std::size_t i = 0; i < count; ++i) value.push_back(rng.pick("0123456789"));
  return value;
}

std::string two_digits(std::size_t value) {
  std::string text = std::to_string(value);
  return text.size() < 2 ? "0" + text : text;
}

// The multi-draw values below draw their last field first, one draw per
// statement. The seeded corpora and goldens were rendered when these were
// single `a + b + c` expressions, whose unsequenced operands GCC 12
// evaluates right to left; the explicit order keeps those streams on every
// compiler.

std::string random_date(Rng& rng) {
  // Day capped at 28 so every (month, day) pair is a real date.
  const std::size_t day = 1 + rng.below(28);
  const std::size_t month = 1 + rng.below(12);
  const std::size_t year = 1000 + rng.below(3000);
  return std::to_string(year) + "-" + two_digits(month) + "-" + two_digits(day);
}

std::string random_time(Rng& rng) {
  const std::size_t second = rng.below(60);
  const std::size_t minute = rng.below(60);
  const std::size_t hour = rng.below(24);
  std::string value = two_digits(hour) + ":" + two_digits(minute) + ":" + two_digits(second);
  if (rng.chance(30)) value += "." + random_digits(rng, 1 + rng.below(3));
  return value;
}

std::string random_signed(Rng& rng, long long min_value, long long max_value) {
  const unsigned long long span =
      static_cast<unsigned long long>(max_value) - static_cast<unsigned long long>(min_value);
  const unsigned long long offset = span == ~0ull ? rng.next() : rng.next() % (span + 1);
  return std::to_string(static_cast<long long>(static_cast<unsigned long long>(min_value) +
                                               offset));
}

std::string random_float(Rng& rng) {
  std::string value;
  if (rng.chance(30)) value += "-";
  value += random_digits(rng, 1 + rng.below(6));
  if (rng.chance(50)) value += "." + random_digits(rng, 1 + rng.below(6));
  if (rng.chance(30)) {
    const std::string digits = random_digits(rng, 1 + rng.below(2));
    const char* sign = rng.chance(50) ? "-" : "";
    value += rng.chance(50) ? "e" : "E";
    value += sign;
    value += digits;
  }
  return value;
}

std::string random_decimal(Rng& rng) {
  std::string value;
  if (rng.chance(30)) value += "-";
  value += random_digits(rng, 1 + rng.below(8));
  if (rng.chance(50)) value += "." + random_digits(rng, 1 + rng.below(4));
  return value;
}

std::string random_base64(Rng& rng) {
  std::string value;
  const std::size_t quads = rng.below(5);
  for (std::size_t i = 0; i < quads * 4; ++i) value.push_back(rng.pick(kBase64Alphabet));
  return value;
}

// Synthesises a member of a pattern-lite facet: fixed repeat counts
// within each term's bounds, one admitted character per repeat.
std::string value_from_pattern(const xsd::Pattern& pattern, Rng& rng) {
  std::string value;
  for (const xsd::PatternTerm& term : pattern.terms) {
    const int cap = term.max_count == xsd::kPatternUnbounded
                        ? term.min_count + 2
                        : term.max_count;
    const std::size_t reps =
        static_cast<std::size_t>(term.min_count) +
        rng.below(static_cast<std::size_t>(cap - term.min_count) + 1);
    for (std::size_t i = 0; i < reps; ++i) {
      char c = 'a';
      switch (term.atom.kind) {
        case xsd::PatternAtom::Kind::kLiteral:
          c = term.atom.literal;
          break;
        case xsd::PatternAtom::Kind::kAny:
          c = rng.pick(kTextAlphabet);
          break;
        case xsd::PatternAtom::Kind::kClass: {
          // Collect the printable characters the class admits and pick one.
          std::string admitted;
          for (char candidate = ' '; candidate < '\x7F'; ++candidate) {
            if (xsd::atom_admits(term.atom, candidate)) admitted.push_back(candidate);
          }
          c = rng.pick(admitted);
          break;
        }
      }
      value.push_back(c);
    }
  }
  return value;
}

}  // namespace

const std::vector<std::string>& edge_values(xsd::Builtin type) {
  using B = xsd::Builtin;
  // U+D7FF / U+E000 — the characters bracketing the surrogate block.
  static const std::vector<std::string> kText = {
      "", "a", "with space inside", "\xED\x9F\xBF", "\xEE\x80\x80", "&<>\"'"};
  static const std::vector<std::string> kBool = {"true", "false", "1", "0"};
  static const std::vector<std::string> kByte = {"-128", "127", "0"};
  static const std::vector<std::string> kShort = {"-32768", "32767", "0"};
  static const std::vector<std::string> kInt = {"-2147483648", "2147483647", "0"};
  static const std::vector<std::string> kLong = {"-9223372036854775808",
                                                "9223372036854775807", "0"};
  static const std::vector<std::string> kUByte = {"0", "255"};
  static const std::vector<std::string> kUShort = {"0", "65535"};
  static const std::vector<std::string> kUInt = {"0", "4294967295"};
  static const std::vector<std::string> kULong = {"0", "18446744073709551615"};
  static const std::vector<std::string> kFloat = {"NaN", "INF",    "-INF",
                                                  "0",   "-0.0",   "3.402823e38",
                                                  "1E-5", "1.5"};
  static const std::vector<std::string> kDecimal = {"0", "-1.5", "0.0001",
                                                    "12345678901234567890"};
  static const std::vector<std::string> kInteger = {
      "0", "-1", "+42", "123456789012345678901234567890"};
  static const std::vector<std::string> kDate = {"1000-01-01", "3999-12-31",
                                                 "2024-02-29"};
  static const std::vector<std::string> kTime = {"00:00:00", "23:59:59",
                                                 "12:30:45.123"};
  static const std::vector<std::string> kDateTime = {"1000-01-01T00:00:00",
                                                     "3999-12-31T23:59:59Z"};
  static const std::vector<std::string> kDuration = {"P1Y", "PT0S", "-P1D"};
  static const std::vector<std::string> kBase64 = {"", "QQ==", "QUJD"};
  static const std::vector<std::string> kHex = {"", "00", "DEADBEEF"};
  static const std::vector<std::string> kQName = {"a", "tns:element"};
  switch (type) {
    case B::kString:
    case B::kAnyType:
    case B::kAnyUri:
      return kText;
    case B::kBoolean:
      return kBool;
    case B::kByte:
      return kByte;
    case B::kShort:
      return kShort;
    case B::kInt:
      return kInt;
    case B::kLong:
      return kLong;
    case B::kUnsignedByte:
      return kUByte;
    case B::kUnsignedShort:
      return kUShort;
    case B::kUnsignedInt:
      return kUInt;
    case B::kUnsignedLong:
      return kULong;
    case B::kFloat:
    case B::kDouble:
      return kFloat;
    case B::kDecimal:
      return kDecimal;
    case B::kInteger:
      return kInteger;
    case B::kDate:
      return kDate;
    case B::kTime:
      return kTime;
    case B::kDateTime:
      return kDateTime;
    case B::kDuration:
      return kDuration;
    case B::kBase64Binary:
      return kBase64;
    case B::kHexBinary:
      return kHex;
    case B::kQNameType:
      return kQName;
  }
  return kText;
}

std::string generate_value(xsd::Builtin type, Rng& rng) {
  using B = xsd::Builtin;
  // Half the draws come from the boundary list, half from the lexical
  // space at large — the PropEr-style mix of edges and bulk.
  if (rng.chance(50)) {
    const std::vector<std::string>& edges = edge_values(type);
    return edges[rng.below(edges.size())];
  }
  switch (type) {
    case B::kString:
    case B::kAnyType:
    case B::kAnyUri:
      return random_text(rng, 20);
    case B::kBoolean:
      return rng.chance(50) ? "true" : "false";
    case B::kByte:
      return random_signed(rng, -128, 127);
    case B::kShort:
      return random_signed(rng, -32768, 32767);
    case B::kInt:
      return random_signed(rng, -2147483648LL, 2147483647LL);
    case B::kLong:
      return std::to_string(static_cast<long long>(rng.next()));
    case B::kUnsignedByte:
      return std::to_string(rng.below(256));
    case B::kUnsignedShort:
      return std::to_string(rng.below(65536));
    case B::kUnsignedInt:
      return std::to_string(rng.next() % 4294967296ull);
    case B::kUnsignedLong:
      return std::to_string(rng.next());
    case B::kFloat:
    case B::kDouble:
      return random_float(rng);
    case B::kDecimal:
      return random_decimal(rng);
    case B::kInteger: {
      std::string value = rng.chance(30) ? "-" : "";
      return value + random_digits(rng, 1 + rng.below(24));
    }
    case B::kDate:
      return random_date(rng);
    case B::kTime:
      return random_time(rng);
    case B::kDateTime: {
      const std::string time = random_time(rng);
      std::string value = random_date(rng) + "T" + time;
      if (rng.chance(30)) value += "Z";
      return value;
    }
    case B::kDuration: {
      const char* unit = rng.chance(50) ? "D" : "M";
      return "P" + std::to_string(rng.below(1000)) + unit;
    }
    case B::kBase64Binary:
      return random_base64(rng);
    case B::kHexBinary: {
      std::string value;
      const std::size_t bytes = rng.below(10);
      for (std::size_t i = 0; i < bytes * 2; ++i) value.push_back(rng.pick(kHexAlphabet));
      return value;
    }
    case B::kQNameType: {
      std::string value;
      if (rng.chance(40)) {
        value.push_back(rng.pick(kNameAlphabet));
        value += ":";
      }
      for (std::size_t i = 0, n = 1 + rng.below(8); i < n; ++i) {
        value.push_back(rng.pick(kNameAlphabet));
      }
      return value;
    }
  }
  return random_text(rng, 20);
}

std::string generate_value(const xsd::SimpleTypeDecl& type, Rng& rng) {
  if (!type.enumeration.empty()) {
    return type.enumeration[rng.below(type.enumeration.size())];
  }
  const std::optional<xsd::Builtin> base =
      xsd::builtin_from_local_name(type.base.local_name());
  // Pattern facet: walk the compiled pattern, then keep only candidates
  // that clear the remaining facets + base lexical space.
  if (!type.pattern.empty()) {
    if (const std::optional<xsd::Pattern> pattern = xsd::parse_pattern(type.pattern)) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        std::string value = value_from_pattern(*pattern, rng);
        if (xsd::is_valid_value(type, value)) return value;
      }
    }
  }
  for (int attempt = 0; attempt < 32; ++attempt) {
    std::string value = base ? generate_value(*base, rng) : random_text(rng, 20);
    // Length facets on text bases are satisfiable by construction.
    if ((!base || *base == xsd::Builtin::kString || *base == xsd::Builtin::kAnyUri) &&
        type.pattern.empty()) {
      if (type.min_length >= 0 &&
          value.size() < static_cast<std::size_t>(type.min_length)) {
        value.append(static_cast<std::size_t>(type.min_length) - value.size(), 'a');
      }
      if (type.max_length >= 0 &&
          value.size() > static_cast<std::size_t>(type.max_length)) {
        value.resize(static_cast<std::size_t>(type.max_length));
      }
    }
    if (type.total_digits > 0 && base && *base != xsd::Builtin::kString) {
      value = random_digits(rng, 1 + rng.below(static_cast<std::size_t>(type.total_digits)));
    }
    if (xsd::is_valid_value(type, value)) return value;
  }
  // Facet combinations the sampler cannot hit fall back to the base space;
  // the round-trip property test keeps this path honest for modelled types.
  return base ? generate_value(*base, rng) : random_text(rng, 20);
}

std::string sabotage_value(xsd::Builtin type, Rng& rng) {
  using B = xsd::Builtin;
  switch (type) {
    case B::kString:
    case B::kAnyType:
    case B::kAnyUri:
      // Any text is lexically valid — callers must sabotage a facet instead.
      return random_text(rng, 8);
    case B::kBoolean:
    case B::kByte:
    case B::kShort:
    case B::kInt:
    case B::kLong:
    case B::kUnsignedByte:
    case B::kUnsignedShort:
    case B::kUnsignedInt:
    case B::kUnsignedLong:
    case B::kInteger:
    case B::kFloat:
    case B::kDouble:
    case B::kDecimal:
      return "not-a-number-" + random_digits(rng, 2);
    case B::kDate:
    case B::kTime:
    case B::kDateTime:
      return "not-a-date";
    case B::kDuration:
      return "one day";
    case B::kBase64Binary:
      return "%%%";
    case B::kHexBinary:
      return "xyz";
    case B::kQNameType:
      return "no names here";
  }
  return "not-a-number";
}

std::string sabotage_value(const xsd::SimpleTypeDecl& type, Rng& rng) {
  if (!type.enumeration.empty()) {
    // Off-enumeration, lexically fine for the base, trivially shrinkable.
    return "zz-sabotage-" + random_digits(rng, 3);
  }
  const std::optional<xsd::Builtin> base =
      xsd::builtin_from_local_name(type.base.local_name());
  return sabotage_value(base.value_or(xsd::Builtin::kInt), rng);
}

xml::Element generate_instance(const xsd::Schema& schema, const xsd::ComplexType& type,
                               std::string_view element_name, int depth, Rng& rng) {
  xml::Element node{std::string(element_name)};
  for (const xsd::Particle& particle : type.particles) {
    const xsd::ElementDecl* decl = std::get_if<xsd::ElementDecl>(&particle);
    if (decl == nullptr) continue;  // wildcards contribute no generated content
    // A ref to a top-level element resolves to its declaration; unresolved
    // refs (foreign documents) are skipped like optional particles.
    const xsd::ElementDecl* resolved = decl;
    if (decl->is_ref()) {
      resolved = schema.find_element(decl->ref.local_name());
      if (resolved == nullptr) continue;
    }
    // Occurrence comes from the reference site, name/type from the target.
    const int cap = decl->max_occurs == xsd::kUnbounded
                        ? decl->min_occurs + 3
                        : std::max(decl->max_occurs, decl->min_occurs);
    const int reps = decl->min_occurs +
                     static_cast<int>(rng.below(
                         static_cast<std::size_t>(cap - decl->min_occurs) + 1));
    for (int i = 0; i < reps; ++i) {
      const std::optional<xsd::Builtin> builtin =
          xsd::builtin_from_local_name(resolved->type.local_name());
      if (builtin) {
        node.add_element(resolved->name).add_text(generate_value(*builtin, rng));
        continue;
      }
      if (const xsd::SimpleTypeDecl* simple =
              schema.find_simple_type(resolved->type.local_name())) {
        node.add_element(resolved->name).add_text(generate_value(*simple, rng));
        continue;
      }
      const xsd::ComplexType* nested =
          resolved->inline_type ? resolved->inline_type.get()
                                : schema.find_complex_type(resolved->type.local_name());
      if (nested != nullptr && depth > 0) {
        node.add_child(generate_instance(schema, *nested, resolved->name, depth - 1, rng));
      } else if (decl->min_occurs > 0) {
        // Depth exhausted (e.g. a self-recursive chain): required particles
        // are emitted empty so the tree stays schema-shaped but bounded.
        node.add_element(resolved->name);
      }
    }
  }
  return node;
}

}  // namespace wsx::gen
