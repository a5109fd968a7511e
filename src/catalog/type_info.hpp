// type_info.hpp — the native-type population the study deploys services for.
//
// The paper crawled the Java SE 7 and .NET 4 API documentation and created
// one echo service per public class (3971 Java / 14082 C# candidates). We
// cannot ship those class libraries, so this module generates synthetic
// populations with the same *trait distribution*: how many types are
// bean-compatible, Throwable-derived, DataSet-shaped, etc. Everything the
// pipeline does downstream keys on these traits and on the fields below —
// never on a type's position in the catalog.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "xsd/builtin.hpp"

namespace wsx::catalog {

enum class SourceLanguage { kJava, kCSharp };

const char* to_string(SourceLanguage language);

/// Trait bit positions. Traits describe properties of the native type that
/// server binders and client generators genuinely react to.
enum class Trait : std::uint64_t {
  // Deployability-relevant shape.
  kDefaultCtor = 1ull << 0,
  kAbstract = 1ull << 1,
  kInterface = 1ull << 2,
  kGenericType = 1ull << 3,     ///< open generic — no binder supports these
  kSerializable = 1ull << 4,    ///< .NET binders require [Serializable]
  kAsyncApi = 1ull << 5,        ///< Future / Response — JAX-WS async artifacts

  // Java-population shape.
  kThrowableDerived = 1ull << 6,   ///< extends Exception or Error
  kRawGenericApi = 1ull << 7,      ///< raw collections in the public API
  kAnyTypeArrayField = 1ull << 8,  ///< field mapping to xsd:anyType maxOccurs=unbounded
  kWsaEndpointReference = 1ull << 9,  ///< javax.xml.ws.wsaddressing.W3CEndpointReference
  kLegacyDateFormat = 1ull << 10,     ///< java.text.SimpleDateFormat
  kXmlGregorianCalendar = 1ull << 11,

  // Shared shape.
  kCaseCollidingFields = 1ull << 12,  ///< fields differing only in case (VB collision)

  // .NET-population shape.
  kDataSetSchema = 1ull << 13,     ///< serializes as s:schema/s:any DataSet idiom
  kDataSetNested = 1ull << 14,     ///< DataSet ref inside a nested inline type
  kDataSetDuplicated = 1ull << 15, ///< two s:schema refs in one content model
  kDataSetArray = 1ull << 16,      ///< s:schema ref under maxOccurs="unbounded"
  kSoapEncodedBinding = 1ull << 17,///< WCF emits use="encoded" for this type
  kMissingSoapAction = 1ull << 18, ///< WCF omits soapAction for this type
  kWildcardContent = 1ull << 19,   ///< content model is xs:any only (DataTable family)
  kDoubleWildcard = 1ull << 20,    ///< two xs:any particles
  kEnumType = 1ull << 21,          ///< maps to an xsd enumeration simpleType
  kDeepNesting = 1ull << 22,       ///< kDeepNestingDepth levels of inline anonymous types
  kCompilerPathological = 1ull << 23,  ///< kPathologicalNestingDepth levels: crashes jsc
  kGeneratorCrash = 1ull << 24,        ///< jsc *generator* crashes on the WSDL
};

/// Inline-nesting depths behind the JScript compile-step failures (paper
/// §IV.B.3). Servers publish kDeepNesting types this many levels deep; from
/// this depth the JScript generator emits accessors without bodies, and the
/// predictor's deep-nesting signal fires.
inline constexpr std::size_t kDeepNestingDepth = 3;
/// The depth kCompilerPathological types are published at; from this depth
/// the JScript unit is pathological and jsc crashes ("131 INTERNAL COMPILER
/// CRASH").
inline constexpr std::size_t kPathologicalNestingDepth = 5;

/// One field of a native type, as the server binder will expose it in the
/// service's schema.
struct FieldSpec {
  std::string name;
  xsd::Builtin type = xsd::Builtin::kString;
  bool is_array = false;
  bool raw_collection = false;  ///< surfaces as a raw collection in artifacts
  friend bool operator==(const FieldSpec&, const FieldSpec&) = default;
};

/// A native class/struct/enum of the host platform.
struct TypeInfo {
  std::string package;  ///< "java.util" / "System.Data"
  std::string name;     ///< simple name
  SourceLanguage language = SourceLanguage::kJava;
  std::uint64_t traits = 0;
  std::vector<FieldSpec> fields;
  std::vector<std::string> enum_values;  ///< for kEnumType

  bool has(Trait trait) const {
    return (traits & static_cast<std::uint64_t>(trait)) != 0;
  }
  void set(Trait trait) { traits |= static_cast<std::uint64_t>(trait); }

  std::string qualified_name() const { return package + "." + name; }
};

/// An immutable catalog of types, plus query helpers used by the
/// preparation phase and by tests.
class TypeCatalog {
 public:
  TypeCatalog(std::string platform, std::vector<TypeInfo> types)
      : platform_(std::move(platform)), types_(std::move(types)) {}

  const std::string& platform() const { return platform_; }
  const std::vector<TypeInfo>& types() const { return types_; }
  std::size_t size() const { return types_.size(); }

  const TypeInfo* find(std::string_view qualified_name) const;
  std::vector<const TypeInfo*> with_trait(Trait trait) const;
  std::size_t count_with_trait(Trait trait) const;

 private:
  std::string platform_;
  std::vector<TypeInfo> types_;
};

}  // namespace wsx::catalog
