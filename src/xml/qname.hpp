// qname.hpp — namespace-qualified names as used throughout XML, XSD and WSDL.
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace wsx::xml {

/// Well-known namespace URIs used by the web-services stack.
namespace ns {
inline constexpr std::string_view kXsd = "http://www.w3.org/2001/XMLSchema";
inline constexpr std::string_view kXsi = "http://www.w3.org/2001/XMLSchema-instance";
inline constexpr std::string_view kWsdl = "http://schemas.xmlsoap.org/wsdl/";
inline constexpr std::string_view kWsdlSoap = "http://schemas.xmlsoap.org/wsdl/soap/";
inline constexpr std::string_view kSoapEnvelope = "http://schemas.xmlsoap.org/soap/envelope/";
inline constexpr std::string_view kSoap12Envelope = "http://www.w3.org/2003/05/soap-envelope";
inline constexpr std::string_view kSoapEncoding = "http://schemas.xmlsoap.org/soap/encoding/";
inline constexpr std::string_view kSoapHttp = "http://schemas.xmlsoap.org/soap/http";
inline constexpr std::string_view kWsAddressing = "http://www.w3.org/2005/08/addressing";
inline constexpr std::string_view kXmlNs = "http://www.w3.org/XML/1998/namespace";

/// Interned identity for the namespaces above. Envelope-path QName
/// comparisons resolve to an integer compare when both sides are interned
/// (which every SOAP/WSDL/XSD name on the hot path is), instead of
/// re-comparing the URI strings on every check.
enum class Id : unsigned char {
  kOther = 0,  ///< any URI not in this list — compare the strings
  kNone,       ///< empty URI (unqualified name)
  kXsd,
  kXsi,
  kWsdl,
  kWsdlSoap,
  kSoapEnvelope,
  kSoap12Envelope,
  kSoapEncoding,
  kSoapHttp,
  kWsAddressing,
  kXmlNs,
};

/// Maps a URI to its interned Id (kOther when not well-known). One length
/// switch plus at most two memcmps.
Id intern(std::string_view uri);
}  // namespace ns

/// A namespace-qualified name. The prefix is presentation-only and ignored
/// by comparisons; two QNames are equal iff URI and local part match.
class QName {
 public:
  QName() = default;
  QName(std::string namespace_uri, std::string local_name)
      : namespace_uri_(std::move(namespace_uri)),
        local_name_(std::move(local_name)),
        ns_id_(ns::intern(namespace_uri_)) {}
  QName(std::string namespace_uri, std::string local_name, std::string prefix)
      : namespace_uri_(std::move(namespace_uri)),
        local_name_(std::move(local_name)),
        prefix_(std::move(prefix)),
        ns_id_(ns::intern(namespace_uri_)) {}

  const std::string& namespace_uri() const { return namespace_uri_; }
  const std::string& local_name() const { return local_name_; }
  const std::string& prefix() const { return prefix_; }

  /// Interned namespace identity, computed once at construction. Hot-path
  /// checks compare this against a ns::Id instead of the URI string.
  ns::Id namespace_id() const { return ns_id_; }

  bool empty() const { return local_name_.empty(); }

  /// "{uri}local" form used in messages and map keys.
  std::string expanded() const;
  /// "prefix:local" (or "local" when no prefix) as it appears lexically.
  std::string lexical() const;

  friend bool operator==(const QName& a, const QName& b) {
    // Interned ids disagree → the URIs differ; both kOther → unknown URIs
    // that still need the string compare.
    if (a.ns_id_ != b.ns_id_) return false;
    if (a.ns_id_ == ns::Id::kOther && a.namespace_uri_ != b.namespace_uri_) return false;
    return a.local_name_ == b.local_name_;
  }
  friend bool operator!=(const QName& a, const QName& b) { return !(a == b); }
  friend bool operator<(const QName& a, const QName& b) {
    return a.namespace_uri_ != b.namespace_uri_ ? a.namespace_uri_ < b.namespace_uri_
                                                : a.local_name_ < b.local_name_;
  }

 private:
  std::string namespace_uri_;
  std::string local_name_;
  std::string prefix_;
  ns::Id ns_id_ = ns::Id::kNone;
};

/// Convenience: QName in the XML Schema namespace (e.g. xsd("string")).
QName xsd(std::string local_name);

/// Local part of a lexical name: "p:local" → "local", "local" → "local".
inline std::string_view local_part(std::string_view lexical) {
  const std::size_t colon = lexical.find(':');
  return colon == std::string_view::npos ? lexical : lexical.substr(colon + 1);
}

/// Prefix of a lexical name: "p:local" → "p", "local" → "".
inline std::string_view prefix_part(std::string_view lexical) {
  const std::size_t colon = lexical.find(':');
  return colon == std::string_view::npos ? std::string_view{} : lexical.substr(0, colon);
}

}  // namespace wsx::xml

template <>
struct std::hash<wsx::xml::QName> {
  std::size_t operator()(const wsx::xml::QName& name) const noexcept {
    return std::hash<std::string>{}(name.namespace_uri()) * 1315423911u ^
           std::hash<std::string>{}(name.local_name());
  }
};
