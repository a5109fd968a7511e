// version.hpp — the mixed-version message model: hybrid profiles, version
// coherence inspection, and the per-version HTTP media types.
//
// The 2014 study ran entirely on SOAP 1.1, but the Digikoppeling WUS
// deployments documented in SNIPPETS.md hit a failure class it never
// reached: SOAP 1.1 envelopes carrying SOAP 1.2-era features (WS-Addressing
// and WS-Security headers, MTOM/XOP hints). Strict stacks reject such
// messages on version-coherence grounds; shaded-CXF-style deployments relax
// validation and accept them. This module gives the rest of the system one
// shared vocabulary for that space: which namespaces count as "1.2-era",
// how a client dresses a 1.1 envelope up in them (HybridProfile), what a
// receiver can observe about a message's coherence (VersionCoherence), and
// the per-version Content-Type values the HTTP layer must agree on.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "soap/envelope.hpp"
#include "xml/node.hpp"
#include "xml/pull.hpp"

namespace wsx::soap {

/// The WS-Addressing 1.0 namespace (wsa) — also interned in xml::ns.
inline constexpr std::string_view kWsAddressingNs = "http://www.w3.org/2005/08/addressing";
/// The WS-Security 1.0 secext namespace (wsse).
inline constexpr std::string_view kWsSecurityNs =
    "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-secext-1.0.xsd";
/// The XOP include namespace (MTOM attachment hints).
inline constexpr std::string_view kXopNs = "http://www.w3.org/2004/08/xop/include";

/// True when `namespace_uri` belongs to the SOAP 1.2-era extension stack
/// (WS-Addressing, WS-Security, XOP/MTOM) — the headers the Digikoppeling
/// profile layers onto SOAP 1.1 envelopes.
bool is_12_era_namespace(std::string_view namespace_uri);

/// The media type a coherent message of `version` travels under: "text/xml"
/// for SOAP 1.1, "application/soap+xml" for SOAP 1.2 (RFC 3902).
std::string_view content_type_for(SoapVersion version);

/// True when a Content-Type header value names the media type of `version`
/// (parameters such as charset are ignored).
bool content_type_matches(std::string_view content_type, SoapVersion version);

/// How much 1.2-era dressing a client's runtime puts on its 1.1 envelopes.
/// Each client model emits the profile its documented VersionPolicy
/// implies; see frameworks/version_policy.hpp for the assignment.
enum class HybridProfile {
  kPure11,      ///< plain SOAP 1.1, no extension headers (the 2014 study)
  kAddressing,  ///< + WS-Addressing Action/MessageID headers, not marked
                ///< mustUnderstand — relaxed receivers may ignore them
  kSecured,     ///< + wsse:Security marked mustUnderstand (and wsa) — the
                ///< Digikoppeling WUS shape only shaded receivers accept
};
inline constexpr std::size_t kHybridProfileCount = 3;

const char* to_string(HybridProfile profile);

/// Decorates a SOAP 1.1 envelope with the profile's extension headers.
/// kPure11 is a no-op; the added headers declare their namespaces on
/// themselves so coherence inspection survives a serialize/parse
/// round-trip. `operation` seeds the wsa:Action value.
void apply_hybrid_profile(Envelope& envelope, HybridProfile profile,
                          std::string_view operation);

/// What one header entry says about its message's coherence, judged on its
/// lexical name and attributes alone: a built entry's or, off the token
/// stream, its start tag's.
struct HeaderMarks {
  /// The entry lives in a 1.2-era extension namespace: its prefix (or, when
  /// unprefixed, the default namespace) is declared so on the entry itself
  /// (the wire shape), or, for in-process envelopes whose declarations live
  /// on an ancestor, the prefix is a conventional one (wsa/wsse/xop).
  bool era12 = false;
  /// It demands mustUnderstand processing: an attribute whose local name is
  /// mustUnderstand, valued "1" or "true". The prefix is matched by local
  /// name alone, as real stacks do after resolution.
  bool must_understand = false;
};
HeaderMarks header_marks(std::string_view name, std::span<const xml::Attribute> attributes);
HeaderMarks header_marks(std::string_view name,
                         std::span<const xml::pull::AttrView> attributes);

/// header_marks(entry).era12.
bool is_12_era_header(const xml::Element& entry);

/// What a receiver can observe about a message's version coherence.
struct VersionCoherence {
  bool has_12_era_headers = false;     ///< any wsa/wsse/xop header entry
  bool has_12_era_mu_headers = false;  ///< such an entry marked mustUnderstand
  bool has_unknown_mu_headers = false; ///< mustUnderstand outside that set

  /// Folds in one more header entry.
  void add(HeaderMarks entry) {
    has_12_era_headers |= entry.era12;
    has_12_era_mu_headers |= entry.era12 && entry.must_understand;
    has_unknown_mu_headers |= !entry.era12 && entry.must_understand;
  }
  friend bool operator==(const VersionCoherence&, const VersionCoherence&) = default;
};

VersionCoherence inspect_coherence(const Envelope& envelope);

}  // namespace wsx::soap
