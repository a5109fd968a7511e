#include "soap/version.hpp"

#include "common/strings.hpp"

namespace wsx::soap {

bool is_12_era_namespace(std::string_view namespace_uri) {
  return namespace_uri == kWsAddressingNs || namespace_uri == kWsSecurityNs ||
         namespace_uri == kXopNs;
}

std::string_view content_type_for(SoapVersion version) {
  return version == SoapVersion::k11 ? "text/xml" : "application/soap+xml";
}

bool content_type_matches(std::string_view content_type, SoapVersion version) {
  return content_type.find(content_type_for(version)) != std::string_view::npos;
}

const char* to_string(HybridProfile profile) {
  switch (profile) {
    case HybridProfile::kPure11:
      return "pure-1.1";
    case HybridProfile::kAddressing:
      return "addressing";
    case HybridProfile::kSecured:
      return "secured";
  }
  return "unknown";
}

namespace {

xml::Element make_wsa_header(std::string_view local, std::string value) {
  xml::Element entry{"wsa:" + std::string(local)};
  entry.declare_namespace("wsa", kWsAddressingNs);
  entry.add_text(std::move(value));
  return entry;
}

}  // namespace

void apply_hybrid_profile(Envelope& envelope, HybridProfile profile,
                          std::string_view operation) {
  if (profile == HybridProfile::kPure11) return;
  // WS-Addressing: Action + MessageID, never mustUnderstand — a receiver
  // that ignores them loses nothing an echo call needs.
  envelope.add_header(
      make_wsa_header("Action", "urn:wsx:" + std::string(operation)));
  // Deterministic MessageID: campaigns must be byte-identical across runs,
  // so the id derives from the operation, not from randomness.
  envelope.add_header(
      make_wsa_header("MessageID", "urn:uuid:wsx-" + std::string(operation)));
  if (profile != HybridProfile::kSecured) return;
  // WS-Security: the Digikoppeling WUS shape — a wsse:Security header the
  // sender marks mustUnderstand, so receivers without the extension MUST
  // fault rather than silently skip the security processing.
  xml::Element security{"wsse:Security"};
  security.declare_namespace("wsse", kWsSecurityNs);
  security.add_element("wsse:BinarySecurityToken").add_text("d295LXRva2Vu");
  envelope.add_must_understand_header(std::move(security));
}

bool is_12_era_header(const xml::Element& entry) {
  // Wire shape: the entry (or the profile builder) declared its namespace
  // on itself. Resolve the entry's prefix against its own declarations.
  const std::string& name = entry.name();
  const std::size_t colon = name.find(':');
  const std::string_view prefix =
      colon == std::string::npos ? std::string_view{} : std::string_view(name).substr(0, colon);
  for (const xml::Attribute& attribute : entry.attributes()) {
    const bool default_decl = attribute.name == "xmlns" && prefix.empty();
    const bool prefix_decl = !prefix.empty() &&
                             starts_with(attribute.name, "xmlns:") &&
                             std::string_view(attribute.name).substr(6) == prefix;
    if ((default_decl || prefix_decl) && is_12_era_namespace(attribute.value)) {
      return true;
    }
  }
  // In-process envelopes built without a self-declaration: fall back to the
  // conventional prefixes, as real lenient binders do when sniffing.
  return prefix == "wsa" || prefix == "wsse" || prefix == "xop";
}

VersionCoherence inspect_coherence(const Envelope& envelope) {
  VersionCoherence coherence;
  for (const xml::Element& entry : envelope.header_entries()) {
    const bool era12 = is_12_era_header(entry);
    const bool mu = marked_must_understand(entry);
    coherence.has_12_era_headers |= era12;
    coherence.has_12_era_mu_headers |= era12 && mu;
    coherence.has_unknown_mu_headers |= !era12 && mu;
  }
  return coherence;
}

}  // namespace wsx::soap
