#include "soap/version.hpp"

#include "common/strings.hpp"
#include "xml/qname.hpp"

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

namespace {

/// The one header-entry rule, over either attribute representation.
template <typename Attribute>
HeaderMarks marks_of(std::string_view name, std::span<const Attribute> attributes) {
  const std::string_view prefix = xml::prefix_part(name);
  HeaderMarks marks;
  for (const Attribute& attribute : attributes) {
    const std::string_view attribute_name = attribute.name;
    const std::string_view value = attribute.value;
    const bool declares = prefix.empty() ? attribute_name == "xmlns"
                                         : starts_with(attribute_name, "xmlns:") &&
                                               attribute_name.substr(6) == prefix;
    marks.era12 |= declares && is_12_era_namespace(value);
    marks.must_understand |= xml::local_part(attribute_name) == "mustUnderstand" &&
                             (value == "1" || value == "true");
  }
  // In-process envelopes built without a self-declaration: fall back to the
  // conventional prefixes, as real lenient binders do when sniffing.
  marks.era12 |= prefix == "wsa" || prefix == "wsse" || prefix == "xop";
  return marks;
}

}  // namespace

HeaderMarks header_marks(std::string_view name, std::span<const xml::Attribute> attributes) {
  return marks_of(name, attributes);
}

HeaderMarks header_marks(std::string_view name,
                         std::span<const xml::pull::AttrView> attributes) {
  return marks_of(name, attributes);
}

bool is_12_era_header(const xml::Element& entry) {
  return header_marks(entry.name(), entry.attributes()).era12;
}

bool marked_must_understand(const xml::Element& entry) {
  return header_marks(entry.name(), entry.attributes()).must_understand;
}

VersionCoherence inspect_coherence(const Envelope& envelope) {
  VersionCoherence coherence;
  for (const xml::Element& entry : envelope.header_entries()) {
    coherence.add(header_marks(entry.name(), entry.attributes()));
  }
  return coherence;
}

}  // namespace wsx::soap
