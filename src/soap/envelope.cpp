#include "soap/envelope.hpp"

#include <algorithm>

#include "soap/stream_frame.hpp"
#include "xml/parser.hpp"
#include "xml/pull.hpp"
#include "xml/query.hpp"
#include "xml/writer.hpp"

namespace wsx::soap {

const char* to_string(SoapVersion version) {
  return version == SoapVersion::k11 ? "SOAP 1.1" : "SOAP 1.2";
}

std::string_view envelope_namespace(SoapVersion version) {
  return version == SoapVersion::k11 ? xml::ns::kSoapEnvelope : xml::ns::kSoap12Envelope;
}

std::string fault_code_for_12(std::string_view fault_code) {
  const std::size_t colon = fault_code.find(':');
  const std::string_view local =
      colon == std::string_view::npos ? fault_code : fault_code.substr(colon + 1);
  // SOAP 1.2 renamed the two application code values; the rest kept their
  // local names. Everything lives in the envelope namespace ("soapenv").
  if (local == "Client") return "soapenv:Sender";
  if (local == "Server") return "soapenv:Receiver";
  return "soapenv:" + std::string(local);
}

Envelope Envelope::make_fault(Fault fault, SoapVersion version) {
  Envelope envelope;
  envelope.version_ = version;
  xml::Element body{"soapenv:Fault"};
  if (version == SoapVersion::k11) {
    // 1.1 fault children are unqualified: faultcode/faultstring/detail.
    body.add_element("faultcode").add_text(fault.fault_code);
    body.add_element("faultstring").add_text(fault.fault_string);
    if (!fault.detail.empty()) body.add_element("detail").add_text(fault.detail);
  } else {
    // SOAP 1.2 fault structure: qualified Code/Value, Reason/Text, Detail,
    // with the code value normalized to its 1.2 spelling. The stored Fault
    // carries the normalized code too, so a write/parse round-trip of a 1.2
    // fault is the identity.
    fault.fault_code = fault_code_for_12(fault.fault_code);
    body.add_element("soapenv:Code").add_element("soapenv:Value").add_text(fault.fault_code);
    xml::Element& text =
        body.add_element("soapenv:Reason").add_element("soapenv:Text");
    text.set_attribute("xml:lang", "en");  // 1.2 requires xml:lang on Text
    text.add_text(fault.fault_string);
    if (!fault.detail.empty()) {
      body.add_element("soapenv:Detail").add_text(fault.detail);
    }
  }
  envelope.body_ = std::move(body);
  envelope.fault_ = std::move(fault);
  return envelope;
}

void Envelope::add_must_understand_header(xml::Element entry) {
  entry.set_attribute("soapenv:mustUnderstand", "1");
  headers_.push_back(std::move(entry));
}

bool Envelope::has_must_understand_headers() const {
  return std::any_of(headers_.begin(), headers_.end(), marked_must_understand);
}

/// Emitted straight from the model: the frame's tags around each header
/// entry and the payload, which are written in place. The bytes equal
/// xml::write over the whole envelope assembled as one tree.
std::string write(const Envelope& envelope) {
  return detail::write_envelope_frame(
      envelope.version(), envelope.header_entries(),
      [&](xml::Emitter& out) { out.element(envelope.body()); });
}

Envelope detail::assemble_envelope(SoapVersion version, std::vector<xml::Element> headers,
                                   xml::Element payload) {
  if (payload.local_name() == "Fault") {
    Fault fault;
    if (version == SoapVersion::k11) {
      if (const xml::Element* code = payload.child("faultcode")) fault.fault_code = code->text();
      if (const xml::Element* reason = payload.child("faultstring")) {
        fault.fault_string = reason->text();
      }
      if (const xml::Element* detail = payload.child("detail")) fault.detail = detail->text();
    } else {
      if (const xml::Element* code = payload.child("Code")) {
        if (const xml::Element* value = code->child("Value")) fault.fault_code = value->text();
      }
      if (const xml::Element* reason = payload.child("Reason")) {
        if (const xml::Element* text_node = reason->child("Text")) {
          fault.fault_string = text_node->text();
        }
      }
      if (const xml::Element* detail = payload.child("Detail")) fault.detail = detail->text();
    }
    Envelope result = Envelope::make_fault(std::move(fault), version);
    for (xml::Element& entry : headers) result.add_header(std::move(entry));
    return result;
  }
  Envelope envelope;
  envelope.set_version(version);
  for (xml::Element& entry : headers) envelope.add_header(std::move(entry));
  envelope.body() = std::move(payload);
  return envelope;
}

/// One pass over the token stream; only header entries and the first body
/// payload are ever materialised.
Result<Envelope> parse(std::string_view text) {
  xml::pull::Tokenizer tok{text};
  std::vector<xml::Element> headers;
  std::optional<xml::Element> payload;

  Result<detail::EnvelopeFrame> frame = detail::walk_envelope_frame(
      tok,
      [&](xml::pull::Tokenizer& t, const xml::pull::Token& start) -> Result<bool> {
        Result<xml::Element> entry = xml::collect_element(t, start, xml::Positions::kOmit);
        if (!entry.ok()) return entry.error();
        headers.push_back(std::move(entry.value()));
        return true;
      },
      [&](xml::pull::Tokenizer& t, const xml::pull::Token& start) -> Result<bool> {
        Result<xml::Element> element = xml::collect_element(t, start, xml::Positions::kOmit);
        if (!element.ok()) return element.error();
        payload = std::move(element.value());
        return true;
      });
  if (!frame.ok()) return frame.error();
  Result<SoapVersion> version = detail::check_envelope_frame(frame.value());
  if (!version.ok()) return version.error();
  return detail::assemble_envelope(version.value(), std::move(headers), std::move(*payload));
}

}  // namespace wsx::soap
