#include "soap/message.hpp"

#include "common/strings.hpp"
#include "soap/stream_frame.hpp"
#include "xml/parser.hpp"
#include "xml/pull.hpp"
#include "xml/qname.hpp"
#include "xml/writer.hpp"

namespace wsx::soap {
namespace {

/// The response operation of `operation`, or build_response's error.
Result<const wsdl::Operation*> response_operation(const wsdl::Definitions& defs,
                                                  std::string_view operation) {
  const wsdl::Operation* op = defs.find_operation(operation);
  if (op == nullptr) {
    return Error{"soap.unknown-operation",
                 "operation '" + std::string(operation) + "' is not described by the WSDL"};
  }
  if (op->output_message.empty()) {
    return Error{"soap.one-way",
                 "operation '" + std::string(operation) + "' declares no output"};
  }
  return op;
}

/// Why a reply carries no return value, by response_value's rule: its
/// fault, a payload that is no "<op>Response", or no return element.
std::optional<Error> missing_value(const Fault* fault, std::string_view payload_local,
                                   bool has_return) {
  if (fault != nullptr) {
    return Error{"soap.fault", fault->fault_code + ": " + fault->fault_string};
  }
  if (!ends_with(payload_local, "Response")) {
    return Error{"soap.not-a-response", "body payload is not an operation response"};
  }
  if (!has_return) return Error{"soap.missing-return", "response has no return element"};
  return std::nullopt;
}

}  // namespace

Result<Envelope> build_request(const wsdl::Definitions& defs, const std::string& operation,
                               const std::vector<Argument>& arguments) {
  const wsdl::Operation* op = defs.find_operation(operation);
  if (op == nullptr) {
    return Error{"soap.unknown-operation",
                 "operation '" + operation + "' is not described by the WSDL"};
  }
  xml::Element payload{"m:" + op->name};
  payload.declare_namespace("m", defs.target_namespace);
  for (const Argument& argument : arguments) {
    payload.add_element("m:" + argument.name).add_text(argument.value);
  }
  return Envelope{std::move(payload)};
}

Result<Envelope> build_structured_request(const wsdl::Definitions& defs,
                                          const std::string& operation,
                                          const std::vector<Argument>& fields) {
  const wsdl::Operation* op = defs.find_operation(operation);
  if (op == nullptr) {
    return Error{"soap.unknown-operation",
                 "operation '" + operation + "' is not described by the WSDL"};
  }
  xml::Element payload{"m:" + op->name};
  payload.declare_namespace("m", defs.target_namespace);
  xml::Element& argument = payload.add_element("m:arg0");
  for (const Argument& field : fields) {
    argument.add_element("m:" + field.name).add_text(field.value);
  }
  return Envelope{std::move(payload)};
}

Result<Envelope> build_response(const wsdl::Definitions& defs, const std::string& operation,
                                const std::string& return_value) {
  Result<const wsdl::Operation*> op = response_operation(defs, operation);
  if (!op.ok()) return op.error();
  xml::Element payload{"m:" + (*op)->name + "Response"};
  payload.declare_namespace("m", defs.target_namespace);
  payload.add_element("m:return").add_text(return_value);
  return Envelope{std::move(payload)};
}

Result<std::string> write_response(const wsdl::Definitions& defs, std::string_view operation,
                                   std::string_view return_value, SoapVersion version) {
  Result<const wsdl::Operation*> op = response_operation(defs, operation);
  if (!op.ok()) return op.error();
  // build_response's payload, tag for tag.
  std::string payload_name = "m:";
  payload_name += (*op)->name;
  payload_name += "Response";
  return detail::write_envelope_frame(version, {}, [&](xml::Emitter& out) {
    out.start(payload_name);
    out.attr("xmlns:m", defs.target_namespace);
    out.start("m:return");
    out.text(return_value);
    out.end();
    out.end();
  });
}

Result<std::string> request_operation(const Envelope& envelope) {
  if (envelope.is_fault()) {
    return Error{"soap.fault-body", "request envelope carries a fault"};
  }
  return envelope.body().local_name();
}

Result<std::string> response_value(const Envelope& envelope) {
  const xml::Element* return_element = envelope.body().child("return");
  if (std::optional<Error> missing =
          missing_value(envelope.is_fault() ? &envelope.fault() : nullptr,
                        xml::local_part(envelope.body().name()), return_element != nullptr)) {
    return *std::move(missing);
  }
  return return_element->text();
}

/// One pass over the token stream, on the frame walker soap::parse uses.
/// Header entries and every payload child but the first return element are
/// skipped; a Fault payload is built and assembled as soap::parse does.
Result<Reply> read_reply(std::string_view text) {
  xml::pull::Tokenizer tok{text};
  std::optional<xml::Element> fault_payload;
  std::optional<xml::Element> returned;
  Result<detail::EnvelopeFrame> frame = detail::walk_envelope_frame(
      tok,
      [](xml::pull::Tokenizer& t, const xml::pull::Token& start) {
        return xml::pull::skip_element(t, start);
      },
      [&](xml::pull::Tokenizer& t, const xml::pull::Token& start) -> Result<bool> {
        if (xml::local_part(start.name) == "Fault") {
          Result<xml::Element> payload = xml::collect_element(t, start, xml::Positions::kOmit);
          if (!payload.ok()) return payload.error();
          fault_payload = std::move(payload.value());
          return true;
        }
        // Skipping and collecting fail only when the tokenizer does.
        const bool walked = xml::pull::for_each_child(t, [&](const xml::pull::Token& child) {
          if (returned.has_value() || xml::local_part(child.name) != "return") {
            return xml::pull::skip_element(t, child).ok();
          }
          Result<xml::Element> element = xml::collect_element(t, child, xml::Positions::kOmit);
          if (!element.ok()) return false;
          returned = std::move(element.value());
          return true;
        });
        if (!walked) return t.error();
        return true;
      });
  if (!frame.ok()) return frame.error();
  Result<SoapVersion> version = detail::check_envelope_frame(frame.value());
  if (!version.ok()) return version.error();

  Reply reply;
  if (fault_payload.has_value()) {
    reply.fault = detail::assemble_envelope(*version, {}, *std::move(fault_payload)).fault();
  }
  if (std::optional<Error> missing =
          missing_value(reply.fault ? &*reply.fault : nullptr, frame->payload_local,
                        returned.has_value())) {
    reply.value = *std::move(missing);
  } else {
    reply.value = std::move(*returned).text();
  }
  return reply;
}

}  // namespace wsx::soap
