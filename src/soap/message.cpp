#include "soap/message.hpp"

#include <span>

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

/// request_operation's answer for a Fault payload.
Error fault_body() { return Error{"soap.fault-body", "request envelope carries a fault"}; }

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
  if (envelope.is_fault()) return fault_body();
  return envelope.body().local_name();
}

Request request_of(const Envelope& envelope) {
  Request request;
  request.version = envelope.version();
  request.coherence = inspect_coherence(envelope);
  request.operation = request_operation(envelope);
  const xml::Element* argument = nullptr;
  for (const xml::Node& node : envelope.body().children()) {
    const xml::Element* child = node.as_element();
    if (child == nullptr || xml::local_part(child->name()) != "arg0") continue;
    if (argument == nullptr) argument = child;
    request.value = child->text();
  }
  if (argument != nullptr) {
    for (const xml::Node& node : argument->children()) {
      if (const xml::Element* field = node.as_element()) {
        request.fields.push_back({std::string(xml::local_part(field->name())), field->text()});
      }
    }
  }
  return request;
}

/// One pass over the token stream, on the frame walker soap::parse uses:
/// header entries are judged on their start tags, a Fault payload is
/// skipped, and of the payload's children only the arg0 elements are read.
Result<Request> read_request(std::string_view text) {
  xml::pull::Tokenizer tok{text};
  Request request;
  bool have_argument = false;
  // Reading and skipping fail only when the tokenizer does.
  const auto read_field = [&](const xml::pull::Token& field) {
    std::string name(xml::local_part(field.name));
    Result<std::string> field_text = xml::element_text(tok);
    if (!field_text.ok()) return false;
    request.fields.push_back({std::move(name), std::move(field_text.value())});
    return true;
  };
  Result<detail::EnvelopeFrame> frame = detail::walk_envelope_frame(
      tok,
      [&](xml::pull::Tokenizer& t, const xml::pull::Token& start) {
        request.coherence.add(header_marks(
            start.name, std::span<const xml::pull::AttrView>(start.attrs, start.attr_count)));
        return xml::pull::skip_element(t, start);
      },
      [&](xml::pull::Tokenizer& t, const xml::pull::Token& start) -> Result<bool> {
        if (xml::local_part(start.name) == "Fault") return xml::pull::skip_element(t, start);
        const bool walked = xml::pull::for_each_child(t, [&](const xml::pull::Token& child) {
          if (xml::local_part(child.name) != "arg0") return xml::pull::skip_element(t, child).ok();
          Result<std::string> value =
              have_argument ? xml::element_text(t) : xml::element_text(t, read_field);
          if (!value.ok()) return false;
          have_argument = true;
          request.value = std::move(value.value());
          return true;
        });
        if (!walked) return t.error();
        return true;
      });
  if (!frame.ok()) return frame.error();
  Result<SoapVersion> version = detail::check_envelope_frame(frame.value());
  if (!version.ok()) return version.error();
  request.version = version.value();
  if (frame->payload_local == "Fault") {
    request.operation = fault_body();
  } else {
    request.operation = std::move(frame->payload_local);
  }
  return request;
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
/// skipped, and that one's text is read off the stream; a Fault payload is
/// built and assembled as soap::parse does.
Result<Reply> read_reply(std::string_view text) {
  xml::pull::Tokenizer tok{text};
  std::optional<xml::Element> fault_payload;
  std::optional<std::string> returned;
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
        // Skipping and reading fail only when the tokenizer does.
        const bool walked = xml::pull::for_each_child(t, [&](const xml::pull::Token& child) {
          if (returned.has_value() || xml::local_part(child.name) != "return") {
            return xml::pull::skip_element(t, child).ok();
          }
          Result<std::string> value = xml::element_text(t);
          if (!value.ok()) return false;
          returned = std::move(value.value());
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
    reply.value = *std::move(returned);
  }
  return reply;
}

}  // namespace wsx::soap
