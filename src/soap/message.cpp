#include "soap/message.hpp"

#include "common/strings.hpp"

namespace wsx::soap {

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
  const wsdl::Operation* op = defs.find_operation(operation);
  if (op == nullptr) {
    return Error{"soap.unknown-operation",
                 "operation '" + operation + "' is not described by the WSDL"};
  }
  if (op->output_message.empty()) {
    return Error{"soap.one-way", "operation '" + operation + "' declares no output"};
  }
  xml::Element payload{"m:" + op->name + "Response"};
  payload.declare_namespace("m", defs.target_namespace);
  payload.add_element("m:return").add_text(return_value);
  return Envelope{std::move(payload)};
}

Result<std::string> request_operation(const Envelope& envelope) {
  if (envelope.is_fault()) {
    return Error{"soap.fault-body", "request envelope carries a fault"};
  }
  return envelope.body().local_name();
}

Result<std::string> response_value(const Envelope& envelope) {
  if (envelope.is_fault()) {
    return Error{"soap.fault",
                 envelope.fault().fault_code + ": " + envelope.fault().fault_string};
  }
  if (!ends_with(envelope.body().local_name(), "Response")) {
    return Error{"soap.not-a-response", "body payload is not an operation response"};
  }
  const xml::Element* return_element = envelope.body().child("return");
  if (return_element == nullptr) {
    return Error{"soap.missing-return", "response has no return element"};
  }
  return return_element->text();
}

}  // namespace wsx::soap
