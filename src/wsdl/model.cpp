#include "wsdl/model.hpp"

namespace wsx::wsdl {

const char* to_string(SoapStyle style) {
  return style == SoapStyle::kDocument ? "document" : "rpc";
}

const char* to_string(SoapUse use) { return use == SoapUse::kLiteral ? "literal" : "encoded"; }

const Message* Definitions::find_message(std::string_view name) const {
  for (const Message& message : messages) {
    if (message.name == name) return &message;
  }
  return nullptr;
}

const PortType* Definitions::find_port_type(std::string_view name) const {
  for (const PortType& port_type : port_types) {
    if (port_type.name == name) return &port_type;
  }
  return nullptr;
}

const Binding* Definitions::find_binding(std::string_view name) const {
  for (const Binding& binding : bindings) {
    if (binding.name == name) return &binding;
  }
  return nullptr;
}

const Operation* Definitions::find_operation(std::string_view name) const {
  for (const PortType& port_type : port_types) {
    for (const Operation& operation : port_type.operations) {
      if (operation.name == name) return &operation;
    }
  }
  return nullptr;
}

SourceLocation Definitions::locate(std::string_view key) const {
  if (const auto it = source_locations.find(key); it != source_locations.end()) {
    return it->second;
  }
  if (const auto it = source_locations.find("definitions:"); it != source_locations.end()) {
    return it->second;
  }
  return {};
}

std::size_t Definitions::operation_count() const {
  std::size_t count = 0;
  for (const PortType& port_type : port_types) count += port_type.operations.size();
  return count;
}

}  // namespace wsx::wsdl
