#include "wsdl/writer.hpp"

#include "xml/writer.hpp"

namespace wsx::wsdl {
namespace {

class WsdlWriter {
 public:
  WsdlWriter(xml::Emitter& out, const Definitions& definitions, const WsdlWriteOptions& options)
      : out_(out), defs_(definitions), options_(options) {
    lexical_.reserve(64);
  }

  void write() {
    out_.start(options_.wsdl_prefix, "definitions");
    // A parsed model's extra_namespaces repeat the writer's own prefixes;
    // those replace the declarations in place rather than repeat them.
    xml::AttributeList root;
    root.declare_namespace(options_.wsdl_prefix, xml::ns::kWsdl);
    root.declare_namespace(options_.soap_prefix, xml::ns::kWsdlSoap);
    root.declare_namespace(options_.schema_prefix, xml::ns::kXsd);
    root.declare_namespace(options_.target_prefix, defs_.target_namespace);
    for (const auto& [prefix, uri] : defs_.extra_namespaces) root.declare_namespace(prefix, uri);
    if (!defs_.name.empty()) root.set("name", defs_.name);
    root.set("targetNamespace", defs_.target_namespace);
    root.write(out_);

    if (!defs_.documentation.empty()) {
      wsdl("documentation");
      out_.text(defs_.documentation);
      out_.end();
    }
    for (const WsdlImport& import : defs_.imports) {
      wsdl("import");
      out_.attr("namespace", import.namespace_uri);
      if (!import.location.empty()) out_.attr("location", import.location);
      out_.end();
    }
    for (const xml::Element& extension : defs_.extension_elements) out_.element(extension);
    if (!defs_.schemas.empty()) {
      wsdl("types");
      xsd::SchemaWriteOptions schema_options;
      schema_options.schema_prefix = options_.schema_prefix;
      schema_options.target_prefix = options_.target_prefix;
      for (const xsd::Schema& schema : defs_.schemas) xsd::write(out_, schema, schema_options);
      out_.end();
    }
    for (const Message& message : defs_.messages) write_message(message);
    for (const PortType& port_type : defs_.port_types) write_port_type(port_type);
    for (const Binding& binding : defs_.bindings) write_binding(binding);
    for (const Service& service : defs_.services) write_service(service);
    out_.end();
  }

 private:
  void wsdl(std::string_view local) { out_.start(options_.wsdl_prefix, local); }
  void soap(std::string_view local) { out_.start(options_.soap_prefix, local); }

  /// Writes `name="value"` for a QName using the writer's prefix
  /// conventions.
  void qname_attr(std::string_view attr, const xml::QName& name) {
    lexical_.clear();
    if (name.namespace_uri() == defs_.target_namespace) {
      lexical_.append(options_.target_prefix).append(":").append(name.local_name());
    } else if (name.namespace_uri() == xml::ns::kXsd) {
      lexical_.append(options_.schema_prefix).append(":").append(name.local_name());
    } else if (name.prefix().empty()) {
      lexical_.append(name.local_name());
    } else {
      lexical_.append(name.prefix()).append(":").append(name.local_name());
    }
    out_.attr(attr, lexical_);
  }

  /// Writes `message="tns:name"`: messages live in the target namespace.
  void message_attr(std::string_view message) {
    lexical_.clear();
    lexical_.append(options_.target_prefix).append(":").append(message);
    out_.attr("message", lexical_);
  }

  void write_message(const Message& message) {
    wsdl("message");
    out_.attr("name", message.name);
    for (const Part& part : message.parts) {
      wsdl("part");
      out_.attr("name", part.name);
      if (!part.element.empty()) qname_attr("element", part.element);
      if (!part.type.empty()) qname_attr("type", part.type);
      out_.end();
    }
    out_.end();
  }

  void write_port_type(const PortType& port_type) {
    wsdl("portType");
    out_.attr("name", port_type.name);
    for (const Operation& operation : port_type.operations) {
      wsdl("operation");
      out_.attr("name", operation.name);
      if (!operation.input_message.empty()) {
        wsdl("input");
        message_attr(operation.input_message);
        out_.end();
      }
      if (!operation.output_message.empty()) {
        wsdl("output");
        message_attr(operation.output_message);
        out_.end();
      }
      for (const FaultRef& fault : operation.faults) {
        wsdl("fault");
        out_.attr("name", fault.name);
        message_attr(fault.message);
        out_.end();
      }
      out_.end();
    }
    out_.end();
  }

  void write_binding(const Binding& binding) {
    wsdl("binding");
    out_.attr("name", binding.name);
    qname_attr("type", binding.port_type);
    soap("binding");
    out_.attr("transport", binding.transport);
    out_.attr("style", to_string(binding.style));
    out_.end();
    for (const BindingOperation& operation : binding.operations) {
      wsdl("operation");
      out_.attr("name", operation.name);
      soap("operation");
      if (operation.has_soap_action) out_.attr("soapAction", operation.soap_action);
      out_.end();
      for (const auto& [direction, use] :
           {std::pair{"input", operation.input_use}, std::pair{"output", operation.output_use}}) {
        wsdl(direction);
        soap("body");
        out_.attr("use", to_string(use));
        out_.end();
        out_.end();
      }
      for (const std::string& fault_name : operation.fault_names) {
        wsdl("fault");
        out_.attr("name", fault_name);
        soap("fault");
        out_.attr("name", fault_name);
        out_.attr("use", "literal");
        out_.end();
        out_.end();
      }
      out_.end();
    }
    out_.end();
  }

  void write_service(const Service& service) {
    wsdl("service");
    out_.attr("name", service.name);
    for (const Port& port : service.ports) {
      wsdl("port");
      out_.attr("name", port.name);
      qname_attr("binding", port.binding);
      soap("address");
      out_.attr("location", port.location);
      out_.end();
      out_.end();
    }
    out_.end();
  }

  xml::Emitter& out_;
  const Definitions& defs_;
  const WsdlWriteOptions& options_;
  std::string lexical_;  ///< reused for QName attribute values
};

}  // namespace

std::string to_string(const Definitions& definitions, const WsdlWriteOptions& options) {
  xml::Emitter out;
  out.declaration();
  WsdlWriter{out, definitions, options}.write();
  return out.take();
}

}  // namespace wsx::wsdl
