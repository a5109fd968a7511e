#include "frameworks/wsdl_builder.hpp"

#include <cassert>

#include "xml/qname.hpp"

namespace wsx::frameworks {
namespace {

using catalog::Trait;

/// Builds the schema complexType for the service's parameter type,
/// applying the server-specific serialization quirks.
xsd::ComplexType build_parameter_type(const catalog::TypeInfo& type,
                                      const WsdlBuilderOptions& options,
                                      const std::string& target_namespace,
                                      xsd::Schema& schema) {
  xsd::ComplexType complex_type;
  complex_type.name = type.name;

  if (options.dataset_idiom && type.has(Trait::kDataSetSchema)) {
    // The DataSet idiom: <xs:element ref="s:schema"/><xs:any/> plus an
    // xml-space language attribute referenced through the schema prefix —
    // the unresolvable "s:schema" / "s:lang" references the paper reports.
    xsd::ElementDecl schema_ref;
    schema_ref.ref = xml::QName{std::string(xml::ns::kXsd), "schema", "s"};
    if (type.has(Trait::kDataSetArray)) schema_ref.max_occurs = xsd::kUnbounded;
    if (type.has(Trait::kDataSetNested)) {
      // The ref hides inside a nested anonymous type.
      xsd::ComplexType inner;
      inner.particles.emplace_back(schema_ref);
      inner.particles.emplace_back(xsd::AnyParticle{});
      xsd::ElementDecl holder;
      holder.name = "diffgram";
      holder.inline_type = Box<xsd::ComplexType>{std::move(inner)};
      complex_type.particles.emplace_back(std::move(holder));
    } else {
      complex_type.particles.emplace_back(schema_ref);
      if (type.has(Trait::kDataSetDuplicated)) {
        // A second schema ref in the same content model; gSOAP's two-stage
        // pipeline emits a duplicate typedef for it and rejects its own
        // header.
        complex_type.particles.emplace_back(schema_ref);
      }
      complex_type.particles.emplace_back(xsd::AnyParticle{});
    }
    xsd::AttributeDecl lang;
    lang.ref = xml::QName{std::string(xml::ns::kXsd), "lang", "s"};
    complex_type.attributes.push_back(std::move(lang));
    return complex_type;
  }

  if (type.has(Trait::kWildcardContent)) {
    // DataTable family: the content model is nothing but wildcards.
    complex_type.particles.emplace_back(xsd::AnyParticle{});
    if (type.has(Trait::kDoubleWildcard)) {
      complex_type.particles.emplace_back(xsd::AnyParticle{});
    }
    return complex_type;
  }

  if (type.has(Trait::kGeneratorCrash)) {
    // Self-recursive content — the shape the JScript artifact generator
    // crashes on.
    xsd::ElementDecl next;
    next.name = "next";
    next.type = xml::QName{target_namespace, type.name};
    next.min_occurs = 0;
    complex_type.particles.emplace_back(std::move(next));
    return complex_type;
  }

  if (type.has(Trait::kDeepNesting)) {
    const std::size_t depth = type.has(Trait::kCompilerPathological)
                                  ? catalog::kPathologicalNestingDepth
                                  : catalog::kDeepNestingDepth;
    // element row { element row { ... { element cell : string } } }
    xsd::ComplexType leaf;
    xsd::ElementDecl cell;
    cell.name = "cell";
    cell.type = xsd::qname(xsd::Builtin::kString);
    leaf.particles.emplace_back(std::move(cell));
    xsd::ComplexType current = std::move(leaf);
    for (std::size_t level = 1; level < depth; ++level) {
      xsd::ComplexType outer;
      xsd::ElementDecl row;
      row.name = "row" + std::to_string(depth - level);
      row.inline_type = Box<xsd::ComplexType>{std::move(current)};
      outer.particles.emplace_back(std::move(row));
      current = std::move(outer);
    }
    complex_type.particles = std::move(current.particles);
    return complex_type;
  }

  // Exception/Error beans derive from the platform's Throwable mapping
  // (declared once per schema, below in build_echo_wsdl).
  if (type.has(Trait::kThrowableDerived)) {
    complex_type.base = xml::QName{target_namespace, "Throwable"};
  }

  // Regular bean: one element per field.
  for (const catalog::FieldSpec& field : type.fields) {
    xsd::ElementDecl element;
    element.name = field.name;
    element.type = xsd::qname(field.type);
    if (field.is_array) {
      element.min_occurs = 0;
      element.max_occurs = xsd::kUnbounded;
    }
    complex_type.particles.emplace_back(std::move(element));
  }

  // Quirk overlays driven by the server's serialization style.
  if (type.has(Trait::kWsaEndpointReference)) {
    if (options.wsa_style == WsdlBuilderOptions::WsaStyle::kForeignTypeRef) {
      // Replace the address field's type with a reference into the WSA
      // namespace, which the definitions element declares but nothing
      // imports — the unresolved type reference that fails R2102.
      for (xsd::Particle& particle : complex_type.particles) {
        if (auto* element = std::get_if<xsd::ElementDecl>(&particle)) {
          if (element->name == "address") {
            element->type =
                xml::QName{std::string(xml::ns::kWsAddressing), "EndpointReferenceType", "wsa"};
          }
        }
      }
    } else if (options.wsa_style == WsdlBuilderOptions::WsaStyle::kForeignAttrRef) {
      xsd::AttributeDecl attr;
      attr.ref =
          xml::QName{std::string(xml::ns::kWsAddressing), "IsReferenceParameter", "wsa"};
      complex_type.attributes.push_back(std::move(attr));
    }
  }
  if (type.has(Trait::kLegacyDateFormat)) {
    if (options.date_format_style == WsdlBuilderOptions::DateFormatStyle::kUnresolvedAttrGroup) {
      complex_type.attribute_groups.push_back(
          {xml::QName{std::string(xml::ns::kXmlNs), "specialAttrs", "xml"}});
      // Import of the xml namespace *without* a schemaLocation — the JAXB
      // idiom that leaves the group reference dangling.
      schema.imports.push_back({std::string(xml::ns::kXmlNs), ""});
    } else if (options.date_format_style ==
               WsdlBuilderOptions::DateFormatStyle::kDualTypeDeclaration) {
      for (xsd::Particle& particle : complex_type.particles) {
        if (auto* element = std::get_if<xsd::ElementDecl>(&particle)) {
          if (element->name == "pattern") {
            // type= stays set AND an inline anonymous type appears —
            // invalid XML Schema that still gets published.
            xsd::ComplexType bogus;
            xsd::ElementDecl raw;
            raw.name = "rawPattern";
            raw.type = xsd::qname(xsd::Builtin::kString);
            bogus.particles.emplace_back(std::move(raw));
            element->inline_type = Box<xsd::ComplexType>{std::move(bogus)};
          }
        }
      }
    }
  }
  return complex_type;
}

}  // namespace

wsdl::Definitions build_echo_wsdl(const ServiceSpec& spec, const WsdlBuilderOptions& options) {
  assert(spec.type != nullptr);
  const catalog::TypeInfo& type = *spec.type;

  wsdl::Definitions defs;
  defs.name = spec.service_name();
  defs.target_namespace = options.namespace_root + type.name + "/";

  const bool zero_operations =
      options.async_yields_zero_operations && type.has(Trait::kAsyncApi);

  // --- Types section. ---
  xsd::Schema schema;
  schema.target_namespace = defs.target_namespace;
  xml::QName parameter_type_name;
  if (type.has(Trait::kEnumType)) {
    xsd::SimpleTypeDecl enum_type;
    enum_type.name = type.name;
    enum_type.base = xsd::qname(xsd::Builtin::kString);
    enum_type.enumeration = type.enum_values;
    schema.simple_types.push_back(std::move(enum_type));
    parameter_type_name = xml::QName{defs.target_namespace, type.name};
  } else if (!zero_operations) {
    if (type.has(Trait::kThrowableDerived)) {
      // The base type every Exception/Error bean extends.
      xsd::ComplexType throwable;
      throwable.name = "Throwable";
      xsd::ElementDecl stack_trace;
      stack_trace.name = "stackTrace";
      stack_trace.type = xsd::qname(xsd::Builtin::kString);
      stack_trace.min_occurs = 0;
      stack_trace.max_occurs = xsd::kUnbounded;
      throwable.particles.emplace_back(std::move(stack_trace));
      schema.complex_types.push_back(std::move(throwable));
    }
    schema.complex_types.push_back(
        build_parameter_type(type, options, defs.target_namespace, schema));
    parameter_type_name = xml::QName{defs.target_namespace, type.name};
  }

  const bool declare_fault =
      options.declare_faults_for_throwables && type.has(Trait::kThrowableDerived);
  if (declare_fault) {
    // JAX-WS maps the exception type to a fault element of the bean type.
    xsd::ElementDecl fault_element;
    fault_element.name = type.name;
    fault_element.type = parameter_type_name;
    schema.elements.push_back(std::move(fault_element));
  }

  // Operation descriptors for the service's shape. The simple shape is the
  // paper's echo; the CRUD shape implements its future-work complexity:
  // store(T)→string id, fetch(string)→T, list()→T[].
  struct OperationDesc {
    std::string name;
    xml::QName arg_type;     ///< empty = no argument
    xml::QName return_type;  ///< empty = no return element
    bool return_array = false;
  };
  std::vector<OperationDesc> operations;
  if (!zero_operations) {
    const xml::QName string_type = xsd::qname(xsd::Builtin::kString);
    if (spec.shape == ServiceShape::kSimpleEcho) {
      operations.push_back(
          {ServiceSpec::operation_name(), parameter_type_name, parameter_type_name, false});
    } else {
      operations.push_back({"store", parameter_type_name, string_type, false});
      operations.push_back({"fetch", string_type, parameter_type_name, false});
      operations.push_back({"list", {}, parameter_type_name, true});
    }
  }

  const bool rpc_style = options.binding_style == wsdl::SoapStyle::kRpc;
  for (const OperationDesc& op : operations) {
    if (rpc_style) break;  // rpc/literal uses type= parts, not wrappers
    // Wrapper elements for document/literal wrapped operations.
    xsd::ElementDecl request_wrapper;
    request_wrapper.name = op.name;
    {
      xsd::ComplexType wrapper_type;
      if (!op.arg_type.empty()) {
        xsd::ElementDecl arg;
        arg.name = "arg0";
        arg.type = op.arg_type;
        wrapper_type.particles.emplace_back(std::move(arg));
      }
      request_wrapper.inline_type = Box<xsd::ComplexType>{std::move(wrapper_type)};
    }
    schema.elements.push_back(std::move(request_wrapper));

    xsd::ElementDecl response_wrapper;
    response_wrapper.name = op.name + "Response";
    {
      xsd::ComplexType wrapper_type;
      if (!op.return_type.empty()) {
        xsd::ElementDecl ret;
        ret.name = "return";
        ret.type = op.return_type;
        if (op.return_array) {
          ret.min_occurs = 0;
          ret.max_occurs = xsd::kUnbounded;
        }
        wrapper_type.particles.emplace_back(std::move(ret));
      }
      response_wrapper.inline_type = Box<xsd::ComplexType>{std::move(wrapper_type)};
    }
    schema.elements.push_back(std::move(response_wrapper));
  }
  defs.schemas.push_back(std::move(schema));

  // Namespace declarations the stack puts on wsdl:definitions. Declaring
  // WSA here (without importing a schema for it) is what makes the
  // W3CEndpointReference references *parse* but not *resolve*.
  if (type.has(Trait::kWsaEndpointReference) &&
      options.wsa_style != WsdlBuilderOptions::WsaStyle::kNone) {
    defs.extra_namespaces.emplace_back("wsa", std::string(xml::ns::kWsAddressing));
  }

  if (options.attach_jaxws_extension) {
    xml::Element extension{"jaxws:bindings"};
    extension.declare_namespace("jaxws", "http://java.sun.com/xml/ns/jaxws");
    extension.set_attribute("version", "2.0");
    defs.extension_elements.push_back(std::move(extension));
  }

  // --- Messages, portType, binding, service. ---
  const std::string port_type_name = spec.service_name();
  // The fault (when declared) attaches to the first operation — echo for
  // the simple shape, store for CRUD.
  const std::string fault_operation = operations.empty() ? "" : operations.front().name;
  for (const OperationDesc& op : operations) {
    wsdl::Message input;
    input.name = op.name;
    if (rpc_style) {
      if (!op.arg_type.empty()) input.parts.push_back({"arg0", {}, op.arg_type});
    } else {
      input.parts.push_back({"parameters", xml::QName{defs.target_namespace, op.name}, {}});
    }
    defs.messages.push_back(std::move(input));

    wsdl::Message output;
    output.name = op.name + "Response";
    if (rpc_style) {
      if (!op.return_type.empty()) output.parts.push_back({"return", {}, op.return_type});
    } else {
      output.parts.push_back(
          {"parameters", xml::QName{defs.target_namespace, op.name + "Response"}, {}});
    }
    defs.messages.push_back(std::move(output));

    if (declare_fault && op.name == fault_operation) {
      wsdl::Message fault_message;
      fault_message.name = op.name + "Fault";
      fault_message.parts.push_back(
          {"fault", xml::QName{defs.target_namespace, type.name}, {}});
      defs.messages.push_back(std::move(fault_message));
    }
  }

  wsdl::PortType port_type;
  port_type.name = port_type_name;
  for (const OperationDesc& op : operations) {
    wsdl::Operation operation{op.name, op.name, op.name + "Response", {}};
    if (declare_fault && op.name == fault_operation) {
      operation.faults.push_back({type.name + "Fault", op.name + "Fault"});
    }
    port_type.operations.push_back(std::move(operation));
  }
  defs.port_types.push_back(std::move(port_type));

  wsdl::Binding binding;
  binding.name = port_type_name + "Binding";
  binding.port_type = xml::QName{defs.target_namespace, port_type_name};
  binding.style = options.binding_style;
  for (const OperationDesc& op : operations) {
    wsdl::BindingOperation operation;
    operation.name = op.name;
    operation.soap_action = "";
    operation.has_soap_action = !type.has(Trait::kMissingSoapAction);
    if (type.has(Trait::kSoapEncodedBinding)) {
      operation.input_use = wsdl::SoapUse::kEncoded;
      operation.output_use = wsdl::SoapUse::kEncoded;
    }
    if (declare_fault && op.name == fault_operation) {
      operation.fault_names.push_back(type.name + "Fault");
    }
    binding.operations.push_back(std::move(operation));
  }
  defs.bindings.push_back(std::move(binding));

  wsdl::Service service;
  service.name = spec.service_name() + "Service";
  service.ports.push_back({port_type_name + "Port",
                           xml::QName{defs.target_namespace, port_type_name + "Binding"},
                           options.endpoint_root + type.name});
  defs.services.push_back(std::move(service));

  return defs;
}

}  // namespace wsx::frameworks
