#include "frameworks/features.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace wsx::frameworks {
namespace {

bool is_xsd_ns(const xml::QName& name) { return name.namespace_uri() == xml::ns::kXsd; }

/// Recursive schema-shape analysis for one complexType content model.
void scan_complex_type(const xsd::ComplexType& type, const std::string& target_namespace,
                       const std::string& declared_name, std::size_t depth,
                       WsdlFeatures& features) {
  std::size_t schema_refs_here = 0;
  for (auto it = type.particles.begin(); it != type.particles.end(); ++it) {
    const auto* element = std::get_if<xsd::ElementDecl>(&*it);
    if (element == nullptr) continue;
    if (element->is_ref() && is_xsd_ns(element->ref) &&
        element->ref.local_name() == "schema") {
      features.schema_element_ref = true;
      ++schema_refs_here;
      if (depth > 0) features.schema_element_ref_nested = true;
      if (element->max_occurs == xsd::kUnbounded) features.schema_element_ref_array = true;
    }
    if (!element->type.empty() && element->inline_type.has_value()) {
      features.dual_type_declaration = true;
    }
    if (!element->type.empty() && element->type.namespace_uri() == target_namespace &&
        element->type.local_name() == declared_name) {
      features.self_recursive_type = true;
    }
    if (!element->type.empty() && is_xsd_ns(element->type) &&
        element->type.local_name() == "anyType" && element->max_occurs == xsd::kUnbounded) {
      features.anytype_unbounded_element = true;
    }
    for (auto sibling = type.particles.begin(); sibling != it; ++sibling) {
      const auto* earlier = std::get_if<xsd::ElementDecl>(&*sibling);
      if (earlier != nullptr && earlier->name != element->name &&
          iequals(earlier->name, element->name)) {
        features.case_colliding_elements = true;
      }
    }
    if (element->inline_type.has_value()) {
      scan_complex_type(*element->inline_type, target_namespace, declared_name, depth + 1,
                        features);
    }
  }
  if (schema_refs_here >= 2) features.schema_element_ref_duplicated = true;

  // A particle is an element or a wildcard, so all-wildcard content is
  // content without elements.
  const std::size_t wildcards = type.any_count();
  features.max_wildcards_per_type = std::max(features.max_wildcards_per_type, wildcards);
  if (wildcards > 0 && wildcards == type.particles.size()) features.wildcard_only_content = true;
}

}  // namespace

WsdlFeatures analyze(const wsdl::Definitions& defs) {
  WsdlFeatures features;

  const xsd::ResolutionReport resolution = xsd::resolve(defs.schemas);
  for (const xsd::UnresolvedRef& ref : resolution.unresolved) {
    switch (ref.kind) {
      case xsd::RefKind::kTypeRef:
        if (!is_xsd_ns(ref.target)) features.unresolved_foreign_type_ref = true;
        break;
      case xsd::RefKind::kElementRef:
        // xsd-namespace element refs are classified structurally below; a
        // dangling ref into any other namespace counts as foreign.
        if (!is_xsd_ns(ref.target)) features.unresolved_foreign_type_ref = true;
        break;
      case xsd::RefKind::kAttributeRef:
        if (is_xsd_ns(ref.target)) {
          features.xsd_attr_ref = true;  // the "s:lang" idiom
        } else {
          features.unresolved_foreign_attr_ref = true;
        }
        break;
      case xsd::RefKind::kAttributeGroupRef:
        features.unresolved_attr_group = true;
        break;
    }
  }

  for (const xsd::Schema& schema : defs.schemas) {
    for (const xsd::ComplexType& type : schema.complex_types) {
      scan_complex_type(type, schema.target_namespace, type.name, 0, features);
      features.max_inline_depth = std::max(features.max_inline_depth, type.nesting_depth());
    }
    for (const xsd::ElementDecl& element : schema.elements) {
      if (!element.type.empty() && element.inline_type.has_value()) {
        features.dual_type_declaration = true;
      }
      if (element.inline_type.has_value()) {
        scan_complex_type(*element.inline_type, schema.target_namespace, element.name, 1,
                          features);
      }
    }
    if (!schema.simple_types.empty()) {
      features.has_enumeration = std::any_of(
          schema.simple_types.begin(), schema.simple_types.end(),
          [](const xsd::SimpleTypeDecl& type) { return !type.enumeration.empty(); });
    }
  }

  features.zero_operations = defs.operation_count() == 0;
  for (const wsdl::Binding& binding : defs.bindings) {
    for (const wsdl::BindingOperation& operation : binding.operations) {
      if (operation.input_use == wsdl::SoapUse::kEncoded ||
          operation.output_use == wsdl::SoapUse::kEncoded) {
        features.encoded_use = true;
      }
      if (!operation.has_soap_action) features.missing_soap_action = true;
    }
  }
  features.unknown_extension_elements = !defs.extension_elements.empty();
  features.missing_target_namespace = defs.target_namespace.empty();
  for (const wsdl::WsdlImport& import : defs.imports) {
    if (import.location.empty()) features.unresolvable_wsdl_import = true;
  }

  for (const wsdl::PortType& port_type : defs.port_types) {
    for (std::size_t i = 0; i < port_type.operations.size(); ++i) {
      const wsdl::Operation& operation = port_type.operations[i];
      const auto check_reference = [&](const std::string& message_name) {
        if (!message_name.empty() && defs.find_message(message_name) == nullptr) {
          features.dangling_message_reference = true;
        }
      };
      check_reference(operation.input_message);
      check_reference(operation.output_message);
      for (const wsdl::FaultRef& fault : operation.faults) check_reference(fault.message);
      for (std::size_t j = i + 1; j < port_type.operations.size(); ++j) {
        if (operation.name == port_type.operations[j].name) {
          features.duplicate_operations = true;
        }
      }
    }
  }
  for (const wsdl::Message& message : defs.messages) {
    for (const wsdl::Part& part : message.parts) {
      if (part.element.empty()) continue;
      bool declared = false;
      for (const xsd::Schema& schema : defs.schemas) {
        if (schema.target_namespace == part.element.namespace_uri() &&
            schema.find_element(part.element.local_name()) != nullptr) {
          declared = true;
        }
      }
      if (!declared) features.dangling_part_reference = true;
    }
  }
  return features;
}

}  // namespace wsx::frameworks
