#include "frameworks/artifact_builder.hpp"

#include <algorithm>
#include <string_view>

#include "catalog/type_info.hpp"
#include "common/strings.hpp"

namespace wsx::frameworks {
namespace {

bool looks_like_throwable(const xsd::ComplexType& type) {
  // What the Axis1 wrapper generator keys on: an Exception/Error-style
  // type exposing a "message" property.
  if (!ends_with(type.name, "Exception") && !ends_with(type.name, "Error")) return false;
  return std::any_of(type.particles.begin(), type.particles.end(), [](const xsd::Particle& p) {
    const auto* element = std::get_if<xsd::ElementDecl>(&p);
    return element != nullptr && element->name == "message";
  });
}

code::Class build_type_class(const xsd::ComplexType& type, const ArtifactBuildOptions& options,
                             const WsdlFeatures& features) {
  code::Class cls;
  cls.name = type.name;
  if (type.is_derived()) cls.base = type.base.local_name();

  // Sized up front: one field per element (refs collapse onto one), plus
  // the wildcard members.
  std::size_t elements = 0;
  bool has_ref = false;
  for (const xsd::Particle& particle : type.particles) {
    if (const auto* element = std::get_if<xsd::ElementDecl>(&particle)) {
      if (element->is_ref()) {
        has_ref = true;
      } else {
        ++elements;
      }
    }
  }
  const std::size_t any_count = type.any_count();
  const std::size_t wildcard_members =
      options.wildcard_member_per_any ? any_count : (any_count > 0 ? 1 : 0);
  cls.fields.reserve(elements + (has_ref ? 1 : 0) + wildcard_members);

  code::Method describe;
  describe.name = "describe";
  describe.return_type = "string";
  describe.referenced_symbols.reserve(elements);

  const bool throwable_defect = options.throwable_wrapper_defect && looks_like_throwable(type);

  bool ref_member_emitted = false;
  for (const xsd::Particle& particle : type.particles) {
    const auto* element = std::get_if<xsd::ElementDecl>(&particle);
    if (element == nullptr) continue;
    if (element->is_ref()) {
      // Unresolvable refs that the tool tolerated are mapped to a single
      // opaque member (how the .NET tools and Axis survive the DataSet
      // idiom — repeated refs collapse onto one member).
      if (!ref_member_emitted) {
        cls.fields.push_back({"schemaData", "anyType", false});
        ref_member_emitted = true;
      }
      continue;
    }
    std::string field_name = element->name;
    std::string referenced = element->name;
    if (throwable_defect && element->name == "message") {
      // The defect: the field is renamed, the reference is not.
      field_name = "message1";
    }
    if (options.local_suffix_defect && element->name == "gregorian") {
      // The defect: declared "local_gregorian", referenced without the
      // underscore.
      field_name = "local_gregorian";
      referenced = "localgregorian";
    }
    cls.fields.push_back({std::move(field_name), element->type.local_name(), false});
    describe.referenced_symbols.push_back(std::move(referenced));
  }

  if (options.wildcard_member_per_any) {
    // One "extraElement" member per wildcard; a double wildcard duplicates
    // the member.
    for (std::size_t i = 0; i < any_count; ++i) {
      cls.fields.push_back({"extraElement", "anyType", false});
    }
  } else if (any_count > 0) {
    cls.fields.push_back({"any", "anyType", false});
  }

  if (options.missing_body_on_complex_shapes &&
      (type.nesting_depth() >= catalog::kDeepNestingDepth ||
       features.anytype_unbounded_element)) {
    describe.has_body = false;
  }

  cls.methods.push_back(std::move(describe));
  return cls;
}

}  // namespace

code::Artifacts build_artifacts(const wsdl::Definitions& defs, const WsdlFeatures& features,
                                const ArtifactBuildOptions& options) {
  code::Artifacts artifacts;
  artifacts.language = options.language;

  // Every container is sized up front: a class per complexType and per
  // enumeration, a proxy method per operation, a wrapper per fault.
  std::size_t type_classes = 0;
  for (const xsd::Schema& schema : defs.schemas) {
    type_classes += schema.complex_types.size();
    type_classes += static_cast<std::size_t>(
        std::count_if(schema.simple_types.begin(), schema.simple_types.end(),
                      [](const xsd::SimpleTypeDecl& simple) { return !simple.enumeration.empty(); }));
  }
  std::size_t operations = 0;
  std::size_t faults = 0;
  for (const wsdl::PortType& port_type : defs.port_types) {
    operations += port_type.operations.size();
    for (const wsdl::Operation& operation : port_type.operations) {
      faults += operation.faults.size();
    }
  }

  code::CompilationUnit types_unit;
  types_unit.name = "types";
  types_unit.classes.reserve(type_classes);
  // The Axis2 defect declares the enumeration wrapper's backing member twice.
  const std::size_t value_members = options.enum_wrapper_defect ? 2 : 1;
  for (const xsd::Schema& schema : defs.schemas) {
    for (const xsd::ComplexType& type : schema.complex_types) {
      types_unit.classes.push_back(build_type_class(type, options, features));
      if (options.pathological_marker_on_very_deep &&
          type.nesting_depth() >= catalog::kPathologicalNestingDepth) {
        types_unit.pathological = true;
      }
    }
    for (const xsd::SimpleTypeDecl& simple : schema.simple_types) {
      if (simple.enumeration.empty()) continue;
      code::Class& wrapper = types_unit.classes.emplace_back();
      wrapper.name = simple.name;
      wrapper.fields.assign(value_members, {"value", "string", false});
    }
  }

  code::CompilationUnit proxy_unit;
  proxy_unit.name = "proxy";
  proxy_unit.classes.reserve(faults + 1);
  code::Class proxy;
  const std::string& service_name =
      defs.services.empty() ? defs.name : defs.services.front().name;
  if (service_name.empty()) {
    proxy.name = "ServiceProxy";
  } else {
    constexpr std::string_view kProxySuffix = "Proxy";
    proxy.name.reserve(service_name.size() + kProxySuffix.size());
    proxy.name.append(service_name).append(kProxySuffix);
  }
  if (options.raw_collection_stubs) {
    code::Field cache;
    cache.name = "responseCache";
    cache.type = "java.util.ArrayList";
    cache.raw_collection = true;
    proxy.fields.push_back(std::move(cache));
  }
  proxy.methods.reserve(operations);
  artifacts.client_operations.reserve(operations);
  for (const wsdl::PortType& port_type : defs.port_types) {
    for (const wsdl::Operation& operation : port_type.operations) {
      code::Method& method = proxy.methods.emplace_back();
      method.name = operation.name;
      method.return_type = "string";
      method.params.push_back({"arg0", "string"});
      method.referenced_symbols.push_back("arg0");
      artifacts.client_operations.push_back(operation.name);
      // Checked-exception wrapper per declared fault.
      for (const wsdl::FaultRef& fault : operation.faults) {
        code::Class& wrapper = proxy_unit.classes.emplace_back();
        wrapper.name = fault.name;
        wrapper.fields.push_back({"faultInfo", "object", false});
        code::Method& accessor = wrapper.methods.emplace_back();
        accessor.name = "getFaultInfo";
        accessor.return_type = "object";
        accessor.referenced_symbols.push_back("faultInfo");
      }
    }
  }
  proxy_unit.classes.push_back(std::move(proxy));

  artifacts.units.reserve(2);
  artifacts.units.push_back(std::move(types_unit));
  artifacts.units.push_back(std::move(proxy_unit));
  return artifacts;
}

}  // namespace wsx::frameworks
