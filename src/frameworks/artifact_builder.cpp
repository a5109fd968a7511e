#include "frameworks/artifact_builder.hpp"

#include <algorithm>

#include "catalog/type_info.hpp"
#include "common/strings.hpp"

namespace wsx::frameworks {
namespace {

bool looks_like_throwable(const xsd::ComplexType& type) {
  // What the Axis1 wrapper generator keys on: an Exception/Error-style
  // type exposing a "message" property.
  const bool named_like =
      ends_with(type.name, "Exception") || ends_with(type.name, "Error");
  const auto elements = type.elements();
  const bool has_message =
      std::any_of(elements.begin(), elements.end(),
                  [](const xsd::ElementDecl* e) { return e->name == "message"; });
  return named_like && has_message;
}

code::Class build_type_class(const xsd::ComplexType& type, const ArtifactBuildOptions& options,
                             const WsdlFeatures& features) {
  code::Class cls;
  cls.name = type.name;
  if (type.is_derived()) cls.base = type.base.local_name();

  code::Method describe;
  describe.name = "describe";
  describe.return_type = "string";

  const bool throwable_defect = options.throwable_wrapper_defect && looks_like_throwable(type);

  bool ref_member_emitted = false;
  for (const xsd::ElementDecl* element : type.elements()) {
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
    cls.fields.push_back({field_name, element->type.local_name(), false});
    describe.referenced_symbols.push_back(referenced);
  }

  if (options.wildcard_member_per_any) {
    // One "extraElement" member per wildcard; a double wildcard duplicates
    // the member.
    for (std::size_t i = 0; i < type.any_count(); ++i) {
      cls.fields.push_back({"extraElement", "anyType", false});
    }
  } else if (type.any_count() > 0) {
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

  code::CompilationUnit types_unit;
  types_unit.name = "types";
  for (const xsd::Schema& schema : defs.schemas) {
    for (const xsd::ComplexType& type : schema.complex_types) {
      types_unit.classes.push_back(build_type_class(type, options, features));
      if (options.pathological_marker_on_very_deep &&
          type.nesting_depth() >= catalog::kPathologicalNestingDepth) {
        types_unit.pathological = true;
      }
    }
    if (options.enum_wrapper_defect) {
      for (const xsd::SimpleTypeDecl& simple : schema.simple_types) {
        if (simple.enumeration.empty()) continue;
        code::Class wrapper;
        wrapper.name = simple.name;
        // The defect: the backing member is declared twice.
        wrapper.fields.push_back({"value", "string", false});
        wrapper.fields.push_back({"value", "string", false});
        types_unit.classes.push_back(std::move(wrapper));
      }
    } else {
      for (const xsd::SimpleTypeDecl& simple : schema.simple_types) {
        if (simple.enumeration.empty()) continue;
        code::Class wrapper;
        wrapper.name = simple.name;
        wrapper.fields.push_back({"value", "string", false});
        types_unit.classes.push_back(std::move(wrapper));
      }
    }
  }

  code::CompilationUnit proxy_unit;
  proxy_unit.name = "proxy";
  code::Class proxy;
  const std::string service_name =
      defs.services.empty() ? defs.name : defs.services.front().name;
  proxy.name = service_name.empty() ? "ServiceProxy" : service_name + "Proxy";
  if (options.raw_collection_stubs) {
    code::Field cache;
    cache.name = "responseCache";
    cache.type = "java.util.ArrayList";
    cache.raw_collection = true;
    proxy.fields.push_back(std::move(cache));
  }
  for (const wsdl::PortType& port_type : defs.port_types) {
    for (const wsdl::Operation& operation : port_type.operations) {
      code::Method method;
      method.name = operation.name;
      method.return_type = "string";
      method.params.push_back({"arg0", "string"});
      method.referenced_symbols.push_back("arg0");
      proxy.methods.push_back(std::move(method));
      artifacts.client_operations.push_back(operation.name);
      // Checked-exception wrapper per declared fault.
      for (const wsdl::FaultRef& fault : operation.faults) {
        code::Class wrapper;
        wrapper.name = fault.name;
        wrapper.fields.push_back({"faultInfo", "object", false});
        code::Method accessor;
        accessor.name = "getFaultInfo";
        accessor.return_type = "object";
        accessor.referenced_symbols.push_back("faultInfo");
        wrapper.methods.push_back(std::move(accessor));
        proxy_unit.classes.push_back(std::move(wrapper));
      }
    }
  }
  proxy_unit.classes.push_back(std::move(proxy));

  artifacts.units.push_back(std::move(types_unit));
  artifacts.units.push_back(std::move(proxy_unit));
  return artifacts;
}

}  // namespace wsx::frameworks
