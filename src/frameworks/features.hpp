// features.hpp — feature extraction over a parsed service description.
//
// Client artifact generators differ in which description features they
// tolerate; this analysis gives every client model the same factual view
// of the WSDL so that their policies — not ad-hoc string matching — decide
// the outcome.
#pragma once

#include <cstddef>
#include <string_view>

#include "wsdl/model.hpp"
#include "xsd/resolver.hpp"

namespace wsx::frameworks {

struct WsdlFeatures {
  // Reference resolution, categorized by what the tools key on.
  bool unresolved_foreign_type_ref = false;   ///< type= into an unimported namespace
  bool unresolved_foreign_attr_ref = false;   ///< attribute ref= into an unimported namespace
  bool unresolved_attr_group = false;         ///< dangling attributeGroup ref
  bool schema_element_ref = false;            ///< element ref= into the XSD namespace (s:schema)
  bool schema_element_ref_nested = false;     ///< ...inside a nested anonymous type
  bool schema_element_ref_duplicated = false; ///< ...appearing twice in one content model
  bool schema_element_ref_array = false;      ///< ...with maxOccurs="unbounded"
  bool xsd_attr_ref = false;                  ///< attribute ref= into the XSD namespace (s:lang)

  // Structural schema features.
  bool dual_type_declaration = false;   ///< element with type= and inline type
  bool wildcard_only_content = false;   ///< a complexType whose particles are all xs:any
  std::size_t max_wildcards_per_type = 0;
  std::size_t max_inline_depth = 0;     ///< deepest anonymous-type nesting
  bool self_recursive_type = false;     ///< complexType referencing itself
  bool anytype_unbounded_element = false;  ///< element of xsd:anyType, maxOccurs unbounded
  bool has_enumeration = false;         ///< schema declares an enum simpleType
  bool case_colliding_elements = false; ///< two sibling elements differing only in case

  // Description-level features.
  bool zero_operations = false;
  bool encoded_use = false;
  bool missing_soap_action = false;
  bool unknown_extension_elements = false;  ///< e.g. the JAX-WS customization stanza
  bool missing_target_namespace = false;
  bool dangling_message_reference = false;  ///< operation references a missing message
  bool dangling_part_reference = false;     ///< part element= has no schema declaration
  bool duplicate_operations = false;        ///< same operation name twice in a portType
  bool unresolvable_wsdl_import = false;    ///< wsdl:import without a location
};

/// The mechanism id the static predictor reports a client tool's rule
/// under, one per flag a FeatureRule names (client.hpp).
struct FeatureMechanism {
  bool WsdlFeatures::*flag;
  std::string_view id;
};
inline constexpr FeatureMechanism kFeatureMechanisms[] = {
    {&WsdlFeatures::unresolved_foreign_type_ref, "unresolved-type-ref"},
    {&WsdlFeatures::unresolved_foreign_attr_ref, "unresolved-attr-ref"},
    {&WsdlFeatures::unresolved_attr_group, "unresolved-attr-group"},
    {&WsdlFeatures::schema_element_ref, "schema-element-ref"},
    {&WsdlFeatures::schema_element_ref_nested, "schema-ref-nested"},
    {&WsdlFeatures::schema_element_ref_duplicated, "schema-ref-duplicated"},
    {&WsdlFeatures::schema_element_ref_array, "schema-ref-array"},
    {&WsdlFeatures::xsd_attr_ref, "xsd-attr-ref"},
    {&WsdlFeatures::dual_type_declaration, "dual-type-declaration"},
    {&WsdlFeatures::wildcard_only_content, "wildcard-only-content"},
    {&WsdlFeatures::self_recursive_type, "recursive-type-crash"},
    {&WsdlFeatures::zero_operations, "zero-operations"},
    {&WsdlFeatures::encoded_use, "encoded-use"},
    {&WsdlFeatures::unknown_extension_elements, "unknown-extension"},
    {&WsdlFeatures::missing_target_namespace, "missing-target-namespace"},
    {&WsdlFeatures::dangling_message_reference, "dangling-message-ref"},
    {&WsdlFeatures::dangling_part_reference, "dangling-part-ref"},
    {&WsdlFeatures::duplicate_operations, "duplicate-operations"},
    {&WsdlFeatures::unresolvable_wsdl_import, "unresolvable-import"},
};

/// `flag`'s mechanism id; empty for a flag no rule may name.
constexpr std::string_view mechanism_id(bool WsdlFeatures::*flag) {
  for (const FeatureMechanism& entry : kFeatureMechanisms) {
    if (entry.flag == flag) return entry.id;
  }
  return {};
}

/// Computes all features for `defs`.
WsdlFeatures analyze(const wsdl::Definitions& defs);

}  // namespace wsx::frameworks
