// writer.hpp — serializes a Schema model as an xs:schema element.
#pragma once

#include <string>

#include "xml/node.hpp"
#include "xml/writer.hpp"
#include "xsd/model.hpp"

namespace wsx::xsd {

struct SchemaWriteOptions {
  /// Prefix bound to the XML Schema namespace. Java stacks emit "xs"/"xsd";
  /// WCF emits "s" — which is where the paper's infamous "s:schema" and
  /// "s:lang" references come from.
  std::string schema_prefix = "xs";
  /// Prefix bound to the schema's target namespace.
  std::string target_prefix = "tns";
};

/// Writes the <xs:schema> element (with namespace declarations) for
/// `schema` at the emitter's current position.
void write(xml::Emitter& out, const Schema& schema, const SchemaWriteOptions& options = {});

/// The schema as a standalone document.
std::string to_string(const Schema& schema, const SchemaWriteOptions& options = {});

/// The schema element as a DOM tree: the parse of to_string().
xml::Element to_xml(const Schema& schema, const SchemaWriteOptions& options = {});

}  // namespace wsx::xsd
