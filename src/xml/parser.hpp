// parser.hpp — the DOM front-end over the pull tokenizer.
//
// Supports the subset of XML used by WSDL/XSD/SOAP documents: elements,
// attributes, character data, CDATA sections, comments, processing
// instructions (skipped), an XML declaration and DOCTYPE (both skipped),
// the five built-in entities, and decimal/hex character references.
// Entities a DTD would declare are unknown entities (real WS stacks refuse
// DTD processing for security reasons).
#pragma once

#include <string_view>

#include "common/result.hpp"
#include "xml/node.hpp"
#include "xml/pull.hpp"

namespace wsx::xml {

/// Parses a complete document and returns its root element, every element
/// stamped with its source position. Error codes use the "xml." prefix and
/// include 1-based line/column positions in the message.
Result<Element> parse_element(std::string_view input);

/// Whether a built tree's elements carry their source positions
/// (Element::source_line/source_column). Each position costs a scan of the
/// newlines before it, so readers that never report one omit them.
enum class Positions : bool { kOmit, kRecord };

/// Materialises the element whose kStartElement token was just returned by
/// `tok` into a DOM subtree, consuming the stream through its matching end
/// tag. Construction rules are the same wherever a tree is built — comments
/// kept, whitespace-only text dropped unless it is an element's only
/// content — so streaming consumers that need a tree for one subtree (a
/// SOAP body payload, a header entry) get exactly what parse_element builds,
/// positions included when they ask for them.
Result<Element> collect_element(pull::Tokenizer& tok, const pull::Token& start,
                                Positions positions);

}  // namespace wsx::xml
