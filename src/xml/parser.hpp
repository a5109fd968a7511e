// parser.hpp — namespace-aware, hand-written XML 1.0 parser.
//
// Supports the subset of XML used by WSDL/XSD/SOAP documents: prolog,
// elements, attributes, character data, CDATA sections, comments,
// processing instructions (skipped), DOCTYPE (skipped), the five built-in
// entities, and decimal/hex character references. DTDs with internal
// subsets, and external entities, are rejected (as real WS stacks do for
// security reasons).
#pragma once

#include <string_view>

#include "common/result.hpp"
#include "xml/node.hpp"
#include "xml/pull.hpp"

namespace wsx::xml {

struct ParseOptions {
  /// Keep comment nodes in the tree (WSDL tooling typically discards them).
  bool keep_comments = true;
  /// Reject documents whose total nesting depth exceeds this bound.
  std::size_t max_depth = 256;
};

/// Parses a complete XML document. Error codes use the "xml." prefix and
/// include 1-based line/column positions in the message.
Result<Document> parse(std::string_view input, const ParseOptions& options = {});

/// Parses a document and returns just the root element.
Result<Element> parse_element(std::string_view input, const ParseOptions& options = {});

/// Materialises the element whose kStartElement token was just returned by
/// `tok` into a DOM subtree, consuming the stream through its matching end
/// tag. Construction rules are identical to parse() — whitespace-only text
/// dropped unless it is an element's only content, comments per `options` —
/// so streaming consumers that need a tree for one subtree (a SOAP body
/// payload, a header entry) get exactly what the DOM path would have built.
Result<Element> collect_element(pull::Tokenizer& tok, const pull::Token& start,
                                const ParseOptions& options = {});

}  // namespace wsx::xml
