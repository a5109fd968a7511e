// parser.cpp — DOM front-end over the streaming pull tokenizer.
//
// The tokenizer (xml/pull.*) owns every lexical decision: names, attributes,
// entities, depth limits and error codes. This file only materialises the
// token stream into the value-semantic tree, so the DOM and the streaming
// SOAP path (soap/envelope.*) cannot disagree about whether an input is
// well-formed or what error it produces.
#include "xml/parser.hpp"

#include <string>

namespace wsx::xml {
namespace {

Element element_from(pull::Tokenizer& tok, const pull::Token& token, Positions positions) {
  Element element{std::string(token.name)};
  if (positions == Positions::kRecord) {
    const pull::Tokenizer::Location location = tok.location(token.offset);
    element.set_source_location(location.line, location.column);
  }
  if (token.attr_count > 0) {
    element.attributes().reserve(token.attr_count < 4 ? 4 : token.attr_count);
    for (std::size_t i = 0; i < token.attr_count; ++i) {
      element.attributes().push_back(
          Attribute{std::string(token.attrs[i].name), std::string(token.attrs[i].value)});
    }
  }
  return element;
}

/// Reads the content of `element`, whose start tag was just consumed,
/// through its end tag; false when the tokenizer fails (see
/// Tokenizer::error()). Recursion replaces an ancestor stack: the
/// tokenizer's pull::kMaxDepth bounds it, and `element` stays put because
/// only the innermost element's children grow. Whitespace-only text
/// follows the BlankText rule.
bool collect_content(pull::Tokenizer& tok, Element& element, Positions positions) {
  BlankText blanks;
  for (;;) {
    const pull::Token& token = tok.next();
    switch (token.kind) {
      case pull::TokenKind::kStartElement: {
        if (blanks.drop_blanks()) element.children().clear();
        if (element.children().empty()) element.children().reserve(4);
        Element& child = element.add_child(element_from(tok, token, positions));
        if (!collect_content(tok, child, positions)) return false;
        break;
      }
      case pull::TokenKind::kEndElement:
        return true;
      case pull::TokenKind::kText:
        if (BlankText::is_blank(token.value)) {
          if (!blanks.keep_blank()) break;
        } else if (blanks.drop_blanks()) {
          element.children().clear();
        }
        element.add_text(std::string(token.value));
        break;
      case pull::TokenKind::kCData:
        if (blanks.drop_blanks()) element.children().clear();
        element.add_cdata(std::string(token.value));
        break;
      case pull::TokenKind::kComment:
        if (blanks.drop_blanks()) element.children().clear();
        element.add_comment(std::string(token.value));
        break;
      case pull::TokenKind::kPi:
        break;  // skipped, as before
      default:
        // kError (and, defensively, anything else mid-subtree).
        return false;
    }
  }
}

}  // namespace

Result<Element> collect_element(pull::Tokenizer& tok, const pull::Token& start,
                                Positions positions) {
  Element root = element_from(tok, start, positions);
  if (!collect_content(tok, root, positions)) return tok.error();
  return root;
}

Result<Element> parse_element(std::string_view input) {
  pull::Tokenizer tok{input};
  const pull::Token* start = pull::next_root(tok);
  if (start == nullptr) return tok.error();
  Result<Element> root = collect_element(tok, *start, Positions::kRecord);
  if (!root.ok()) return root;
  // Trailing misc after the root; the tokenizer rejects real content.
  if (Result<bool> rest = pull::drain(tok); !rest.ok()) return rest.error();
  return root;
}

}  // namespace wsx::xml
