// parser.hpp — the DOM front-end over the pull tokenizer, and the
// streaming element-text reader that applies the DOM's text rule without
// building a tree.
//
// Supports the subset of XML used by WSDL/XSD/SOAP documents: elements,
// attributes, character data, CDATA sections, comments, processing
// instructions (skipped), an XML declaration and DOCTYPE (both skipped),
// the five built-in entities, and decimal/hex character references.
// Entities a DTD would declare are unknown entities (real WS stacks refuse
// DTD processing for security reasons).
#pragma once

#include <string>
#include <string_view>

#include "common/result.hpp"
#include "common/strings.hpp"
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

/// The whitespace rule of every tree built from tokens, applied to an
/// element's children in document order: whitespace-only character data
/// between child nodes is indentation and is dropped; when it is the
/// element's only content it is the value itself (an xs:string of blanks)
/// and is kept. Comments and child elements count as content; PIs do not.
class BlankText {
 public:
  static bool is_blank(std::string_view text) { return trim(text).empty(); }

  /// Whitespace-only character data arrives: true when it is kept.
  bool keep_blank() {
    if (kept_any_ && !only_blank_) return false;
    kept_any_ = only_blank_ = true;
    return true;
  }
  /// Any other child arrives, and is kept: true when the whitespace-only
  /// text kept so far must be dropped first.
  bool drop_blanks() {
    const bool drop = only_blank_;
    kept_any_ = true;
    only_blank_ = false;
    return drop;
  }

 private:
  bool kept_any_ = false;    ///< a child has been kept
  bool only_blank_ = false;  ///< every child kept is whitespace-only text
};

/// The text of the element whose kStartElement token was just returned
/// by `tok`, read through its end tag without building anything: what
/// collect_element(tok, start, ...).text() returns, its character data and
/// CDATA under the BlankText rule. Each child element's start tag goes to
/// `on_child(token)`, which must consume that child (pull::skip_element or
/// a nested element_text) and return false only when the tokenizer failed.
/// On a failure the result is the tokenizer's error.
template <typename OnChild>
Result<std::string> element_text(pull::Tokenizer& tok, OnChild&& on_child) {
  std::string text;
  BlankText blanks;
  for (;;) {
    const pull::Token& token = tok.next();
    switch (token.kind) {
      case pull::TokenKind::kStartElement:
        if (blanks.drop_blanks()) text.clear();
        if (!on_child(token)) return tok.error();
        break;
      case pull::TokenKind::kEndElement:
        return text;
      case pull::TokenKind::kText:
        if (BlankText::is_blank(token.value)) {
          if (!blanks.keep_blank()) break;
        } else if (blanks.drop_blanks()) {
          text.clear();
        }
        text += token.value;
        break;
      case pull::TokenKind::kCData:
        if (blanks.drop_blanks()) text.clear();
        text += token.value;
        break;
      case pull::TokenKind::kComment:
        if (blanks.drop_blanks()) text.clear();
        break;
      case pull::TokenKind::kPi:
        break;
      default:
        return tok.error();
    }
  }
}

/// element_text with every child element skipped.
inline Result<std::string> element_text(pull::Tokenizer& tok) {
  return element_text(tok, [&tok](const pull::Token& child) {
    return pull::skip_element(tok, child).ok();
  });
}

}  // namespace wsx::xml
