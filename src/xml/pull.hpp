// pull.hpp — zero-copy streaming (pull) XML tokenizer.
//
// The one XML scanner in the tree. The DOM front-end (parser.*) and the
// streaming SOAP envelope path (soap/envelope.*, soap/validate.*) are both
// clients of this tokenizer, so the two representations cannot drift: they
// see the same token stream, the same error codes and the same
// well-formedness decisions on every input.
//
// One-shot: a tokenizer reads one complete document that the caller holds.
// Every reader in the tree has the whole text before it parses (a served
// description, a lint body, an envelope on the wire).
//
// Zero-copy: token names, attribute names and values, and character data
// are std::string_view slices of the input buffer whenever possible. The
// only bytes the tokenizer copies are entity-decoded values, which land in
// an owned common::Arena and stay valid until the tokenizer is destroyed.
// The open-element and attribute stacks live inside the tokenizer up to 16
// and 8 entries, so reading a shallow document allocates nothing.
//
// Positions on request: a start tag carries the byte offset of its '<',
// and location() turns an offset into line and column. Only readers that
// report or record a position pay for the newline scan.
//
// The BOM, the XML declaration and DOCTYPE are read past without a token;
// the declaration's version and encoding are not read at all.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "common/arena.hpp"
#include "common/result.hpp"
#include "common/small_vector.hpp"

namespace wsx::xml::pull {

enum class TokenKind : unsigned char {
  kStartElement,   ///< name + attributes; self_closing when <.../>
  kEndElement,     ///< also synthesized after a self-closing start
  kText,           ///< character data, entity-decoded
  kCData,          ///< raw CDATA content
  kComment,        ///< comment body (content between <!-- and -->)
  kPi,             ///< processing instruction, skipped content
  kEndDocument,    ///< the document is complete and well-formed
  kError,          ///< see Tokenizer::error()
};

struct AttrView {
  std::string_view name;   ///< lexical name ("xmlns:soapenv", "x")
  std::string_view value;  ///< decoded; aliases input unless entities forced a copy
};

/// One token. Views alias the input or the tokenizer's arena, so they stay
/// valid for the tokenizer's lifetime.
struct Token {
  TokenKind kind = TokenKind::kError;
  std::string_view name;     ///< element name (start/end), PI target
  std::string_view value;    ///< text/cdata/comment content
  const AttrView* attrs = nullptr;
  std::size_t attr_count = 0;
  bool self_closing = false;   ///< kStartElement of an empty-element tag
  std::size_t offset = 0;      ///< of the start tag's '<'; Tokenizer::location()

  /// Value of the start tag's attribute with this lexical name, if present.
  std::optional<std::string_view> attribute(std::string_view attr_name) const {
    for (std::size_t i = 0; i < attr_count; ++i) {
      if (attrs[i].name == attr_name) return attrs[i].value;
    }
    return std::nullopt;
  }
};

/// Most elements a document may have open at once: the start tag of a
/// 257th nested element is xml.too-deep.
inline constexpr std::size_t kMaxDepth = 256;

class Tokenizer {
 public:
  /// Tokenizes a complete document held by the caller. Views alias
  /// `input`, which must outlive the tokenizer.
  explicit Tokenizer(std::string_view input);

  Tokenizer(const Tokenizer&) = delete;
  Tokenizer& operator=(const Tokenizer&) = delete;

  /// Scans and returns the next token. After kError / kEndDocument every
  /// further call returns the same token.
  const Token& next();

  /// The failure, valid once next() returned kError. Codes and messages
  /// match the DOM parser's ("xml." prefix, line/column in the message).
  const Error& error() const { return error_; }

  /// Elements currently open (depth of the cursor).
  std::size_t depth() const { return stack_.size(); }

  struct Location {
    std::size_t line;    ///< 1-based
    std::size_t column;  ///< 1-based, in bytes; a leading BOM is not counted
  };
  /// The line and column of input byte `offset` (a start tag's
  /// Token::offset). Offsets may come in any order; each one after the last
  /// costs only the newline scan between the two.
  Location location(std::size_t offset);

 private:
  enum class State : unsigned char {
    kBeforeRoot,  ///< root start tag pending
    kContent,     ///< inside the root element
    kEpilog,      ///< root closed, trailing misc allowed
    kDone,
    kFailed,
  };

  /// Resets token_ to an empty token of `kind`.
  Token& emit(TokenKind kind);
  const Token& emit_error(std::string code, std::string what, std::size_t pos);
  /// The comment, CDATA section or PI at pos_: its body starts `open_size`
  /// bytes in and ends at `close`, where a `close_size`-byte delimiter
  /// follows it.
  const Token& emit_markup(TokenKind kind, std::size_t open_size, std::size_t close,
                           std::size_t close_size);
  /// Before the root and after it: comments, PIs and DOCTYPE.
  const Token& scan_misc();
  const Token& scan_content();
  const Token& scan_element_start();
  const Token& scan_element_end();
  bool scan_attribute();  ///< false on error (token_ already set)

  /// Decodes entities in raw (no-op view when `&` is absent); false on a
  /// malformed reference (token_ set to the error, positioned at `err_pos`).
  bool decode(std::string_view raw, std::size_t err_pos, std::string_view& out);

  std::string_view input_;
  State state_ = State::kBeforeRoot;
  std::size_t pos_ = 0;
  bool pending_end_element_ = false;  ///< self-closing start emitted, end next
  std::string_view pending_end_name_;  ///< name for that synthesized end
  /// Open element names, views into input_.
  common::SmallVector<std::string_view, 16> stack_;
  common::SmallVector<AttrView, 8> attrs_;  ///< reused per start tag
  Token token_;
  Error error_;
  common::Arena arena_;

  // Lazy line/column accounting (same scheme as the old DOM parser): the
  // newline scan advances monotonically, so positions and errors pay only
  // for the bytes between consecutive location requests.
  std::size_t loc_scanned_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;
};

/// Drains `tok` until kEndDocument or kError; the cheap well-formedness
/// oracle (used by the fuzz/chaos bridge and by consumers that must reach
/// end-of-document to preserve error parity with the DOM path).
Result<bool> drain(Tokenizer& tok);

/// Reads past the comments and PIs before the root element: returns its
/// kStartElement token, or nullptr when the document is malformed before it
/// or has none (see Tokenizer::error()).
const Token* next_root(Tokenizer& tok);

/// Consumes the element whose kStartElement token was just returned,
/// through its matching end tag, without building anything.
/// Returns the tokenizer's error if the subtree is malformed.
Result<bool> skip_element(Tokenizer& tok, const Token& start);

/// Walks the content of the element whose kStartElement token was just
/// returned: calls `on_child(token)` with each child's start tag — it must
/// consume that child through its end tag (skip_element, collect_element or
/// a nested for_each_child) — and returns true after the element's end tag.
/// Character data, comments and PIs are passed over. Returns false when
/// `on_child` does, or when the tokenizer fails (see Tokenizer::error()).
template <typename OnChild>
bool for_each_child(Tokenizer& tok, OnChild&& on_child) {
  for (;;) {
    const Token& token = tok.next();
    switch (token.kind) {
      case TokenKind::kStartElement:
        if (!on_child(token)) return false;
        break;
      case TokenKind::kEndElement:
        return true;
      case TokenKind::kError:
        return false;
      default:
        break;
    }
  }
}

}  // namespace wsx::xml::pull
