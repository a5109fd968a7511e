// pull.hpp — zero-copy streaming (pull) XML tokenizer.
//
// The one XML scanner in the tree. The DOM front-end (parser.*) and the
// streaming SOAP envelope path (soap/envelope.*, soap/validate.*) are both
// clients of this tokenizer, so the two representations cannot drift: they
// see the same token stream, the same error codes and the same
// well-formedness decisions on every input.
//
// Zero-copy: token names, attribute names and values, and character data
// are std::string_view slices of the input buffer whenever possible. The
// only bytes the tokenizer copies are entity-decoded values, which land in
// an owned common::Arena and stay valid until the tokenizer is destroyed.
//
// Incremental feed: a tokenizer constructed without input accepts bytes
// via feed() and returns kNeedMore when the next token is not yet complete
// (the partial token is rescanned once more bytes arrive — cheap, since
// tokens are small). finish() marks end-of-input, after which incomplete
// constructs become the same errors the one-shot parse reports.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "common/result.hpp"

namespace wsx::xml::pull {

enum class TokenKind : unsigned char {
  kStartDocument,  ///< prolog seen (or absent); carries version/encoding
  kStartElement,   ///< name + attributes; self_closing when <.../>
  kEndElement,     ///< also synthesized after a self-closing start
  kText,           ///< character data, entity-decoded
  kCData,          ///< raw CDATA content
  kComment,        ///< comment body (content between <!-- and -->)
  kPi,             ///< processing instruction, skipped content
  kEndDocument,    ///< the document is complete and well-formed
  kNeedMore,       ///< incremental mode: feed more bytes (or finish())
  kError,          ///< see Tokenizer::error()
};

struct AttrView {
  std::string_view name;   ///< lexical name ("xmlns:soapenv", "x")
  std::string_view value;  ///< decoded; aliases input unless entities forced a copy
};

/// One token. Views alias the tokenizer's buffer: in one-shot mode they
/// stay valid for the tokenizer's lifetime; in incremental mode until the
/// next feed() (which may reallocate the pending buffer).
struct Token {
  TokenKind kind = TokenKind::kError;
  std::string_view name;     ///< element name (start/end), PI target
  std::string_view value;    ///< text/cdata/comment content
  const AttrView* attrs = nullptr;
  std::size_t attr_count = 0;
  bool self_closing = false;   ///< kStartElement of an empty-element tag
  std::size_t line = 0;        ///< 1-based, start elements only
  std::size_t column = 0;
  std::string_view version;    ///< kStartDocument; empty = no prolog value
  std::string_view encoding;

  /// Value of the start tag's attribute with this lexical name, if present.
  std::optional<std::string_view> attribute(std::string_view attr_name) const {
    for (std::size_t i = 0; i < attr_count; ++i) {
      if (attrs[i].name == attr_name) return attrs[i].value;
    }
    return std::nullopt;
  }
};

struct TokenizerOptions {
  /// Reject documents whose nesting depth exceeds this bound (same meaning
  /// as ParseOptions::max_depth).
  std::size_t max_depth = 256;
};

class Tokenizer {
 public:
  /// One-shot: tokenize a complete document held by the caller. Views
  /// alias `input`, which must outlive the tokenizer.
  explicit Tokenizer(std::string_view input, TokenizerOptions options = {});

  /// Incremental: start empty, feed() chunks, finish() at end-of-input.
  explicit Tokenizer(TokenizerOptions options);

  Tokenizer(const Tokenizer&) = delete;
  Tokenizer& operator=(const Tokenizer&) = delete;

  /// Appends bytes (incremental mode only). Invalidates outstanding views.
  void feed(std::string_view chunk);
  /// Marks end-of-input: pending incomplete constructs become errors.
  void finish();

  /// Scans and returns the next token. After kError / kEndDocument every
  /// further call returns the same token.
  const Token& next();

  /// The failure, valid once next() returned kError. Codes and messages
  /// match the DOM parser's ("xml." prefix, line/column in the message).
  const Error& error() const { return error_; }

  /// Elements currently open (depth of the cursor).
  std::size_t depth() const { return stack_.size(); }

  /// Scratch arena holding decoded values; reset() only when every
  /// outstanding token view has been consumed.
  common::Arena& arena() { return arena_; }

 private:
  enum class State : unsigned char {
    kStartOfDocument,  ///< BOM + prolog not yet emitted
    kBeforeRoot,       ///< prolog emitted, root start tag pending
    kContent,          ///< inside the root element
    kEpilog,           ///< root closed, trailing misc allowed
    kDone,
    kFailed,
  };

  std::string_view buffer() const {
    return incremental_ ? std::string_view(pending_) : input_;
  }
  bool at_end(std::size_t pos) const { return pos >= buffer().size(); }

  const Token& emit_error(std::string code, std::string what, std::size_t pos);
  const Token& emit_need_more(std::size_t rewind_to);
  const Token& scan_start_of_document();
  const Token& scan_before_root();
  const Token& scan_content();
  const Token& scan_epilog();
  const Token& scan_element_start();
  const Token& scan_element_end();
  bool scan_attribute();  ///< false on error/need-more (token_ already set)

  /// Decodes entities in raw (no-op view when `&` is absent); false on a
  /// malformed reference (token_ set to the error, positioned at `err_pos`).
  bool decode(std::string_view raw, std::size_t err_pos, std::string_view& out);

  struct Location {
    std::size_t line;
    std::size_t column;
  };
  Location location_at(std::size_t pos);

  std::string_view input_;   ///< one-shot buffer
  std::string pending_;      ///< incremental buffer (grows on feed)
  bool incremental_ = false;
  bool finished_ = false;
  TokenizerOptions options_;

  State state_ = State::kStartOfDocument;
  std::size_t pos_ = 0;
  bool pending_end_element_ = false;  ///< self-closing start emitted, end next
  std::string_view pending_end_name_;  ///< stable name for that synthesized end
  /// Open element names. One-shot mode: views into the caller's buffer.
  /// Incremental mode: arena copies — feed() may reallocate pending_, but
  /// arena allocations never move.
  std::vector<std::string_view> stack_;
  std::vector<AttrView> attrs_;          ///< reused per start tag
  Token token_;
  Error error_;
  common::Arena arena_;

  // Lazy line/column accounting (same scheme as the old DOM parser): the
  // newline scan advances monotonically, so tokens and errors pay only for
  // the bytes between consecutive location requests.
  std::size_t loc_scanned_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;
};

/// Drains `tok` until kEndDocument or kError; the cheap well-formedness
/// oracle (used by the fuzz/chaos bridge and by consumers that must reach
/// end-of-document to preserve error parity with the DOM path).
Result<bool> drain(Tokenizer& tok);

/// Reads past the prolog (declaration, comments, PIs) to the root element:
/// returns its kStartElement token, or nullptr when the document is
/// malformed before it or has none (see Tokenizer::error()).
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
      case TokenKind::kNeedMore:
        return false;
      default:
        break;
    }
  }
}

}  // namespace wsx::xml::pull
