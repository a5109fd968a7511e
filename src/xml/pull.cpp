#include "xml/pull.hpp"

#include <array>
#include <cstring>
#include <string>

namespace wsx::xml::pull {
namespace {

// Branch-free character classes (shared philosophy with the writer's
// escape table): a 256-entry lookup keeps name/space scanning to a load
// and a test per byte.
enum : unsigned char { kNameStart = 1, kNameChar = 2, kSpace = 4 };

constexpr std::array<unsigned char, 256> build_char_classes() {
  std::array<unsigned char, 256> table{};
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kNameStart | kNameChar;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kNameStart | kNameChar;
  table['_'] = table[':'] = kNameStart | kNameChar;
  for (int c = '0'; c <= '9'; ++c) table[c] = kNameChar;
  table['-'] = table['.'] = kNameChar;
  table[' '] = table['\t'] = table['\r'] = table['\n'] = kSpace;
  return table;
}

constexpr std::array<unsigned char, 256> kCharClass = build_char_classes();

bool is_name_start(char c) {
  return (kCharClass[static_cast<unsigned char>(c)] & kNameStart) != 0;
}

bool is_name_char(char c) {
  return (kCharClass[static_cast<unsigned char>(c)] & kNameChar) != 0;
}

bool is_space(char c) { return (kCharClass[static_cast<unsigned char>(c)] & kSpace) != 0; }

/// True when `text` could still grow into `token` (it is a proper prefix);
/// the incremental mode's "don't decide yet" test.
bool is_prefix_of(std::string_view text, std::string_view token) {
  return text.size() < token.size() && token.substr(0, text.size()) == text;
}

void append_utf8(char*& out, unsigned long cp) {
  if (cp < 0x80) {
    *out++ = static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out++ = static_cast<char>(0xC0 | (cp >> 6));
    *out++ = static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out++ = static_cast<char>(0xE0 | (cp >> 12));
    *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out++ = static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out++ = static_cast<char>(0xF0 | (cp >> 18));
    *out++ = static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out++ = static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Extracts version="..."/encoding="..." views from the prolog text: the
/// first quoted run after the key's first occurrence. The scans are plain
/// byte loops; string_view's find/find_first_of call memchr per candidate
/// byte, which costs more than the short prolog itself.
std::string_view pseudo_attribute(std::string_view prolog, std::string_view key) {
  std::size_t key_pos = 0;
  while (key_pos + key.size() <= prolog.size() &&
         (prolog[key_pos] != key[0] || prolog.compare(key_pos, key.size(), key) != 0)) {
    ++key_pos;
  }
  if (key_pos + key.size() > prolog.size()) return {};
  std::size_t quote = key_pos;
  while (quote < prolog.size() && prolog[quote] != '"' && prolog[quote] != '\'') ++quote;
  if (quote == prolog.size()) return {};
  std::size_t close = quote + 1;
  while (close < prolog.size() && prolog[close] != prolog[quote]) ++close;
  if (close == prolog.size()) return {};
  return prolog.substr(quote + 1, close - quote - 1);
}

}  // namespace

Tokenizer::Tokenizer(std::string_view input, TokenizerOptions options)
    : input_(input), options_(options) {
  finished_ = true;
  stack_.reserve(16);
  attrs_.reserve(8);
}

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {
  incremental_ = true;
  stack_.reserve(16);
  attrs_.reserve(8);
}

void Tokenizer::feed(std::string_view chunk) { pending_.append(chunk); }

void Tokenizer::finish() { finished_ = true; }

Tokenizer::Location Tokenizer::location_at(std::size_t pos) {
  const char* base = buffer().data();
  while (loc_scanned_ < pos) {
    const void* nl = std::memchr(base + loc_scanned_, '\n', pos - loc_scanned_);
    if (nl == nullptr) break;
    const std::size_t idx = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
    ++line_;
    line_start_ = idx + 1;
    loc_scanned_ = idx + 1;
  }
  if (pos > loc_scanned_) loc_scanned_ = pos;
  return Location{line_, pos - line_start_ + 1};
}

const Token& Tokenizer::emit_error(std::string code, std::string what, std::size_t pos) {
  const Location loc = location_at(pos);
  error_ = Error{std::move(code), what + " at line " + std::to_string(loc.line) +
                                      ", column " + std::to_string(loc.column)};
  state_ = State::kFailed;
  token_ = Token{};
  token_.kind = TokenKind::kError;
  return token_;
}

const Token& Tokenizer::emit_need_more(std::size_t rewind_to) {
  pos_ = rewind_to;
  token_ = Token{};
  token_.kind = TokenKind::kNeedMore;
  return token_;
}

const Token& Tokenizer::next() {
  switch (state_) {
    case State::kStartOfDocument:
      return scan_start_of_document();
    case State::kBeforeRoot:
      return scan_before_root();
    case State::kContent:
      return scan_content();
    case State::kEpilog:
      return scan_epilog();
    case State::kDone:
      token_ = Token{};
      token_.kind = TokenKind::kEndDocument;
      return token_;
    case State::kFailed:
      token_ = Token{};
      token_.kind = TokenKind::kError;
      return token_;
  }
  return token_;  // unreachable
}

const Token& Tokenizer::scan_start_of_document() {
  const std::string_view in = buffer();
  const std::size_t start = pos_;

  // BOM. With fewer than 3 bytes buffered we cannot yet tell.
  if (pos_ == 0) {
    if (is_prefix_of(in, "\xEF\xBB\xBF") && !finished_) return emit_need_more(start);
    if (in.substr(0, 3) == "\xEF\xBB\xBF") {
      pos_ = 3;
      // The BOM is not part of column accounting: column 1 stays the first
      // real character.
      line_start_ = 3;
      loc_scanned_ = 3;
    }
  }

  while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
  if (pos_ >= in.size() && !finished_) return emit_need_more(start);

  token_ = Token{};
  token_.kind = TokenKind::kStartDocument;

  const std::string_view rest = in.substr(pos_);
  if (is_prefix_of(rest, "<?xml") && !finished_) return emit_need_more(start);
  if (rest.substr(0, 5) == "<?xml") {
    // A byte loop to the "?>": find() would call memchr at every '?'.
    std::size_t end = pos_ + 5;
    while (end + 1 < in.size() && (in[end] != '?' || in[end + 1] != '>')) ++end;
    if (end + 1 >= in.size()) {
      if (!finished_) return emit_need_more(start);
      // Malformed prolog: leave it for the misc scanner, which consumes it
      // as an unterminated PI and reports "no root element" (the DOM
      // parser's historical behaviour).
    } else {
      const std::string_view prolog = in.substr(pos_, end - pos_);
      token_.version = pseudo_attribute(prolog, "version");
      token_.encoding = pseudo_attribute(prolog, "encoding");
      pos_ = end + 2;
    }
  }
  state_ = State::kBeforeRoot;
  return token_;
}

const Token& Tokenizer::scan_before_root() {
  const std::string_view in = buffer();
  for (;;) {
    const std::size_t start = pos_;
    while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
    if (pos_ >= in.size()) {
      if (!finished_) return emit_need_more(start);
      return emit_error("xml.no-root", "document has no root element", pos_);
    }
    const std::string_view rest = in.substr(pos_);
    if (is_prefix_of(rest, "<!--") || is_prefix_of(rest, "<!DOCTYPE")) {
      if (!finished_) return emit_need_more(start);
    }
    if (rest.substr(0, 4) == "<!--") {
      const std::size_t end = in.find("-->", pos_);
      if (end == std::string_view::npos) {
        if (!finished_) return emit_need_more(start);
        // Unterminated misc before the root swallows the rest of the
        // input; the next scan reports the missing root.
        pos_ = in.size();
        continue;
      }
      token_ = Token{};
      token_.kind = TokenKind::kComment;
      token_.value = in.substr(pos_ + 4, end - pos_ - 4);
      pos_ = end + 3;
      return token_;
    }
    if (rest.substr(0, 9) == "<!DOCTYPE") {
      // Skip doctype, tracking an optional internal subset's brackets.
      std::size_t scan = pos_;
      int depth = 0;
      for (; scan < in.size(); ++scan) {
        if (in[scan] == '[') ++depth;
        if (in[scan] == ']') --depth;
        if (in[scan] == '>' && depth == 0) break;
      }
      if (scan >= in.size() && !finished_) return emit_need_more(start);
      pos_ = scan < in.size() ? scan + 1 : in.size();
      continue;
    }
    if (rest.substr(0, 2) == "<?" || (rest == "<" && !finished_)) {
      if (rest.size() < 2 && !finished_) return emit_need_more(start);
      if (rest.substr(0, 2) == "<?") {
        const std::size_t end = in.find("?>", pos_);
        if (end == std::string_view::npos) {
          if (!finished_) return emit_need_more(start);
          pos_ = in.size();
          continue;
        }
        token_ = Token{};
        token_.kind = TokenKind::kPi;
        token_.value = in.substr(pos_ + 2, end - pos_ - 2);
        pos_ = end + 2;
        return token_;
      }
    }
    if (in[pos_] != '<') {
      return emit_error("xml.expected-element", "expected '<'", pos_);
    }
    return scan_element_start();
  }
}

const Token& Tokenizer::scan_content() {
  if (pending_end_element_) {
    pending_end_element_ = false;
    token_ = Token{};
    token_.kind = TokenKind::kEndElement;
    token_.name = pending_end_name_;
    pending_end_name_ = {};
    if (stack_.empty()) state_ = State::kEpilog;
    return token_;
  }
  const std::string_view in = buffer();
  const std::size_t start = pos_;
  if (pos_ >= in.size()) {
    if (!finished_) return emit_need_more(start);
    return emit_error("xml.unterminated-element",
                      "missing end tag for '" + std::string(stack_.back()) + "'", pos_);
  }
  if (in[pos_] != '<') {
    // Character data up to the next markup.
    const std::size_t lt = in.find('<', pos_);
    if (lt == std::string_view::npos && !finished_) return emit_need_more(start);
    const std::size_t run_end = lt == std::string_view::npos ? in.size() : lt;
    std::string_view decoded;
    if (!decode(in.substr(pos_, run_end - pos_), run_end, decoded)) return token_;
    pos_ = run_end;
    token_ = Token{};
    token_.kind = TokenKind::kText;
    token_.value = decoded;
    return token_;
  }
  // Markup: dispatch on the character after '<'.
  const std::string_view rest = in.substr(pos_);
  if (rest.size() < 2 && !finished_) return emit_need_more(start);
  const char next_char = rest.size() > 1 ? rest[1] : '\0';
  if (next_char == '/') return scan_element_end();
  if (next_char == '!') {
    if ((is_prefix_of(rest, "<!--") || is_prefix_of(rest, "<![CDATA[")) && !finished_) {
      return emit_need_more(start);
    }
    if (rest.substr(0, 4) == "<!--") {
      const std::size_t end = in.find("-->", pos_);
      if (end == std::string_view::npos) {
        if (!finished_) return emit_need_more(start);
        return emit_error("xml.unterminated-comment", "unterminated comment", pos_);
      }
      token_ = Token{};
      token_.kind = TokenKind::kComment;
      token_.value = in.substr(pos_ + 4, end - pos_ - 4);
      pos_ = end + 3;
      return token_;
    }
    if (rest.substr(0, 9) == "<![CDATA[") {
      const std::size_t end = in.find("]]>", pos_);
      if (end == std::string_view::npos) {
        if (!finished_) return emit_need_more(start);
        return emit_error("xml.unterminated-cdata", "unterminated CDATA section", pos_);
      }
      token_ = Token{};
      token_.kind = TokenKind::kCData;
      token_.value = in.substr(pos_ + 9, end - pos_ - 9);
      pos_ = end + 3;
      return token_;
    }
    // "<!" that is neither comment nor CDATA: falls through to the element
    // scanner, which rejects '!' as a name start (DOM parser parity).
    return scan_element_start();
  }
  if (next_char == '?') {
    const std::size_t end = in.find("?>", pos_);
    if (end == std::string_view::npos) {
      if (!finished_) return emit_need_more(start);
      return emit_error("xml.unterminated-pi", "unterminated processing instruction", pos_);
    }
    token_ = Token{};
    token_.kind = TokenKind::kPi;
    token_.value = in.substr(pos_ + 2, end - pos_ - 2);
    pos_ = end + 2;
    return token_;
  }
  return scan_element_start();
}

const Token& Tokenizer::scan_element_start() {
  const std::string_view in = buffer();
  const std::size_t tag_start = pos_;
  if (stack_.size() > options_.max_depth) {
    return emit_error("xml.too-deep", "maximum nesting depth exceeded", pos_);
  }
  const Location tag_loc = location_at(pos_);
  std::size_t p = pos_ + 1;  // past '<'
  if (p >= in.size()) {
    if (!finished_) return emit_need_more(tag_start);
    return emit_error("xml.bad-name", "expected a name", p);
  }
  if (!is_name_start(in[p])) return emit_error("xml.bad-name", "expected a name", p);
  const std::size_t name_start = p;
  ++p;
  while (p < in.size() && is_name_char(in[p])) ++p;
  if (p >= in.size() && !finished_) return emit_need_more(tag_start);
  const std::string_view name = in.substr(name_start, p - name_start);
  pos_ = p;

  attrs_.clear();
  for (;;) {
    while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
    if (pos_ >= in.size()) {
      if (!finished_) return emit_need_more(tag_start);
      return emit_error("xml.unterminated-tag", "unterminated start tag", pos_);
    }
    if (in[pos_] == '>') {
      ++pos_;
      // Incremental mode: feed() may reallocate the pending buffer, so the
      // name kept across tokens must live in the arena (which never moves).
      stack_.push_back(incremental_ ? arena_.copy(name) : name);
      token_ = Token{};
      token_.kind = TokenKind::kStartElement;
      token_.name = name;
      token_.attrs = attrs_.data();
      token_.attr_count = attrs_.size();
      token_.line = tag_loc.line;
      token_.column = tag_loc.column;
      state_ = State::kContent;
      return token_;
    }
    if (in.substr(pos_, 2) == "/>") {
      pos_ += 2;
      token_ = Token{};
      token_.kind = TokenKind::kStartElement;
      token_.name = name;
      token_.attrs = attrs_.data();
      token_.attr_count = attrs_.size();
      token_.self_closing = true;
      token_.line = tag_loc.line;
      token_.column = tag_loc.column;
      // The matching kEndElement is synthesized by the next call; the
      // element is never pushed, so depth() excludes it. The name must
      // survive a feed() in between, hence the arena copy.
      pending_end_element_ = true;
      pending_end_name_ = incremental_ ? arena_.copy(name) : name;
      state_ = State::kContent;
      return token_;
    }
    if (in[pos_] == '/' && pos_ + 1 >= in.size() && !finished_) {
      return emit_need_more(tag_start);
    }
    if (!scan_attribute()) {
      if (token_.kind == TokenKind::kNeedMore) return emit_need_more(tag_start);
      return token_;  // error already emitted
    }
  }
}

bool Tokenizer::scan_attribute() {
  const std::string_view in = buffer();
  if (pos_ >= in.size() || !is_name_start(in[pos_])) {
    emit_error("xml.bad-name", "expected a name", pos_);
    return false;
  }
  const std::size_t name_start = pos_;
  std::size_t p = pos_ + 1;
  while (p < in.size() && is_name_char(in[p])) ++p;
  if (p >= in.size() && !finished_) {
    token_ = Token{};
    token_.kind = TokenKind::kNeedMore;
    return false;
  }
  const std::string_view name = in.substr(name_start, p - name_start);
  pos_ = p;
  while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
  if (pos_ >= in.size() && !finished_) {
    token_ = Token{};
    token_.kind = TokenKind::kNeedMore;
    return false;
  }
  if (pos_ >= in.size() || in[pos_] != '=') {
    emit_error("xml.expected-eq", "expected '=' after attribute", pos_);
    return false;
  }
  ++pos_;
  while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
  if (pos_ >= in.size() && !finished_) {
    token_ = Token{};
    token_.kind = TokenKind::kNeedMore;
    return false;
  }
  if (pos_ >= in.size() || (in[pos_] != '"' && in[pos_] != '\'')) {
    emit_error("xml.expected-quote", "expected quoted attribute value", pos_);
    return false;
  }
  const char quote = in[pos_];
  ++pos_;
  const std::size_t value_start = pos_;
  // The value ends at its quote; a '<' before it is an error. One loop
  // stops at either and notes whether an entity needs decoding
  // (find_first_of would call memchr once per byte).
  std::size_t stop = pos_;
  bool has_entity = false;
  for (; stop < in.size(); ++stop) {
    const char c = in[stop];
    if (c == quote || c == '<') break;
    has_entity |= c == '&';
  }
  if (stop == in.size()) {
    if (!finished_) {
      token_ = Token{};
      token_.kind = TokenKind::kNeedMore;
      return false;
    }
    pos_ = in.size();
    emit_error("xml.unterminated-attr", "unterminated attribute value", pos_);
    return false;
  }
  pos_ = stop;
  if (in[stop] == '<') {
    emit_error("xml.lt-in-attr", "'<' not allowed in attribute value", pos_);
    return false;
  }
  std::string_view value = in.substr(value_start, stop - value_start);
  if (has_entity && !decode(value, stop, value)) return false;
  ++pos_;  // closing quote
  for (const AttrView& existing : attrs_) {
    if (existing.name == name) {
      emit_error("xml.duplicate-attr", "duplicate attribute '" + std::string(name) + "'",
                 pos_);
      return false;
    }
  }
  attrs_.push_back(AttrView{name, value});
  return true;
}

const Token& Tokenizer::scan_element_end() {
  const std::string_view in = buffer();
  const std::size_t tag_start = pos_;
  pos_ += 2;  // past "</"
  if (pos_ >= in.size() && !finished_) return emit_need_more(tag_start);
  if (pos_ >= in.size() || !is_name_start(in[pos_])) {
    return emit_error("xml.bad-name", "expected a name", pos_);
  }
  const std::size_t name_start = pos_;
  std::size_t p = pos_ + 1;
  while (p < in.size() && is_name_char(in[p])) ++p;
  if (p >= in.size() && !finished_) return emit_need_more(tag_start);
  const std::string_view name = in.substr(name_start, p - name_start);
  pos_ = p;
  if (name != stack_.back()) {
    return emit_error("xml.mismatched-tag", "end tag '" + std::string(name) +
                                                "' does not match start tag '" +
                                                std::string(stack_.back()) + "'",
                      pos_);
  }
  while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
  if (pos_ >= in.size() && !finished_) return emit_need_more(tag_start);
  if (pos_ >= in.size() || in[pos_] != '>') {
    return emit_error("xml.bad-end-tag", "malformed end tag", pos_);
  }
  ++pos_;
  stack_.pop_back();
  token_ = Token{};
  token_.kind = TokenKind::kEndElement;
  token_.name = name;
  if (stack_.empty()) state_ = State::kEpilog;
  return token_;
}

const Token& Tokenizer::scan_epilog() {
  const std::string_view in = buffer();
  for (;;) {
    const std::size_t start = pos_;
    while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
    if (pos_ >= in.size()) {
      if (!finished_) return emit_need_more(start);
      state_ = State::kDone;
      token_ = Token{};
      token_.kind = TokenKind::kEndDocument;
      return token_;
    }
    const std::string_view rest = in.substr(pos_);
    if ((is_prefix_of(rest, "<!--") || is_prefix_of(rest, "<!DOCTYPE") ||
         is_prefix_of(rest, "<?")) &&
        !finished_) {
      return emit_need_more(start);
    }
    if (rest.substr(0, 4) == "<!--") {
      const std::size_t end = in.find("-->", pos_);
      if (end == std::string_view::npos) {
        // The DOM parser accepted unterminated trailing misc (skip_misc
        // consumed to end-of-input); preserved for parity.
        if (!finished_) return emit_need_more(start);
        pos_ = in.size();
        continue;
      }
      token_ = Token{};
      token_.kind = TokenKind::kComment;
      token_.value = in.substr(pos_ + 4, end - pos_ - 4);
      pos_ = end + 3;
      return token_;
    }
    if (rest.substr(0, 2) == "<?") {
      const std::size_t end = in.find("?>", pos_);
      if (end == std::string_view::npos) {
        if (!finished_) return emit_need_more(start);
        pos_ = in.size();
        continue;
      }
      token_ = Token{};
      token_.kind = TokenKind::kPi;
      token_.value = in.substr(pos_ + 2, end - pos_ - 2);
      pos_ = end + 2;
      return token_;
    }
    if (rest.substr(0, 9) == "<!DOCTYPE") {
      std::size_t scan = pos_;
      int depth = 0;
      for (; scan < in.size(); ++scan) {
        if (in[scan] == '[') ++depth;
        if (in[scan] == ']') --depth;
        if (in[scan] == '>' && depth == 0) break;
      }
      if (scan >= in.size() && !finished_) return emit_need_more(start);
      pos_ = scan < in.size() ? scan + 1 : in.size();
      continue;
    }
    return emit_error("xml.trailing-content", "content after root element", pos_);
  }
}

bool Tokenizer::decode(std::string_view raw, std::size_t err_pos, std::string_view& out) {
  const std::size_t amp = raw.find('&');
  if (amp == std::string_view::npos) {
    out = raw;  // common case: zero-copy
    return true;
  }
  // Decoded text is never longer than the raw text (every reference is at
  // least as long as what it produces), so one arena block suffices.
  char* buf = arena_.char_buffer(raw.size());
  char* write = buf;
  std::memcpy(write, raw.data(), amp);
  write += amp;
  for (std::size_t i = amp; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      const std::size_t next = raw.find('&', i);
      const std::size_t run_end = next == std::string_view::npos ? raw.size() : next;
      std::memcpy(write, raw.data() + i, run_end - i);
      write += run_end - i;
      i = run_end - 1;
      continue;
    }
    const std::size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) {
      emit_error("xml.bad-entity", "unterminated entity", err_pos);
      return false;
    }
    const std::string_view entity = raw.substr(i + 1, semi - i - 1);
    if (entity == "lt") {
      *write++ = '<';
    } else if (entity == "gt") {
      *write++ = '>';
    } else if (entity == "amp") {
      *write++ = '&';
    } else if (entity == "apos") {
      *write++ = '\'';
    } else if (entity == "quot") {
      *write++ = '"';
    } else if (!entity.empty() && entity[0] == '#') {
      unsigned long value = 0;
      try {
        value = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')
                    ? std::stoul(std::string(entity.substr(2)), nullptr, 16)
                    : std::stoul(std::string(entity.substr(1)), nullptr, 10);
      } catch (...) {
        emit_error("xml.bad-entity", "malformed character reference", err_pos);
        return false;
      }
      append_utf8(write, value);
    } else {
      emit_error("xml.unknown-entity", "unknown entity '&" + std::string(entity) + ";'",
                 err_pos);
      return false;
    }
    i = semi;
  }
  out = std::string_view(buf, static_cast<std::size_t>(write - buf));
  return true;
}

Result<bool> drain(Tokenizer& tok) {
  for (;;) {
    const Token& token = tok.next();
    if (token.kind == TokenKind::kEndDocument) return true;
    if (token.kind == TokenKind::kError) return tok.error();
    if (token.kind == TokenKind::kNeedMore) {
      return Error{"xml.incomplete", "input ended before the document was complete"};
    }
  }
}

const Token* next_root(Tokenizer& tok) {
  for (;;) {
    const Token& token = tok.next();
    switch (token.kind) {
      case TokenKind::kStartElement:
        return &token;
      case TokenKind::kStartDocument:
      case TokenKind::kComment:
      case TokenKind::kPi:
        break;
      default:  // kError, kNeedMore; kEndDocument cannot precede a root
        return nullptr;
    }
  }
}

Result<bool> skip_element(Tokenizer& tok, const Token& start) {
  std::size_t open = 1;
  (void)start;  // the start token is already consumed; self-closing starts
                // synthesize their end, so the loop is uniform
  while (open > 0) {
    const Token& token = tok.next();
    switch (token.kind) {
      case TokenKind::kStartElement:
        ++open;
        break;
      case TokenKind::kEndElement:
        --open;
        break;
      case TokenKind::kError:
        return tok.error();
      case TokenKind::kNeedMore:
        return Error{"xml.incomplete", "input ended inside an element"};
      default:
        break;
    }
  }
  return true;
}

}  // namespace wsx::xml::pull
