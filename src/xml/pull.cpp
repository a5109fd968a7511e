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

constexpr std::string_view kBom = "\xEF\xBB\xBF";

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

}  // namespace

Tokenizer::Tokenizer(std::string_view input) : input_(input) {
  if (input_.substr(0, kBom.size()) == kBom) {
    // The BOM is not part of column accounting: column 1 stays the first
    // real character.
    pos_ = line_start_ = loc_scanned_ = kBom.size();
  }
  // The XML declaration, after optional whitespace. A byte loop to the
  // "?>": find() would call memchr at every '?'. An unterminated one is
  // left to scan_misc(), which reads it as an unterminated PI and reports
  // "no root element" (the DOM parser's historical behaviour).
  std::size_t p = pos_;
  while (p < input_.size() && is_space(input_[p])) ++p;
  if (input_.substr(p, 5) == "<?xml") {
    std::size_t end = p + 5;
    while (end + 1 < input_.size() && (input_[end] != '?' || input_[end + 1] != '>')) ++end;
    if (end + 1 < input_.size()) pos_ = end + 2;
  }
}

Tokenizer::Location Tokenizer::location(std::size_t pos) {
  if (pos < line_start_) {
    // An earlier line: count again from the first character.
    line_ = 1;
    line_start_ = loc_scanned_ = input_.substr(0, kBom.size()) == kBom ? kBom.size() : 0;
  }
  const char* base = input_.data();
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

Token& Tokenizer::emit(TokenKind kind) {
  token_ = Token{};
  token_.kind = kind;
  return token_;
}

const Token& Tokenizer::emit_error(std::string code, std::string what, std::size_t pos) {
  const Location loc = location(pos);
  error_ = Error{std::move(code), what + " at line " + std::to_string(loc.line) +
                                      ", column " + std::to_string(loc.column)};
  state_ = State::kFailed;
  return emit(TokenKind::kError);
}

const Token& Tokenizer::emit_markup(TokenKind kind, std::size_t open_size, std::size_t close,
                                    std::size_t close_size) {
  Token& token = emit(kind);
  token.value = input_.substr(pos_ + open_size, close - pos_ - open_size);
  pos_ = close + close_size;
  return token;
}

const Token& Tokenizer::next() {
  switch (state_) {
    case State::kBeforeRoot:
    case State::kEpilog:
      return scan_misc();
    case State::kContent:
      return scan_content();
    case State::kDone:
      return emit(TokenKind::kEndDocument);
    case State::kFailed:
      return emit(TokenKind::kError);
  }
  return token_;  // unreachable
}

const Token& Tokenizer::scan_misc() {
  const std::string_view in = input_;
  for (;;) {
    while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
    if (pos_ >= in.size()) {
      if (state_ == State::kBeforeRoot) {
        return emit_error("xml.no-root", "document has no root element", pos_);
      }
      state_ = State::kDone;
      return emit(TokenKind::kEndDocument);
    }
    // An unterminated comment or PI swallows the rest of the input. Before
    // the root the next pass then reports the missing root; after it the
    // document ends there (the DOM parser's historical behaviour, for both).
    const std::string_view rest = in.substr(pos_);
    if (rest.substr(0, 4) == "<!--") {
      const std::size_t end = in.find("-->", pos_);
      if (end == std::string_view::npos) {
        pos_ = in.size();
        continue;
      }
      return emit_markup(TokenKind::kComment, 4, end, 3);
    }
    if (rest.substr(0, 2) == "<?") {
      const std::size_t end = in.find("?>", pos_);
      if (end == std::string_view::npos) {
        pos_ = in.size();
        continue;
      }
      return emit_markup(TokenKind::kPi, 2, end, 2);
    }
    if (rest.substr(0, 9) == "<!DOCTYPE") {
      // Skip doctype, tracking an optional internal subset's brackets.
      int depth = 0;
      for (; pos_ < in.size(); ++pos_) {
        if (in[pos_] == '[') ++depth;
        if (in[pos_] == ']') --depth;
        if (in[pos_] == '>' && depth == 0) break;
      }
      if (pos_ < in.size()) ++pos_;
      continue;
    }
    if (state_ == State::kEpilog) {
      return emit_error("xml.trailing-content", "content after root element", pos_);
    }
    if (in[pos_] != '<') return emit_error("xml.expected-element", "expected '<'", pos_);
    return scan_element_start();
  }
}

const Token& Tokenizer::scan_content() {
  if (pending_end_element_) {
    pending_end_element_ = false;
    Token& token = emit(TokenKind::kEndElement);
    token.name = pending_end_name_;
    if (stack_.empty()) state_ = State::kEpilog;
    return token;
  }
  const std::string_view in = input_;
  if (pos_ >= in.size()) {
    return emit_error("xml.unterminated-element",
                      "missing end tag for '" + std::string(stack_.back()) + "'", pos_);
  }
  if (in[pos_] != '<') {
    // Character data up to the next markup.
    const std::size_t lt = in.find('<', pos_);
    const std::size_t run_end = lt == std::string_view::npos ? in.size() : lt;
    std::string_view decoded;
    if (!decode(in.substr(pos_, run_end - pos_), run_end, decoded)) return token_;
    pos_ = run_end;
    Token& token = emit(TokenKind::kText);
    token.value = decoded;
    return token;
  }
  // Markup: dispatch on what follows '<'.
  const std::string_view rest = in.substr(pos_);
  if (rest.substr(0, 2) == "</") return scan_element_end();
  if (rest.substr(0, 4) == "<!--") {
    const std::size_t end = in.find("-->", pos_);
    if (end == std::string_view::npos) {
      return emit_error("xml.unterminated-comment", "unterminated comment", pos_);
    }
    return emit_markup(TokenKind::kComment, 4, end, 3);
  }
  if (rest.substr(0, 9) == "<![CDATA[") {
    const std::size_t end = in.find("]]>", pos_);
    if (end == std::string_view::npos) {
      return emit_error("xml.unterminated-cdata", "unterminated CDATA section", pos_);
    }
    return emit_markup(TokenKind::kCData, 9, end, 3);
  }
  if (rest.substr(0, 2) == "<?") {
    const std::size_t end = in.find("?>", pos_);
    if (end == std::string_view::npos) {
      return emit_error("xml.unterminated-pi", "unterminated processing instruction", pos_);
    }
    return emit_markup(TokenKind::kPi, 2, end, 2);
  }
  // Anything else is a start tag; "<!" that is neither comment nor CDATA
  // fails there, '!' not being a name start (DOM parser parity).
  return scan_element_start();
}

const Token& Tokenizer::scan_element_start() {
  const std::string_view in = input_;
  if (stack_.size() >= kMaxDepth) {
    return emit_error("xml.too-deep", "maximum nesting depth exceeded", pos_);
  }
  const std::size_t tag_start = pos_;
  std::size_t p = pos_ + 1;  // past '<'
  if (p >= in.size() || !is_name_start(in[p])) {
    return emit_error("xml.bad-name", "expected a name", p);
  }
  const std::size_t name_start = p;
  ++p;
  while (p < in.size() && is_name_char(in[p])) ++p;
  const std::string_view name = in.substr(name_start, p - name_start);
  pos_ = p;

  attrs_.clear();
  for (;;) {
    while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
    if (pos_ >= in.size()) {
      return emit_error("xml.unterminated-tag", "unterminated start tag", pos_);
    }
    const bool self_closing = in.substr(pos_, 2) == "/>";
    if (self_closing || in[pos_] == '>') {
      pos_ += self_closing ? 2 : 1;
      Token& token = emit(TokenKind::kStartElement);
      token.name = name;
      token.attrs = attrs_.data();
      token.attr_count = attrs_.size();
      token.self_closing = self_closing;
      token.offset = tag_start;
      if (self_closing) {
        // The matching kEndElement is synthesized by the next call; the
        // element is never pushed, so depth() excludes it.
        pending_end_element_ = true;
        pending_end_name_ = name;
      } else {
        stack_.push_back(name);
      }
      state_ = State::kContent;
      return token;
    }
    if (!scan_attribute()) return token_;  // error already emitted
  }
}

bool Tokenizer::scan_attribute() {
  const std::string_view in = input_;
  if (pos_ >= in.size() || !is_name_start(in[pos_])) {
    emit_error("xml.bad-name", "expected a name", pos_);
    return false;
  }
  const std::size_t name_start = pos_;
  std::size_t p = pos_ + 1;
  while (p < in.size() && is_name_char(in[p])) ++p;
  const std::string_view name = in.substr(name_start, p - name_start);
  pos_ = p;
  while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
  if (pos_ >= in.size() || in[pos_] != '=') {
    emit_error("xml.expected-eq", "expected '=' after attribute", pos_);
    return false;
  }
  ++pos_;
  while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
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
  pos_ = stop;
  if (stop == in.size()) {
    emit_error("xml.unterminated-attr", "unterminated attribute value", pos_);
    return false;
  }
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
  const std::string_view in = input_;
  pos_ += 2;  // past "</"
  if (pos_ >= in.size() || !is_name_start(in[pos_])) {
    return emit_error("xml.bad-name", "expected a name", pos_);
  }
  const std::size_t name_start = pos_;
  std::size_t p = pos_ + 1;
  while (p < in.size() && is_name_char(in[p])) ++p;
  const std::string_view name = in.substr(name_start, p - name_start);
  pos_ = p;
  if (name != stack_.back()) {
    return emit_error("xml.mismatched-tag", "end tag '" + std::string(name) +
                                                "' does not match start tag '" +
                                                std::string(stack_.back()) + "'",
                      pos_);
  }
  while (pos_ < in.size() && is_space(in[pos_])) ++pos_;
  if (pos_ >= in.size() || in[pos_] != '>') {
    return emit_error("xml.bad-end-tag", "malformed end tag", pos_);
  }
  ++pos_;
  stack_.pop_back();
  Token& token = emit(TokenKind::kEndElement);
  token.name = name;
  if (stack_.empty()) state_ = State::kEpilog;
  return token;
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
  }
}

const Token* next_root(Tokenizer& tok) {
  for (;;) {
    const Token& token = tok.next();
    switch (token.kind) {
      case TokenKind::kStartElement:
        return &token;
      case TokenKind::kComment:
      case TokenKind::kPi:
        break;
      default:  // kError; kEndDocument cannot precede a root
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
      default:
        break;
    }
  }
  return true;
}

}  // namespace wsx::xml::pull
