#include "xml/writer.hpp"

#include <array>

namespace wsx::xml {
namespace {

// Escape classes per byte: most values contain nothing to escape, so the
// writer scans with a table lookup and bulk-appends the clean runs instead
// of appending character by character. Output bytes are identical to the
// historical per-character writer: '<' '>' '&' always escape, '"' only
// inside attribute values, '\'' never.
enum : unsigned char { kEscapeInText = 1, kEscapeInAttr = 2 };

constexpr std::array<unsigned char, 256> build_escape_classes() {
  std::array<unsigned char, 256> table{};
  table['<'] = table['>'] = table['&'] = kEscapeInText | kEscapeInAttr;
  table['"'] = kEscapeInAttr;
  return table;
}

constexpr std::array<unsigned char, 256> kEscapeClass = build_escape_classes();

void append_escaped(std::string& out, std::string_view text, bool in_attribute) {
  const unsigned char mask = in_attribute ? kEscapeInAttr : kEscapeInText;
  std::size_t clean_start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if ((kEscapeClass[static_cast<unsigned char>(text[i])] & mask) == 0) continue;
    out.append(text, clean_start, i - clean_start);
    switch (text[i]) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      default:  // '"', only reachable with the attribute mask
        out += "&quot;";
    }
    clean_start = i + 1;
  }
  out.append(text, clean_start, text.size() - clean_start);
}

bool is_text_only(const Element& element) {
  for (const Node& node : element.children()) {
    if (node.is_element() || std::holds_alternative<Comment>(node)) return false;
  }
  return true;
}

}  // namespace

void Emitter::declaration() {
  out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  newline();
}

void Emitter::open_tag(std::size_t name_size) {
  if (!open_.empty()) lines();
  indent(open_.size());
  out_ += '<';
  open_.push_back(Open{out_.size(), name_size, Content::kNone});
}

void Emitter::start(std::string_view name) {
  open_tag(name.size());
  out_ += name;
}

void Emitter::start(std::string_view prefix, std::string_view local) {
  open_tag(prefix.size() + 1 + local.size());
  out_ += prefix;
  out_ += ':';
  out_ += local;
}

void Emitter::attr(std::string_view name, std::string_view value) {
  out_ += ' ';
  out_ += name;
  out_ += "=\"";
  append_escaped(out_, value, /*in_attribute=*/true);
  out_ += '"';
}

void Emitter::text(std::string_view value) {
  const bool own_line = begin_character_data();
  append_escaped(out_, value, /*in_attribute=*/false);
  if (own_line) newline();
}

void Emitter::cdata(std::string_view value) {
  const bool own_line = begin_character_data();
  out_ += "<![CDATA[";
  out_ += value;
  out_ += "]]>";
  if (own_line) newline();
}

bool Emitter::begin_character_data() {
  Open& top = open_.back();
  if (top.content == Content::kLines) {
    indent(open_.size());
    return true;
  }
  if (top.content == Content::kNone) out_ += '>';
  top.content = Content::kInline;
  return false;
}

void Emitter::comment(std::string_view value) {
  lines();
  indent(open_.size());
  out_ += "<!--";
  out_ += value;
  out_ += "-->";
  newline();
}

void Emitter::lines() {
  Open& top = open_.back();
  if (top.content == Content::kLines) return;
  if (top.content == Content::kNone) out_ += '>';
  top.content = Content::kLines;
  newline();
}

void Emitter::end() {
  const Open top = open_.back();
  open_.pop_back();
  if (top.content == Content::kNone) {
    out_ += "/>";
  } else {
    if (top.content == Content::kLines) indent(open_.size());
    // The end tag repeats the name already written in the start tag. With
    // the capacity reserved first, the copy reads from a buffer that the
    // append cannot move.
    out_.reserve(out_.size() + top.name_size + 3);
    out_ += "</";
    out_.append(out_.data() + top.name_at, top.name_size);
    out_ += '>';
  }
  newline();
}

void Emitter::element(const Element& element) {
  start(element.name());
  for (const Attribute& attribute : element.attributes()) attr(attribute.name, attribute.value);
  if (!element.children().empty() && !is_text_only(element)) lines();
  for (const Node& node : element.children()) {
    if (const Element* child = node.as_element()) {
      this->element(*child);
    } else if (const Text* text_node = std::get_if<Text>(&node)) {
      text(text_node->value);
    } else if (const CData* cdata_node = std::get_if<CData>(&node)) {
      cdata(cdata_node->value);
    } else if (const Comment* comment_node = std::get_if<Comment>(&node)) {
      comment(comment_node->value);
    }
  }
  end();
}

void Emitter::indent(std::size_t depth) {
  if (options_.pretty) out_.append(depth * 2, ' ');
}

void Emitter::newline() {
  if (options_.pretty) out_ += '\n';
}

void AttributeList::set(std::string name, std::string_view value) {
  for (auto& [existing, existing_value] : items_) {
    if (existing == name) {
      existing_value = value;
      return;
    }
  }
  items_.emplace_back(std::move(name), value);
}

void AttributeList::declare_namespace(std::string_view prefix, std::string_view uri) {
  set(prefix.empty() ? std::string{"xmlns"} : "xmlns:" + std::string(prefix), uri);
}

void AttributeList::write(Emitter& out) const {
  for (const auto& [name, value] : items_) out.attr(name, value);
}

std::string write(const Element& root, const WriteOptions& options) {
  Emitter out{options};
  out.declaration();
  out.element(root);
  return out.take();
}

}  // namespace wsx::xml
