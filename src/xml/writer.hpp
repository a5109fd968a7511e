// writer.hpp — XML serializer.
//
// One serializer, two drivers: the WSDL and XSD writers drive the Emitter
// straight from their models, and write(Element) walks a DOM tree over the
// same Emitter, so every XML byte the stack produces has the same layout.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/small_vector.hpp"
#include "xml/node.hpp"

namespace wsx::xml {

struct WriteOptions {
  bool pretty = true;  ///< indent nested elements two spaces a level
};

/// Writes XML onto one string, one call per construct.
///
/// Layout (with `pretty`): every element starts on its own indented line.
/// An element with no content is written `<name/>`; one whose content is
/// only character data stays on its line (`<name>text</name>`); any other
/// element puts each child on its own line, one indent deeper, and its end
/// tag on a line of its own. The caller must open an element with start(),
/// add its attributes before any content, and close it with end().
class Emitter {
 public:
  explicit Emitter(const WriteOptions& options = {}) : options_(options) {
    // One allocation holds a whole SOAP envelope; larger documents grow
    // from there instead of from empty.
    out_.reserve(512);
  }

  /// `<?xml version="1.0" encoding="UTF-8"?>` on a line of its own.
  void declaration();

  /// Opens `<name`.
  void start(std::string_view name);
  /// Opens `<prefix:local` (the colon is written even when `prefix` is
  /// empty, as the lexical name "prefix" + ":" + "local" would be).
  void start(std::string_view prefix, std::string_view local);
  /// Adds ` name="value"` (escaped) to the open start tag.
  void attr(std::string_view name, std::string_view value);

  /// Character data (escaped). Stays on the element's line unless the
  /// element already holds child lines or was switched to them by lines().
  void text(std::string_view value);
  /// `<![CDATA[value]]>`, laid out like text().
  void cdata(std::string_view value);
  /// `<!--value-->` on its own line.
  void comment(std::string_view value);
  /// Lays the open element's content out one child per line. start() and
  /// comment() imply it; call it first when character data precedes a
  /// child element or comment (mixed content).
  void lines();

  /// Closes the innermost open element.
  void end();

  /// Writes a DOM subtree at the current position.
  void element(const Element& element);

  /// The document written so far; the emitter is empty afterwards.
  std::string take() { return std::move(out_); }

 private:
  enum class Content : unsigned char { kNone, kInline, kLines };
  struct Open {
    std::size_t name_at;  ///< offset of the element's name in out_
    std::size_t name_size;
    Content content;
  };

  void open_tag(std::size_t name_size);
  /// Places character data: on its own indented line when the open
  /// element lays its content out in lines (returns true; the caller ends
  /// the line), else inline after the start tag.
  bool begin_character_data();
  void indent(std::size_t depth);
  void newline();

  WriteOptions options_;
  std::string out_;
  common::SmallVector<Open, 16> open_;  ///< open elements, innermost last
};

/// Start-tag attributes collected with Element::set_attribute's rule: a
/// repeated name keeps its first position and takes the last value. For
/// start tags whose names can repeat, such as a root that declares both
/// the writer's own prefixes and a model's extra namespaces.
class AttributeList {
 public:
  AttributeList() { items_.reserve(8); }

  void set(std::string name, std::string_view value);
  /// xmlns:prefix="uri", or xmlns="uri" for the empty prefix.
  void declare_namespace(std::string_view prefix, std::string_view uri);
  void write(Emitter& out) const;

 private:
  std::vector<std::pair<std::string, std::string_view>> items_;
};

/// The XML declaration, then `root`.
std::string write(const Element& root, const WriteOptions& options = {});

}  // namespace wsx::xml
