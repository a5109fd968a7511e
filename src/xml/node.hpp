// node.hpp — a small, value-semantic XML DOM.
//
// The tree is deliberately simple: elements, text, CDATA and comments.
// Namespace handling follows the XML Namespaces recommendation: prefixes
// are declared via xmlns/xmlns:p attributes and resolved lexically.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "xml/qname.hpp"

namespace wsx::xml {

struct Text {
  std::string value;
  friend bool operator==(const Text&, const Text&) = default;
};

struct CData {
  std::string value;
  friend bool operator==(const CData&, const CData&) = default;
};

struct Comment {
  std::string value;
  friend bool operator==(const Comment&, const Comment&) = default;
};

struct Attribute {
  std::string name;  ///< lexical name, possibly prefixed ("xsi:type")
  std::string value;
  friend bool operator==(const Attribute&, const Attribute&) = default;
};

struct Node;  // defined below; vector<Node> of incomplete type is valid C++17+

/// An XML element. Element names are stored lexically (optionally prefixed);
/// namespace resolution happens via NamespaceScope (see query.hpp) so a
/// serialized-then-reparsed tree behaves identically to the original.
class Element {
 public:
  Element() = default;
  explicit Element(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Local part of a possibly-prefixed lexical name.
  std::string local_name() const;
  /// Prefix of the lexical name, or "" when unprefixed.
  std::string prefix() const;

  const std::vector<Attribute>& attributes() const { return attributes_; }
  std::vector<Attribute>& attributes() { return attributes_; }
  /// Returns attribute value by lexical name, or nullopt.
  std::optional<std::string> attribute(std::string_view name) const;
  /// Sets (or replaces) an attribute.
  Element& set_attribute(std::string name, std::string value);
  bool has_attribute(std::string_view name) const { return attribute(name).has_value(); }

  const std::vector<Node>& children() const { return children_; }
  std::vector<Node>& children() { return children_; }

  /// Appends a child element and returns a reference to the stored copy.
  Element& add_child(Element child);
  Element& add_element(std::string name);  ///< convenience: add_child(Element{name})
  void add_text(std::string text);
  void add_cdata(std::string text);
  void add_comment(std::string text);

  /// Concatenation of all direct Text/CData children.
  std::string text() const&;
  /// The same, moved out of a lone Text/CData child instead of copied.
  std::string text() &&;

  /// Direct child elements (filtering out text/comments).
  std::vector<const Element*> child_elements() const;
  std::vector<Element*> child_elements();
  /// First direct child element with the given lexical local name, or nullptr.
  const Element* child(std::string_view local_name) const;
  Element* child(std::string_view local_name);
  /// All direct child elements with the given lexical local name.
  std::vector<const Element*> children_named(std::string_view local_name) const;

  /// Removes the first direct child element with the given lexical local
  /// name; returns true when one was removed.
  bool remove_child(std::string_view local_name);
  /// Removes the attribute with the given lexical name; true when removed.
  bool remove_attribute(std::string_view name);
  /// Inserts a child element at the front (before all existing children).
  Element& prepend_child(Element child);

  /// Declares a namespace: xmlns:prefix="uri" (or default xmlns when prefix
  /// is empty).
  Element& declare_namespace(std::string_view prefix, std::string_view uri);

  /// 1-based position of the start tag in the parsed source; 0 when the
  /// element was built programmatically. Excluded from operator== so a
  /// serialized-then-reparsed tree still compares equal to the original.
  std::size_t source_line() const { return source_line_; }
  std::size_t source_column() const { return source_column_; }
  void set_source_location(std::size_t line, std::size_t column) {
    source_line_ = line;
    source_column_ = column;
  }

  friend bool operator==(const Element&, const Element&);

 private:
  std::string name_;
  std::vector<Attribute> attributes_;
  std::vector<Node> children_;
  std::size_t source_line_ = 0;
  std::size_t source_column_ = 0;
};

struct Node : std::variant<Element, Text, CData, Comment> {
  using variant::variant;

  bool is_element() const { return std::holds_alternative<Element>(*this); }
  const Element* as_element() const { return std::get_if<Element>(this); }
  Element* as_element() { return std::get_if<Element>(this); }
};

bool operator==(const Element& a, const Element& b);

}  // namespace wsx::xml
