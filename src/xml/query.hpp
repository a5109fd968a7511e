// query.hpp — namespace resolution and tree queries over parsed XML.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xml/node.hpp"
#include "xml/pull.hpp"
#include "xml/qname.hpp"

namespace wsx::xml {

/// Lexically-scoped namespace environment. Push a frame per element while
/// walking the tree; lookups see the innermost binding of a prefix.
class NamespaceScope {
 public:
  NamespaceScope();

  /// Pushes the declarations found on `element` (xmlns / xmlns:p attributes).
  void push(const Element& element);
  /// Pushes the declarations on a start tag read off the token stream.
  void push(const pull::Token& start_tag);
  void pop();

  /// The URI bound to `prefix` (valid until the scope is mutated), or
  /// nullptr when the prefix is undeclared. The empty prefix looks up the
  /// default namespace; "xml" is always bound per the XML spec.
  const std::string* find_prefix(std::string_view prefix) const;

  /// Resolves a lexical QName ("p:local" or "local"). Unprefixed names take
  /// the default namespace when `use_default_ns` is set (element names do;
  /// attribute names and many WSDL attribute values do not).
  std::optional<QName> resolve(std::string_view lexical, bool use_default_ns = true) const;

  /// resolve(), except that a name whose prefix is unbound comes back
  /// unqualified as QName{"", local, prefix}, so a later resolution step
  /// can report the prefix.
  QName resolve_or_unbound(std::string_view lexical) const;

 private:
  struct Binding {
    std::string prefix;
    std::string uri;
  };
  void push_frame() { frame_starts_.push_back(bindings_.size()); }
  void declare(std::string_view attr_name, std::string_view value);

  /// Every frame's bindings, outermost first; frame i starts at
  /// frame_starts_[i]. One flat vector, so a push without declarations
  /// allocates nothing.
  std::vector<Binding> bindings_;
  std::vector<std::size_t> frame_starts_;
};

/// An element name resolved off its start tag alone.
struct StartTagName {
  bool resolved = false;  ///< false: the name's prefix is not bound
  std::string_view local;
  std::string_view uri;  ///< "" for an unprefixed name with no default namespace
};

/// Resolves `start_tag`'s element name as NamespaceScope::resolve does in a
/// scope that holds only the tag's own declarations, without building the
/// scope. The views alias the token (or ns::kXmlNs), so they live as long
/// as the token's text does.
StartTagName resolve_start_tag(const pull::Token& start_tag);

/// Walks the tree depth-first, maintaining a NamespaceScope, and invokes
/// `visit(element, scope)` for every element (including the root).
void walk(const Element& root,
          const std::function<void(const Element&, const NamespaceScope&)>& visit);

/// All descendant (not self) elements whose resolved QName equals `name`.
std::vector<const Element*> find_all(const Element& root, const QName& name);

/// First descendant element with the given resolved QName, or nullptr.
const Element* find_first(const Element& root, const QName& name);

/// Depth-first search (self included) for the first element satisfying
/// `predicate`; mutable variant for tree editing.
Element* find_descendant(Element& root, const std::function<bool(const Element&)>& predicate);
const Element* find_descendant(const Element& root,
                               const std::function<bool(const Element&)>& predicate);

}  // namespace wsx::xml
