#include "xml/query.hpp"

#include "common/strings.hpp"

namespace wsx::xml {

namespace {

/// The prefix an attribute declares: "" for `xmlns` (and `xmlns:`), "p"
/// for `xmlns:p`; nullopt when the attribute declares none.
std::optional<std::string_view> declared_prefix(std::string_view attr_name) {
  if (attr_name == "xmlns") return std::string_view{};
  if (starts_with(attr_name, "xmlns:")) return attr_name.substr(6);
  return std::nullopt;
}

/// find_prefix for a scope holding only `start_tag`'s declarations: the
/// tag's first declaration of `prefix`, else the always-bound `xml`.
std::optional<std::string_view> bound_namespace(const pull::Token& start_tag,
                                                std::string_view prefix) {
  for (std::size_t i = 0; i < start_tag.attr_count; ++i) {
    if (declared_prefix(start_tag.attrs[i].name) == prefix) return start_tag.attrs[i].value;
  }
  if (prefix == "xml") return ns::kXmlNs;
  return std::nullopt;
}

}  // namespace

NamespaceScope::NamespaceScope() {
  // Room for a document root's declarations and a schema's nesting, so a
  // parse grows neither vector.
  bindings_.reserve(8);
  frame_starts_.reserve(16);
  push_frame();
  bindings_.push_back({"xml", std::string(ns::kXmlNs)});
}

void NamespaceScope::declare(std::string_view attr_name, std::string_view value) {
  if (const std::optional<std::string_view> prefix = declared_prefix(attr_name)) {
    bindings_.push_back({std::string(*prefix), std::string(value)});
  }
}

void NamespaceScope::push(const Element& element) {
  push_frame();
  for (const Attribute& attr : element.attributes()) declare(attr.name, attr.value);
}

void NamespaceScope::push(const pull::Token& start_tag) {
  push_frame();
  for (std::size_t i = 0; i < start_tag.attr_count; ++i) {
    declare(start_tag.attrs[i].name, start_tag.attrs[i].value);
  }
}

void NamespaceScope::pop() {
  if (frame_starts_.size() <= 1) return;
  bindings_.erase(bindings_.begin() + static_cast<std::ptrdiff_t>(frame_starts_.back()),
                  bindings_.end());
  frame_starts_.pop_back();
}

const std::string* NamespaceScope::find_prefix(std::string_view prefix) const {
  // Innermost frame first; within a frame, the first declaration wins.
  std::size_t end = bindings_.size();
  for (auto start = frame_starts_.rbegin(); start != frame_starts_.rend(); ++start) {
    for (std::size_t i = *start; i < end; ++i) {
      if (bindings_[i].prefix == prefix) return &bindings_[i].uri;
    }
    end = *start;
  }
  return nullptr;
}

std::optional<QName> NamespaceScope::resolve(std::string_view lexical,
                                             bool use_default_ns) const {
  const std::size_t colon = lexical.find(':');
  if (colon == std::string_view::npos) {
    std::string uri;
    if (use_default_ns) {
      if (const std::string* resolved = find_prefix("")) uri = *resolved;
    }
    return QName{std::move(uri), std::string(lexical)};
  }
  const std::string_view prefix = lexical.substr(0, colon);
  const std::string_view local = lexical.substr(colon + 1);
  const std::string* uri = find_prefix(prefix);
  if (uri == nullptr) return std::nullopt;  // undeclared prefix — caller decides severity
  return QName{*uri, std::string(local), std::string(prefix)};
}

QName NamespaceScope::resolve_or_unbound(std::string_view lexical) const {
  if (std::optional<QName> resolved = resolve(lexical)) return *std::move(resolved);
  return QName{"", std::string(local_part(lexical)), std::string(prefix_part(lexical))};
}

StartTagName resolve_start_tag(const pull::Token& start_tag) {
  // resolve() above, step for step, with bound_namespace as find_prefix.
  const std::string_view lexical = start_tag.name;
  const std::size_t colon = lexical.find(':');
  if (colon == std::string_view::npos) {
    return {true, lexical, bound_namespace(start_tag, "").value_or(std::string_view{})};
  }
  const std::optional<std::string_view> uri = bound_namespace(start_tag, lexical.substr(0, colon));
  if (!uri) return {};
  return {true, lexical.substr(colon + 1), *uri};
}

namespace {

void walk_impl(const Element& element, NamespaceScope& scope,
               const std::function<void(const Element&, const NamespaceScope&)>& visit) {
  scope.push(element);
  visit(element, scope);
  for (const Node& node : element.children()) {
    if (const Element* child = node.as_element()) walk_impl(*child, scope, visit);
  }
  scope.pop();
}

}  // namespace

void walk(const Element& root,
          const std::function<void(const Element&, const NamespaceScope&)>& visit) {
  NamespaceScope scope;
  walk_impl(root, scope, visit);
}

std::vector<const Element*> find_all(const Element& root, const QName& name) {
  std::vector<const Element*> out;
  walk(root, [&](const Element& element, const NamespaceScope& scope) {
    if (&element == &root) return;
    std::optional<QName> resolved = scope.resolve(element.name());
    if (resolved && *resolved == name) out.push_back(&element);
  });
  return out;
}

const Element* find_first(const Element& root, const QName& name) {
  std::vector<const Element*> all = find_all(root, name);
  return all.empty() ? nullptr : all.front();
}

Element* find_descendant(Element& root,
                         const std::function<bool(const Element&)>& predicate) {
  if (predicate(root)) return &root;
  for (Node& node : root.children()) {
    if (Element* child = node.as_element()) {
      if (Element* found = find_descendant(*child, predicate)) return found;
    }
  }
  return nullptr;
}

const Element* find_descendant(const Element& root,
                               const std::function<bool(const Element&)>& predicate) {
  return find_descendant(const_cast<Element&>(root), predicate);
}

}  // namespace wsx::xml
