#include "xml/node.hpp"

#include <algorithm>
#include <utility>

namespace wsx::xml {

std::string Element::local_name() const {
  const std::size_t pos = name_.find(':');
  return pos == std::string::npos ? name_ : name_.substr(pos + 1);
}

std::string Element::prefix() const {
  const std::size_t pos = name_.find(':');
  return pos == std::string::npos ? std::string{} : name_.substr(0, pos);
}

std::optional<std::string> Element::attribute(std::string_view name) const {
  for (const Attribute& attr : attributes_) {
    if (attr.name == name) return attr.value;
  }
  return std::nullopt;
}

Element& Element::set_attribute(std::string name, std::string value) {
  for (Attribute& attr : attributes_) {
    if (attr.name == name) {
      attr.value = std::move(value);
      return *this;
    }
  }
  attributes_.push_back({std::move(name), std::move(value)});
  return *this;
}

Element& Element::add_child(Element child) {
  children_.emplace_back(std::move(child));
  return *children_.back().as_element();
}

Element& Element::add_element(std::string name) { return add_child(Element{std::move(name)}); }

void Element::add_text(std::string text) { children_.emplace_back(Text{std::move(text)}); }
void Element::add_cdata(std::string text) { children_.emplace_back(CData{std::move(text)}); }
void Element::add_comment(std::string text) { children_.emplace_back(Comment{std::move(text)}); }

std::string Element::text() const& {
  std::string out;
  for (const Node& node : children_) {
    if (const Text* t = std::get_if<Text>(&node)) out += t->value;
    if (const CData* c = std::get_if<CData>(&node)) out += c->value;
  }
  return out;
}

std::string Element::text() && {
  if (children_.size() == 1) {
    if (Text* t = std::get_if<Text>(&children_.front())) return std::move(t->value);
    if (CData* c = std::get_if<CData>(&children_.front())) return std::move(c->value);
  }
  return std::as_const(*this).text();
}

std::vector<const Element*> Element::child_elements() const {
  std::vector<const Element*> out;
  for (const Node& node : children_) {
    if (const Element* e = node.as_element()) out.push_back(e);
  }
  return out;
}

std::vector<Element*> Element::child_elements() {
  std::vector<Element*> out;
  for (Node& node : children_) {
    if (Element* e = node.as_element()) out.push_back(e);
  }
  return out;
}

const Element* Element::child(std::string_view local_name) const {
  for (const Node& node : children_) {
    if (const Element* e = node.as_element()) {
      if (local_part(e->name()) == local_name) return e;
    }
  }
  return nullptr;
}

Element* Element::child(std::string_view local_name) {
  for (Node& node : children_) {
    if (Element* e = node.as_element()) {
      if (local_part(e->name()) == local_name) return e;
    }
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(std::string_view local_name) const {
  std::vector<const Element*> out;
  for (const Node& node : children_) {
    if (const Element* e = node.as_element()) {
      if (local_part(e->name()) == local_name) out.push_back(e);
    }
  }
  return out;
}

bool Element::remove_child(std::string_view local_name) {
  for (auto it = children_.begin(); it != children_.end(); ++it) {
    if (const Element* element = it->as_element()) {
      if (local_part(element->name()) == local_name) {
        children_.erase(it);
        return true;
      }
    }
  }
  return false;
}

bool Element::remove_attribute(std::string_view name) {
  for (auto it = attributes_.begin(); it != attributes_.end(); ++it) {
    if (it->name == name) {
      attributes_.erase(it);
      return true;
    }
  }
  return false;
}

Element& Element::prepend_child(Element child) {
  children_.insert(children_.begin(), Node{std::move(child)});
  return *children_.front().as_element();
}

Element& Element::declare_namespace(std::string_view prefix, std::string_view uri) {
  const std::string attr_name =
      prefix.empty() ? std::string{"xmlns"} : "xmlns:" + std::string(prefix);
  return set_attribute(attr_name, std::string(uri));
}

bool operator==(const Element& a, const Element& b) {
  return a.name_ == b.name_ && a.attributes_ == b.attributes_ && a.children_ == b.children_;
}

}  // namespace wsx::xml
