#include "xsd/reader.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <optional>
#include <string>

namespace wsx::xsd {
namespace {

using xml::local_part;
using xml::pull::Token;

/// An occurrence bound: "unbounded", or a decimal read the way std::stoi
/// reads it (leading whitespace and sign accepted, trailing text ignored,
/// nothing parsed or out of int range rejected).
std::optional<int> occurs_value(std::string_view raw) {
  if (raw == "unbounded") return kUnbounded;
  const std::string text(raw);
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || errno == ERANGE || value < INT_MIN || value > INT_MAX) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

class SchemaReader {
 public:
  SchemaReader(xml::pull::Tokenizer& tok, xml::NamespaceScope& scope)
      : tok_(tok), scope_(scope) {}

  Result<Schema> read(const Token& start) {
    scope_.push(start);
    Schema schema;
    if (std::optional<std::string_view> tns = start.attribute("targetNamespace")) {
      schema.target_namespace = std::string(*tns);
    }
    if (std::optional<std::string_view> form = start.attribute("elementFormDefault")) {
      schema.element_form_qualified = (*form == "qualified");
    }
    std::optional<Error> error;
    errors_ = &error;
    const bool ok = children([&](const Token& child) {
      const std::string_view local = local_part(child.name);
      if (local == "import") {
        SchemaImport import;
        import.namespace_uri = std::string(child.attribute("namespace").value_or(""));
        import.schema_location = std::string(child.attribute("schemaLocation").value_or(""));
        schema.imports.push_back(std::move(import));
      } else if (local == "element") {
        return read_element(child, schema.elements.emplace_back());
      } else if (local == "complexType") {
        return read_complex_type(child, schema.complex_types.emplace_back());
      } else if (local == "simpleType") {
        return read_simple_type(child, schema.simple_types.emplace_back());
      }
      // Unknown schema constructs are skipped, as the studied tools do.
      return skip(child);
    });
    scope_.pop();
    if (!ok) return tok_.error();
    if (error) return *std::move(error);
    return schema;
  }

 private:
  template <typename OnChild>
  bool children(OnChild&& on_child) {
    return xml::pull::for_each_child(tok_, on_child);
  }
  bool skip(const Token& start) { return xml::pull::skip_element(tok_, start).ok(); }

  /// Records a semantic error; only the first of the content being read
  /// counts.
  void fail(Error error) {
    if (!errors_->has_value()) *errors_ = std::move(error);
  }

  std::optional<int> read_occurs(const Token& start, std::string_view attr) {
    const std::optional<std::string_view> raw = start.attribute(attr);
    if (!raw) return 1;
    std::optional<int> value = occurs_value(*raw);
    if (!value) {
      fail(Error{"xsd.bad-occurs",
                 "invalid " + std::string(attr) + " value '" + std::string(*raw) + "'"});
    }
    return value;
  }

  bool read_element(const Token& start, ElementDecl& element) {
    scope_.push(start);
    element.name = std::string(start.attribute("name").value_or(""));
    if (std::optional<std::string_view> type = start.attribute("type")) {
      element.type = scope_.resolve_or_unbound(*type);
    }
    if (std::optional<std::string_view> ref = start.attribute("ref")) {
      element.ref = scope_.resolve_or_unbound(*ref);
    }
    if (std::optional<int> min_occurs = read_occurs(start, "minOccurs")) {
      element.min_occurs = *min_occurs;
      if (std::optional<int> max_occurs = read_occurs(start, "maxOccurs")) {
        element.max_occurs = *max_occurs;
      }
    }
    element.nillable = start.attribute("nillable").value_or("false") == "true";
    bool typed = false;
    const bool ok = children([&](const Token& child) {
      if (typed || local_part(child.name) != "complexType") return skip(child);
      typed = true;
      ComplexType type;
      if (!read_complex_type(child, type)) return false;
      element.inline_type = Box<ComplexType>{std::move(type)};
      return true;
    });
    scope_.pop();
    return ok;
  }

  /// Reads the complexType's own content and its first complexContent side
  /// by side, each with its own error slot, then keeps one: a later
  /// extension overrides a sequence already read.
  bool read_complex_type(const Token& start, ComplexType& type) {
    scope_.push(start);
    type.name = std::string(start.attribute("name").value_or(""));
    std::optional<Error>* const outer = errors_;
    std::optional<Error> own_error;
    std::optional<Error> extension_error;
    ComplexType extended;
    bool seen_sequence = false;
    bool seen_complex_content = false;
    bool has_extension = false;
    const bool ok = children([&](const Token& child) {
      if (local_part(child.name) == "complexContent") {
        if (seen_complex_content) return skip(child);
        seen_complex_content = true;
        errors_ = &extension_error;
        const bool read = read_complex_content(child, extended, has_extension);
        errors_ = outer;
        return read;
      }
      errors_ = &own_error;
      const bool read = read_content_child(child, type, seen_sequence);
      errors_ = outer;
      return read;
    });
    scope_.pop();
    if (!ok) return false;
    if (has_extension) {
      extended.name = std::move(type.name);
      type = std::move(extended);
      own_error = std::move(extension_error);
    }
    if (own_error) fail(*std::move(own_error));
    return true;
  }

  bool read_complex_content(const Token& start, ComplexType& extended, bool& has_extension) {
    scope_.push(start);
    const bool ok = children([&](const Token& child) {
      if (has_extension || local_part(child.name) != "extension") return skip(child);
      has_extension = true;
      scope_.push(child);
      if (std::optional<std::string_view> base = child.attribute("base")) {
        extended.base = scope_.resolve_or_unbound(*base);
      }
      bool seen_sequence = false;
      const bool read = children([&](const Token& content) {
        return read_content_child(content, extended, seen_sequence);
      });
      scope_.pop();
      return read;
    });
    scope_.pop();
    return ok;
  }

  /// One child of a content holder (complexType or extension): its first
  /// sequence, and every attribute and attributeGroup. An attribute's own
  /// namespace declarations are not in scope for its type= or ref=.
  bool read_content_child(const Token& child, ComplexType& type, bool& seen_sequence) {
    const std::string_view local = local_part(child.name);
    if (local == "sequence" && !seen_sequence) {
      seen_sequence = true;
      return read_sequence(child, type);
    }
    if (local == "attribute") {
      AttributeDecl& attribute = type.attributes.emplace_back();
      attribute.name = std::string(child.attribute("name").value_or(""));
      if (std::optional<std::string_view> attr_type = child.attribute("type")) {
        attribute.type = scope_.resolve_or_unbound(*attr_type);
      }
      if (std::optional<std::string_view> ref = child.attribute("ref")) {
        attribute.ref = scope_.resolve_or_unbound(*ref);
      }
      attribute.required = child.attribute("use").value_or("") == "required";
    } else if (local == "attributeGroup") {
      if (std::optional<std::string_view> ref = child.attribute("ref")) {
        type.attribute_groups.push_back(AttributeGroupRef{scope_.resolve_or_unbound(*ref)});
      }
    }
    return skip(child);
  }

  bool read_sequence(const Token& start, ComplexType& type) {
    scope_.push(start);
    const bool ok = children([&](const Token& particle) {
      const std::string_view local = local_part(particle.name);
      if (local == "element") {
        return read_element(particle, std::get<ElementDecl>(type.particles.emplace_back()));
      }
      if (local == "any") {
        AnyParticle any;
        any.namespace_constraint = std::string(particle.attribute("namespace").value_or("##any"));
        any.process_contents = std::string(particle.attribute("processContents").value_or("lax"));
        const auto bound = [&](std::string_view attr) -> std::optional<int> {
          const std::optional<std::string_view> raw = particle.attribute(attr);
          return raw ? occurs_value(*raw) : 1;
        };
        const std::optional<int> min_occurs = bound("minOccurs");
        const std::optional<int> max_occurs = bound("maxOccurs");
        if (!min_occurs || !max_occurs) {
          fail(Error{"xsd.bad-occurs", "invalid occurrence bound on xs:any"});
        } else {
          any.min_occurs = *min_occurs;
          any.max_occurs = *max_occurs;
          type.particles.emplace_back(std::move(any));
        }
      }
      return skip(particle);
    });
    scope_.pop();
    return ok;
  }

  bool read_simple_type(const Token& start, SimpleTypeDecl& type) {
    scope_.push(start);
    type.name = std::string(start.attribute("name").value_or(""));
    bool restricted = false;
    const bool ok = children([&](const Token& child) {
      if (restricted || local_part(child.name) != "restriction") return skip(child);
      restricted = true;
      return read_restriction(child, type);
    });
    scope_.pop();
    return ok;
  }

  bool read_restriction(const Token& start, SimpleTypeDecl& type) {
    scope_.push(start);
    if (std::optional<std::string_view> base = start.attribute("base")) {
      type.base = scope_.resolve_or_unbound(*base);
    }
    bool seen_min_length = false;
    bool seen_max_length = false;
    bool seen_total_digits = false;
    bool seen_pattern = false;
    const auto int_facet = [](const Token& facet, bool& seen, int& out) {
      if (seen) return;
      seen = true;
      if (std::optional<std::string_view> value = facet.attribute("value")) {
        out = std::atoi(std::string(*value).c_str());
      }
    };
    const bool ok = children([&](const Token& facet) {
      const std::string_view local = local_part(facet.name);
      if (local == "enumeration") {
        type.enumeration.emplace_back(facet.attribute("value").value_or(""));
      } else if (local == "minLength") {
        int_facet(facet, seen_min_length, type.min_length);
      } else if (local == "maxLength") {
        int_facet(facet, seen_max_length, type.max_length);
      } else if (local == "totalDigits") {
        int_facet(facet, seen_total_digits, type.total_digits);
      } else if (local == "pattern" && !seen_pattern) {
        seen_pattern = true;
        type.pattern = std::string(facet.attribute("value").value_or(""));
      }
      return skip(facet);
    });
    scope_.pop();
    return ok;
  }

  xml::pull::Tokenizer& tok_;
  xml::NamespaceScope& scope_;
  std::optional<Error>* errors_ = nullptr;  ///< where fail() records
};

}  // namespace

Result<Schema> read_schema(xml::pull::Tokenizer& tok, const Token& start,
                           xml::NamespaceScope& scope) {
  return SchemaReader{tok, scope}.read(start);
}

Result<Schema> parse(std::string_view text) {
  xml::pull::Tokenizer tok{text};
  const Token* root = xml::pull::next_root(tok);
  if (root == nullptr) return tok.error();
  xml::NamespaceScope scope;
  Result<Schema> schema =
      local_part(root->name) == "schema"
          ? read_schema(tok, *root, scope)
          : Error{"xsd.not-a-schema",
                  "expected an xs:schema element, got '" + std::string(root->name) + "'"};
  // An xml.* error anywhere in the document outranks an xsd.* one.
  if (Result<bool> rest = xml::pull::drain(tok); !rest.ok()) return rest.error();
  return schema;
}

}  // namespace wsx::xsd
