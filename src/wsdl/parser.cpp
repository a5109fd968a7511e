#include "wsdl/parser.hpp"

#include <initializer_list>
#include <optional>
#include <string>

#include "common/strings.hpp"
#include "xml/parser.hpp"
#include "xml/query.hpp"
#include "xsd/reader.hpp"

namespace wsx::wsdl {
namespace {

using xml::local_part;
using xml::pull::Token;
using xml::pull::TokenKind;

/// Extracts the local part of "tns:Name" style message references.
std::string message_name(std::string_view lexical) { return std::string(local_part(lexical)); }

std::string attribute_or_empty(const Token& start, std::string_view name) {
  return std::string(start.attribute(name).value_or(""));
}

/// Reads one WSDL document off a pull tokenizer. Every read_* function is
/// handed a start tag and consumes the element through its end tag; it
/// returns false to stop the walk, either because the tokenizer failed or
/// because error_ now holds the document's wsdl.* / xsd.* error.
class WsdlReader {
 public:
  explicit WsdlReader(std::string_view text) : tok_(text) {}

  Result<Definitions> read() {
    const Token* root = xml::pull::next_root(tok_);
    if (root == nullptr) return tok_.error();
    if (local_part(root->name) != "definitions") {
      error_ = Error{"wsdl.not-a-wsdl",
                     "expected wsdl:definitions, got '" + std::string(root->name) + "'"};
      return finish();
    }
    scope_.push(*root);
    defs_.name = attribute_or_empty(*root, "name");
    defs_.target_namespace = attribute_or_empty(*root, "targetNamespace");
    record_location(*root, {"definitions:"});
    for (std::size_t i = 0; i < root->attr_count; ++i) {
      constexpr std::string_view kXmlnsPrefix = "xmlns:";
      const xml::pull::AttrView& attr = root->attrs[i];
      if (starts_with(attr.name, kXmlnsPrefix)) {
        defs_.extra_namespaces.emplace_back(attr.name.substr(kXmlnsPrefix.size()), attr.value);
      }
    }
    // Stops at the first wsdl.* / xsd.* error; finish() reads on either way.
    children([&](const Token& child) { return read_root_child(child); });
    return finish();
  }

 private:
  template <typename OnChild>
  bool children(OnChild&& on_child) {
    return xml::pull::for_each_child(tok_, on_child);
  }
  bool skip(const Token& start) { return xml::pull::skip_element(tok_, start).ok(); }

  /// Reads the rest of the document, so that an xml.* error anywhere in it
  /// takes precedence over a wsdl.* / xsd.* error found earlier.
  Result<Definitions> finish() {
    if (Result<bool> rest = xml::pull::drain(tok_); !rest.ok()) return rest.error();
    if (error_) return *std::move(error_);
    return std::move(defs_);
  }

  /// Records the start tag's position under the key its pieces spell
  /// ("kind:name", e.g. "message:echo" or "operation:EchoPort/echo").
  void record_location(const Token& start, std::initializer_list<std::string_view> key_pieces) {
    std::size_t size = 0;
    for (const std::string_view piece : key_pieces) size += piece.size();
    std::string key;
    key.reserve(size);
    for (const std::string_view piece : key_pieces) key += piece;
    const xml::pull::Tokenizer::Location location = tok_.location(start.offset);
    defs_.source_locations[std::move(key)] = SourceLocation{"", location.line, location.column};
  }

  /// Resolves a QName-valued attribute with the declarations in force plus
  /// those on the start tag itself (not those of its ancestors below the
  /// root: a message's declarations are not in scope for its parts).
  xml::QName resolve_qname_attr(const Token& start, std::string_view attr) {
    const std::optional<std::string_view> raw = start.attribute(attr);
    if (!raw) return {};
    scope_.push(start);
    xml::QName resolved = scope_.resolve_or_unbound(*raw);
    scope_.pop();
    return resolved;
  }

  bool read_root_child(const Token& child) {
    const std::string_view local = local_part(child.name);
    // Prefix-only lookup against the root's declarations: a prefix the
    // child declares on itself does not make it a WSDL element.
    const std::string* ns_uri = scope_.find_prefix(xml::prefix_part(child.name));
    const bool is_wsdl_ns = ns_uri != nullptr && *ns_uri == xml::ns::kWsdl;
    if (is_wsdl_ns && local == "documentation") return read_documentation();
    if (is_wsdl_ns && local == "import") {
      WsdlImport& import = defs_.imports.emplace_back();
      import.namespace_uri = attribute_or_empty(child, "namespace");
      import.location = attribute_or_empty(child, "location");
      record_location(child, {"import:", import.namespace_uri});
      return skip(child);
    }
    if (is_wsdl_ns && local == "types") return read_types(child);
    if (is_wsdl_ns && local == "message") return read_message(child);
    if (is_wsdl_ns && local == "portType") return read_port_type(child);
    if (is_wsdl_ns && local == "binding") return read_binding(child);
    if (is_wsdl_ns && local == "service") return read_service(child);
    // Vendor extension element — preserve verbatim.
    Result<xml::Element> extension = xml::collect_element(tok_, child, xml::Positions::kRecord);
    if (!extension.ok()) return false;
    defs_.extension_elements.push_back(std::move(extension.value()));
    return true;
  }

  /// The element's own character data (CDATA included; whitespace-only runs
  /// dropped, as the DOM drops them); nested elements are skipped.
  bool read_documentation() {
    std::string text;
    for (;;) {
      const Token& token = tok_.next();
      switch (token.kind) {
        case TokenKind::kStartElement:
          if (!skip(token)) return false;
          break;
        case TokenKind::kEndElement:
          defs_.documentation = std::move(text);
          return true;
        case TokenKind::kText:
          if (!trim(token.value).empty()) text += token.value;
          break;
        case TokenKind::kCData:
          text += token.value;
          break;
        case TokenKind::kError:
          return false;
        default:
          break;
      }
    }
  }

  bool read_types(const Token& start) {
    scope_.push(start);
    const bool ok = children([&](const Token& child) {
      if (local_part(child.name) != "schema") return skip(child);
      Result<xsd::Schema> schema = xsd::read_schema(tok_, child, scope_);
      if (!schema.ok()) {
        error_ = schema.error();
        return false;
      }
      defs_.schemas.push_back(std::move(schema.value()));
      return true;
    });
    scope_.pop();
    return ok;
  }

  bool read_message(const Token& start) {
    Message& message = defs_.messages.emplace_back();
    message.name = attribute_or_empty(start, "name");
    record_location(start, {"message:", message.name});
    return children([&](const Token& child) {
      if (local_part(child.name) == "part") {
        Part& part = message.parts.emplace_back();
        part.name = attribute_or_empty(child, "name");
        part.element = resolve_qname_attr(child, "element");
        part.type = resolve_qname_attr(child, "type");
      }
      return skip(child);
    });
  }

  bool read_port_type(const Token& start) {
    PortType& port_type = defs_.port_types.emplace_back();
    port_type.name = attribute_or_empty(start, "name");
    record_location(start, {"portType:", port_type.name});
    return children([&](const Token& child) {
      if (local_part(child.name) != "operation") return skip(child);
      Operation& operation = port_type.operations.emplace_back();
      operation.name = attribute_or_empty(child, "name");
      record_location(child, {"operation:", port_type.name, "/", operation.name});
      bool seen_input = false;
      bool seen_output = false;
      return children([&](const Token& io) {
        const std::string_view local = local_part(io.name);
        if (local == "input" && !seen_input) {
          seen_input = true;
          operation.input_message = message_name(io.attribute("message").value_or(""));
        } else if (local == "output" && !seen_output) {
          seen_output = true;
          operation.output_message = message_name(io.attribute("message").value_or(""));
        } else if (local == "fault") {
          FaultRef& fault = operation.faults.emplace_back();
          fault.name = attribute_or_empty(io, "name");
          fault.message = message_name(io.attribute("message").value_or(""));
        }
        return skip(io);
      });
    });
  }

  bool read_binding(const Token& start) {
    Binding& binding = defs_.bindings.emplace_back();
    binding.name = attribute_or_empty(start, "name");
    binding.port_type = resolve_qname_attr(start, "type");
    record_location(start, {"binding:", binding.name});
    bool seen_soap_binding = false;
    return children([&](const Token& child) {
      const std::string_view local = local_part(child.name);
      if (local == "binding" && !seen_soap_binding) {
        seen_soap_binding = true;
        binding.transport = attribute_or_empty(child, "transport");
        const std::string_view style = child.attribute("style").value_or("document");
        if (style == "rpc") {
          binding.style = SoapStyle::kRpc;
        } else if (style == "document") {
          binding.style = SoapStyle::kDocument;
        } else {
          error_ = Error{"wsdl.bad-style",
                         "unknown soap:binding style '" + std::string(style) + "'"};
          return false;
        }
      } else if (local == "operation") {
        return read_binding_operation(child, binding.operations.emplace_back());
      }
      return skip(child);
    });
  }

  bool read_binding_operation(const Token& start, BindingOperation& operation) {
    operation.name = attribute_or_empty(start, "name");
    operation.has_soap_action = false;  // until a soap:operation says otherwise
    bool seen_soap_operation = false;
    bool seen_input = false;
    bool seen_output = false;
    return children([&](const Token& child) {
      const std::string_view local = local_part(child.name);
      if (local == "operation" && !seen_soap_operation) {
        seen_soap_operation = true;
        const std::optional<std::string_view> action = child.attribute("soapAction");
        operation.has_soap_action = action.has_value();
        operation.soap_action = std::string(action.value_or(""));
      } else if (local == "input" && !seen_input) {
        seen_input = true;
        return read_use(operation.input_use);
      } else if (local == "output" && !seen_output) {
        seen_output = true;
        return read_use(operation.output_use);
      } else if (local == "fault") {
        operation.fault_names.push_back(attribute_or_empty(child, "name"));
      }
      return skip(child);
    });
  }

  /// The use= of an input/output's first soap:body (literal by default).
  bool read_use(SoapUse& use) {
    bool seen_body = false;
    return children([&](const Token& child) {
      if (!seen_body && local_part(child.name) == "body") {
        seen_body = true;
        use = child.attribute("use").value_or("literal") == "encoded" ? SoapUse::kEncoded
                                                                      : SoapUse::kLiteral;
      }
      return skip(child);
    });
  }

  bool read_service(const Token& start) {
    Service& service = defs_.services.emplace_back();
    service.name = attribute_or_empty(start, "name");
    record_location(start, {"service:", service.name});
    return children([&](const Token& child) {
      if (local_part(child.name) != "port") return skip(child);
      Port& port = service.ports.emplace_back();
      port.name = attribute_or_empty(child, "name");
      port.binding = resolve_qname_attr(child, "binding");
      bool seen_address = false;
      return children([&](const Token& address) {
        if (!seen_address && local_part(address.name) == "address") {
          seen_address = true;
          port.location = attribute_or_empty(address, "location");
        }
        return skip(address);
      });
    });
  }

  xml::pull::Tokenizer tok_;
  xml::NamespaceScope scope_;
  Definitions defs_;
  std::optional<Error> error_;  ///< the document's wsdl.* / xsd.* error
};

}  // namespace

Result<Definitions> parse(std::string_view text) { return WsdlReader{text}.read(); }

}  // namespace wsx::wsdl
