#include "soap/validate.hpp"

#include <algorithm>

#include "soap/stream_frame.hpp"
#include "xml/pull.hpp"

namespace wsx::soap {
namespace {

/// Finds a top-level schema element declaration by local name across the
/// description's schemas.
const xsd::ElementDecl* find_wrapper(const wsdl::Definitions& defs, std::string_view name) {
  for (const xsd::Schema& schema : defs.schemas) {
    if (const xsd::ElementDecl* element = schema.find_element(std::string(name))) {
      return element;
    }
  }
  return nullptr;
}

/// Validates payload child local names against the wrapper's content
/// model. Works on names only so the checks over a parsed envelope and the
/// streaming sniffer share it verbatim.
void validate_child_names(const xsd::ElementDecl& wrapper,
                          const std::vector<std::string>& child_names,
                          std::vector<ValidationIssue>& issues) {
  if (!wrapper.inline_type.has_value()) return;
  const std::vector<const xsd::ElementDecl*> declared = wrapper.inline_type->elements();

  // Unexpected arguments.
  for (const std::string& child : child_names) {
    const bool known =
        std::any_of(declared.begin(), declared.end(),
                    [&](const xsd::ElementDecl* decl) { return decl->name == child; });
    if (!known) {
      issues.push_back({"msg.unexpected-argument",
                        "element '" + child + "' is not declared by wrapper '" +
                            wrapper.name + "'"});
    }
  }
  // Missing required arguments.
  for (const xsd::ElementDecl* decl : declared) {
    if (decl->min_occurs == 0) continue;
    const bool present = std::any_of(
        child_names.begin(), child_names.end(),
        [&](const std::string& child) { return child == decl->name; });
    if (!present) {
      issues.push_back({"msg.missing-argument",
                        "required element '" + decl->name + "' of wrapper '" + wrapper.name +
                            "' is absent"});
    }
  }
}

void validate_children(const xsd::ElementDecl& wrapper, const xml::Element& payload,
                       std::vector<ValidationIssue>& issues) {
  std::vector<std::string> child_names;
  for (const xml::Element* child : payload.child_elements()) {
    child_names.push_back(child->local_name());
  }
  validate_child_names(wrapper, child_names, issues);
}

/// The request checks downstream of fault detection, shared by
/// validate_request and the streaming validate_request_text.
std::vector<ValidationIssue> validate_request_parts(const wsdl::Definitions& defs,
                                                    const std::string& operation,
                                                    const std::vector<std::string>& child_names) {
  std::vector<ValidationIssue> issues;
  if (defs.find_operation(operation) == nullptr) {
    issues.push_back({"msg.unknown-operation",
                      "payload '" + operation + "' matches no described operation"});
    return issues;
  }
  if (const xsd::ElementDecl* wrapper = find_wrapper(defs, operation)) {
    validate_child_names(*wrapper, child_names, issues);
  } else {
    issues.push_back({"msg.undeclared-wrapper",
                      "no schema element declared for wrapper '" + operation + "'"});
  }
  return issues;
}

}  // namespace

std::vector<ValidationIssue> validate_request(const wsdl::Definitions& defs,
                                              const Envelope& envelope) {
  std::vector<ValidationIssue> issues;
  if (envelope.is_fault()) {
    issues.push_back({"msg.fault-request", "a request must not carry a fault body"});
    return issues;
  }
  std::vector<std::string> child_names;
  for (const xml::Element* child : envelope.body().child_elements()) {
    child_names.push_back(child->local_name());
  }
  return validate_request_parts(defs, envelope.body().local_name(), child_names);
}

Result<std::vector<ValidationIssue>> validate_request_text(const wsdl::Definitions& defs,
                                                           std::string_view text) {
  xml::pull::Tokenizer tok{text};
  std::vector<std::string> child_names;
  Result<detail::EnvelopeFrame> frame = detail::walk_envelope_frame(
      tok,
      [](xml::pull::Tokenizer& t, const xml::pull::Token& start) {
        return xml::pull::skip_element(t, start);
      },
      [&](xml::pull::Tokenizer& t, const xml::pull::Token& start) -> Result<bool> {
        (void)start;  // already consumed; its synthesized end keeps depth uniform
        std::size_t depth = 1;
        for (;;) {
          const xml::pull::Token& token = t.next();
          switch (token.kind) {
            case xml::pull::TokenKind::kStartElement:
              if (depth == 1) child_names.push_back(std::string(xml::local_part(token.name)));
              ++depth;
              break;
            case xml::pull::TokenKind::kEndElement:
              if (--depth == 0) return true;
              break;
            case xml::pull::TokenKind::kError:
              return t.error();
            default:
              break;
          }
        }
      });
  if (!frame.ok()) return frame.error();
  Result<SoapVersion> version = detail::check_envelope_frame(frame.value());
  if (!version.ok()) return version.error();

  std::vector<ValidationIssue> issues;
  if (frame.value().payload_local == "Fault") {
    issues.push_back({"msg.fault-request", "a request must not carry a fault body"});
    return issues;
  }
  return validate_request_parts(defs, frame.value().payload_local, child_names);
}

std::vector<ValidationIssue> validate_response(const wsdl::Definitions& defs,
                                               const std::string& operation,
                                               const Envelope& envelope) {
  std::vector<ValidationIssue> issues;
  if (envelope.is_fault()) return issues;  // faults are always permitted
  const std::string expected = operation + "Response";
  if (envelope.body().local_name() != expected) {
    issues.push_back({"msg.wrong-response-wrapper",
                      "expected '" + expected + "', got '" + envelope.body().local_name() +
                          "'"});
    return issues;
  }
  if (const xsd::ElementDecl* wrapper = find_wrapper(defs, expected)) {
    validate_children(*wrapper, envelope.body(), issues);
  }
  return issues;
}

}  // namespace wsx::soap
