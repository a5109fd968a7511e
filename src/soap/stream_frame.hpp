// stream_frame.hpp — streaming walk of the SOAP envelope frame.
//
// Internal to wsx::soap: envelope.cpp (model build) and validate.cpp (the
// zero-DOM request sniffer) both consume envelopes straight off the pull
// token stream. This header holds the one walker that understands the
// frame — root / Header / Body / first payload — so the two consumers
// cannot disagree about which elements matter or how xml.* errors rank
// against soap.* semantic errors. Consumers only differ in what they do
// with header entries and the payload subtree (materialise a tree vs.
// record local names), which is what the two callbacks are for. The
// frame checks and the model build are shared with the DOM reader the
// test suite keeps as the streaming reader's oracle. The frame's writer is
// here too, for soap::write and soap::write_response.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "soap/envelope.hpp"
#include "xml/node.hpp"
#include "xml/pull.hpp"
#include "xml/qname.hpp"
#include "xml/query.hpp"
#include "xml/writer.hpp"

namespace wsx::soap::detail {

/// What one streaming pass over an envelope learns about its frame.
///
/// The root's name is resolved off its start tag (xml::resolve_start_tag,
/// NamespaceScope's rule for a scope that holds only the root's own
/// declarations) and kept as four facts: whether it resolved, its local
/// name, its interned namespace and the namespace URI, which only the
/// soap.version-mismatch message reads. The two views alias the
/// tokenizer's input or arena (or a well-known URI constant), so the frame
/// is valid while the tokenizer that filled it lives.
struct EnvelopeFrame {
  bool root_resolved = false;  ///< false: the root's prefix is undeclared
  std::string_view root_local;
  xml::ns::Id root_namespace = xml::ns::Id::kNone;
  std::string_view root_uri;
  bool have_body = false;
  bool have_payload = false;
  std::string payload_local;  ///< local name of the first Body payload
};

/// Walks a complete envelope document on `tok`. `on_header_entry(tok,
/// start)` and `on_payload(tok, start)` are invoked with the kStartElement
/// token of, respectively, each direct child element of the first Header
/// and the first child element of the first Body; each MUST consume exactly
/// that subtree (xml::collect_element or pull::skip_element) and return a
/// Result — its error aborts the walk. Everything else (duplicate
/// Header/Body elements, extra payloads, other root children, misc,
/// epilog) is skipped here.
///
/// Error order: the whole document is drained before the caller applies
/// semantic checks, so any xml.* error anywhere in the input surfaces
/// first, exactly as parse-then-inspect does.
template <typename OnHeaderEntry, typename OnPayload>
Result<EnvelopeFrame> walk_envelope_frame(xml::pull::Tokenizer& tok,
                                          OnHeaderEntry&& on_header_entry,
                                          OnPayload&& on_payload) {
  EnvelopeFrame frame;

  // Prolog + misc, then the root start tag.
  const xml::pull::Token* root = xml::pull::next_root(tok);
  if (root == nullptr) return tok.error();
  const xml::StartTagName root_name = xml::resolve_start_tag(*root);
  frame.root_resolved = root_name.resolved;
  frame.root_local = root_name.local;
  frame.root_uri = root_name.uri;
  frame.root_namespace = xml::ns::intern(root_name.uri);

  bool have_header = false;
  // Direct children of the root.
  for (bool root_open = true; root_open;) {
    const xml::pull::Token& token = tok.next();
    switch (token.kind) {
      case xml::pull::TokenKind::kStartElement: {
        const std::string_view local = xml::local_part(token.name);
        if (local == "Header" && !have_header) {
          have_header = true;
          if (Result<bool> walked = [&]() -> Result<bool> {
                for (;;) {
                  const xml::pull::Token& entry = tok.next();
                  if (entry.kind == xml::pull::TokenKind::kEndElement) return true;
                  if (entry.kind == xml::pull::TokenKind::kStartElement) {
                    Result<bool> consumed = on_header_entry(tok, entry);
                    if (!consumed.ok()) return consumed.error();
                  } else if (entry.kind == xml::pull::TokenKind::kError) {
                    return tok.error();
                  }
                }
              }();
              !walked.ok()) {
            return walked.error();
          }
        } else if (local == "Body" && !frame.have_body) {
          frame.have_body = true;
          for (bool body_open = true; body_open;) {
            const xml::pull::Token& child = tok.next();
            switch (child.kind) {
              case xml::pull::TokenKind::kStartElement: {
                Result<bool> consumed = [&]() -> Result<bool> {
                  if (frame.have_payload) return xml::pull::skip_element(tok, child);
                  frame.have_payload = true;
                  frame.payload_local = std::string(xml::local_part(child.name));
                  return on_payload(tok, child);
                }();
                if (!consumed.ok()) return consumed.error();
                break;
              }
              case xml::pull::TokenKind::kEndElement:
                body_open = false;
                break;
              case xml::pull::TokenKind::kError:
                return tok.error();
              default:
                break;  // text/CDATA/comments/PIs inside Body
            }
          }
        } else {
          Result<bool> skipped = xml::pull::skip_element(tok, token);
          if (!skipped.ok()) return skipped.error();
        }
        break;
      }
      case xml::pull::TokenKind::kEndElement:
        root_open = false;
        break;
      case xml::pull::TokenKind::kError:
        return tok.error();
      default:
        break;  // text/CDATA/comments/PIs directly under the root
    }
  }

  // Epilog: drain so trailing xml.* errors keep priority over soap.* ones.
  if (Result<bool> rest = xml::pull::drain(tok); !rest.ok()) return rest.error();
  return frame;
}

/// The semantic checks, in order: root QName resolution → version → Body
/// presence → payload presence. Returns the envelope version or the first
/// soap.* error.
inline Result<SoapVersion> check_envelope_frame(const EnvelopeFrame& frame) {
  if (!frame.root_resolved || frame.root_local != "Envelope") {
    return Error{"soap.not-an-envelope", "root element is not a SOAP Envelope"};
  }
  SoapVersion version;
  // The URI was interned once when the root resolved, so the version check
  // is two integer compares.
  if (frame.root_namespace == xml::ns::Id::kSoapEnvelope) {
    version = SoapVersion::k11;
  } else if (frame.root_namespace == xml::ns::Id::kSoap12Envelope) {
    version = SoapVersion::k12;
  } else {
    return Error{"soap.version-mismatch",
                 "unknown envelope namespace '" + std::string(frame.root_uri) + "'"};
  }
  if (!frame.have_body) return Error{"soap.missing-body", "envelope has no soap:Body"};
  if (!frame.have_payload) return Error{"soap.empty-body", "soap:Body has no payload element"};
  return version;
}

/// Builds the Envelope model from its parts, recognising a Fault payload in
/// the version's own shape. Every envelope reader ends here, so fault
/// recognition cannot diverge between them.
Envelope assemble_envelope(SoapVersion version, std::vector<xml::Element> headers,
                           xml::Element payload);

/// An envelope document in `version`: the declaration, the Envelope, a
/// Header with `headers` when there are any, and a Body around whatever
/// `write_payload(emitter)` emits.
template <typename WritePayload>
std::string write_envelope_frame(SoapVersion version, const std::vector<xml::Element>& headers,
                                 WritePayload&& write_payload) {
  xml::Emitter out;
  out.declaration();
  out.start("soapenv:Envelope");
  out.attr("xmlns:soapenv", envelope_namespace(version));
  if (!headers.empty()) {
    out.start("soapenv:Header");
    for (const xml::Element& entry : headers) out.element(entry);
    out.end();
  }
  out.start("soapenv:Body");
  write_payload(out);
  out.end();
  out.end();
  return out.take();
}

}  // namespace wsx::soap::detail
