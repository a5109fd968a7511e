// envelope.hpp — the SOAP 1.1 and 1.2 envelope model.
//
// The paper scopes its study to the description/generation/compilation
// steps; Communication (4) and Execution (5) are listed as future work.
// This module implements that future work for our simulated stacks: it
// carries application payloads between generated client artifacts and the
// server framework models. Both envelope versions are first-class: faults
// take the per-version shape (1.1 faultcode/faultstring vs 1.2
// Code/Value + Reason/Text), and mustUnderstand header semantics are
// modelled for the mixed-version robustness axis (soap/version.hpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "xml/node.hpp"

namespace wsx::soap {

/// Envelope namespace versions. The 2014 study runs entirely on SOAP 1.1;
/// 1.2 is a full envelope model (fault Code/Reason shape, version-mismatch
/// faults) driving the mixed-version robustness axis.
enum class SoapVersion { k11, k12 };

const char* to_string(SoapVersion version);

/// Namespace URI of a version's envelope.
std::string_view envelope_namespace(SoapVersion version);

/// soap:Fault — the standard failure payload.
struct Fault {
  std::string fault_code;    ///< e.g. "soap:Client", "soap:Server"
  std::string fault_string;  ///< human-readable reason
  std::string detail;        ///< optional application detail
  friend bool operator==(const Fault&, const Fault&) = default;
};

/// The SOAP 1.2 spelling of a fault code: the 1.1 code values map onto the
/// renamed 1.2 ones (Client→Sender, Server→Receiver) under the "soapenv"
/// prefix; codes already in 1.2 form pass through unchanged.
std::string fault_code_for_12(std::string_view fault_code);

/// True when a header entry demands mustUnderstand processing:
/// soap::header_marks(entry).must_understand (soap/version.hpp).
bool marked_must_understand(const xml::Element& entry);

/// A SOAP 1.1 envelope: optional header entries plus exactly one body
/// payload (an application element or a fault).
class Envelope {
 public:
  Envelope() = default;
  explicit Envelope(xml::Element body_payload, SoapVersion version = SoapVersion::k11)
      : body_(std::move(body_payload)), version_(version) {}

  /// Builds a fault envelope in the version's own shape: 1.1 emits the
  /// unqualified faultcode/faultstring/detail children; 1.2 emits the
  /// qualified Code/Value + Reason/Text (+Detail) structure with the fault
  /// code normalized to its 1.2 spelling (fault_code_for_12).
  static Envelope make_fault(Fault fault, SoapVersion version = SoapVersion::k11);

  SoapVersion version() const { return version_; }
  void set_version(SoapVersion version) { version_ = version; }

  const std::vector<xml::Element>& header_entries() const { return headers_; }
  void add_header(xml::Element entry) { headers_.push_back(std::move(entry)); }
  /// Adds a header carrying soapenv:mustUnderstand="1" — receivers that do
  /// not understand it MUST fault.
  void add_must_understand_header(xml::Element entry);

  /// True if any header entry demands mustUnderstand processing.
  bool has_must_understand_headers() const;

  const xml::Element& body() const { return body_; }
  xml::Element& body() { return body_; }

  bool is_fault() const { return fault_.has_value(); }
  /// Precondition: is_fault().
  const Fault& fault() const { return *fault_; }

 private:
  std::vector<xml::Element> headers_;
  xml::Element body_;
  std::optional<Fault> fault_;
  SoapVersion version_ = SoapVersion::k11;
};

/// Serializes the envelope with the conventional "soapenv" prefix.
std::string write(const Envelope& envelope);

/// Parses an envelope; recognizes soap:Fault bodies. Error codes use the
/// "soap." prefix. Runs on the streaming pull tokenizer, materialising only
/// header entries and the body payload.
Result<Envelope> parse(std::string_view text);

}  // namespace wsx::soap
