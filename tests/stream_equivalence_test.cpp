// Differential tests: soap::parse, which reads envelopes straight off the
// pull tokenizer (soap/stream_frame.hpp), against the DOM reader it
// replaced (testing::parse_envelope_dom, kept as the oracle). The two are
// one scanner with two consumers, and these tests pin the contract:
// identical envelope models, identical errors, identical validation
// verdicts on every input.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "chaos/fault.hpp"
#include "chaos/wire.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/invocation.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/version_policy.hpp"
#include "soap/envelope.hpp"
#include "soap/message.hpp"
#include "soap/validate.hpp"
#include "soap/version.hpp"
#include "test_helpers.hpp"

namespace wsx {
namespace {

/// Owning, comparable digest of a parse outcome. Serialization covers the
/// whole model (headers, body, fault rebuild), so two equal snapshots mean
/// the two paths produced the same envelope.
struct Snapshot {
  bool ok = false;
  std::string error_code;
  std::string error_message;
  std::string version;
  std::size_t header_count = 0;
  bool is_fault = false;
  soap::Fault fault;
  bool must_understand = false;
  std::string serialized;

  bool operator==(const Snapshot& other) const = default;
};

Snapshot snapshot_of(const Result<soap::Envelope>& envelope) {
  Snapshot snap;
  snap.ok = envelope.ok();
  if (!envelope.ok()) {
    snap.error_code = envelope.error().code;
    snap.error_message = envelope.error().message;
    return snap;
  }
  snap.version = to_string(envelope->version());
  snap.header_count = envelope->header_entries().size();
  snap.is_fault = envelope->is_fault();
  if (envelope->is_fault()) snap.fault = envelope->fault();
  snap.must_understand = envelope->has_must_understand_headers();
  snap.serialized = soap::write(*envelope);
  return snap;
}

/// Asserts DOM/stream equivalence and returns the streaming outcome for
/// further, input-specific assertions.
Snapshot expect_equivalent(const std::string& text) {
  const Snapshot stream = snapshot_of(soap::parse(text));
  const Snapshot dom = snapshot_of(wsx::testing::parse_envelope_dom(text));
  EXPECT_EQ(stream, dom) << "input:\n" << text;
  return stream;
}

const char* kSoap11 = "http://schemas.xmlsoap.org/soap/envelope/";
const char* kSoap12 = "http://www.w3.org/2003/05/soap-envelope";

std::string envelope_text(const std::string& ns, const std::string& inner) {
  return "<soapenv:Envelope xmlns:soapenv=\"" + ns + "\">" + inner +
         "</soapenv:Envelope>";
}

TEST(StreamEquivalence, MinimalRequestEnvelope) {
  const Snapshot snap = expect_equivalent(
      envelope_text(kSoap11, "<soapenv:Body><echo xmlns=\"urn:echo\">"
                             "<arg0>hi</arg0></echo></soapenv:Body>"));
  ASSERT_TRUE(snap.ok) << snap.error_message;
  EXPECT_EQ(snap.version, "SOAP 1.1");
  EXPECT_FALSE(snap.is_fault);
}

TEST(StreamEquivalence, Soap12Envelope) {
  const Snapshot snap = expect_equivalent(
      envelope_text(kSoap12, "<soapenv:Body><ping/></soapenv:Body>"));
  ASSERT_TRUE(snap.ok) << snap.error_message;
  EXPECT_EQ(snap.version, "SOAP 1.2");
}

TEST(StreamEquivalence, HeaderEntriesSurviveInOrder) {
  const Snapshot snap = expect_equivalent(envelope_text(
      kSoap11,
      "<soapenv:Header><h:first xmlns:h=\"urn:h\" soapenv:mustUnderstand=\"1\">"
      "<h:inner>x</h:inner></h:first><h:second xmlns:h=\"urn:h\"/>"
      "</soapenv:Header><soapenv:Body><op/></soapenv:Body>"));
  ASSERT_TRUE(snap.ok) << snap.error_message;
  EXPECT_EQ(snap.header_count, 2u);
  EXPECT_TRUE(snap.must_understand);
}

TEST(StreamEquivalence, BodyBeforeHeaderStillFindsBoth) {
  const Snapshot snap = expect_equivalent(envelope_text(
      kSoap11, "<soapenv:Body><op/></soapenv:Body>"
               "<soapenv:Header><h xmlns=\"urn:h\"/></soapenv:Header>"));
  ASSERT_TRUE(snap.ok) << snap.error_message;
  EXPECT_EQ(snap.header_count, 1u);
}

TEST(StreamEquivalence, OnlyFirstBodyPayloadIsKept) {
  const Snapshot snap = expect_equivalent(envelope_text(
      kSoap11, "<soapenv:Body><first><in>1</in></first><second/><third/>"
               "</soapenv:Body>"));
  ASSERT_TRUE(snap.ok) << snap.error_message;
  EXPECT_NE(snap.serialized.find("first"), std::string::npos);
  EXPECT_EQ(snap.serialized.find("second"), std::string::npos);
}

TEST(StreamEquivalence, DuplicateHeaderAndBodyElements) {
  expect_equivalent(envelope_text(
      kSoap11, "<soapenv:Header><a/></soapenv:Header>"
               "<soapenv:Header><b/></soapenv:Header>"
               "<soapenv:Body><op/></soapenv:Body>"
               "<soapenv:Body><other/></soapenv:Body>"));
}

TEST(StreamEquivalence, UnprefixedEnvelopeWithDefaultNamespace) {
  expect_equivalent("<Envelope xmlns=\"" + std::string(kSoap11) +
                    "\"><Body><op/></Body></Envelope>");
}

TEST(StreamEquivalence, UnusualPrefixesAndMixedContent) {
  expect_equivalent(
      "<?xml version=\"1.0\"?><!--lead--><e:Envelope xmlns:e=\"" +
      std::string(kSoap11) +
      "\">\n  <!--x--><?pi data?><e:Body> text <pay:load xmlns:pay=\"urn:p\">"
      "<![CDATA[raw & <unescaped>]]>and &amp; entities</pay:load> tail "
      "</e:Body>\n</e:Envelope><!--trail-->");
}

TEST(StreamEquivalence, FaultEnvelopesRebuildIdentically) {
  for (soap::SoapVersion version : {soap::SoapVersion::k11, soap::SoapVersion::k12}) {
    const soap::Envelope fault = soap::Envelope::make_fault(
        soap::Fault{"soap:Client", "bad things & worse", "detail <text>"}, version);
    const Snapshot snap = expect_equivalent(soap::write(fault));
    ASSERT_TRUE(snap.ok) << snap.error_message;
    EXPECT_TRUE(snap.is_fault);
    // The 1.2 shape renames the code (Client → Sender) and qualifies it.
    EXPECT_EQ(snap.fault.fault_code,
              version == soap::SoapVersion::k11 ? "soap:Client" : "soapenv:Sender");
    EXPECT_EQ(snap.fault.fault_string, "bad things & worse");
    EXPECT_EQ(snap.fault.detail, "detail <text>");
  }
}

TEST(StreamEquivalence, HybridEnvelopesRebuildIdentically) {
  // The mixed-version axis shapes (docs/VERSIONS.md): a 1.1 envelope in
  // each hybrid profile must round-trip through both paths to the same
  // model — same header count, same mustUnderstand verdict, same bytes —
  // and the rebuilt envelope must inspect to the same coherence summary.
  soap::Envelope base(xml::Element("pay:echo"), soap::SoapVersion::k11);
  for (const soap::HybridProfile profile :
       {soap::HybridProfile::kPure11, soap::HybridProfile::kAddressing,
        soap::HybridProfile::kSecured}) {
    soap::Envelope hybrid = base;
    soap::apply_hybrid_profile(hybrid, profile, "echo");
    const Snapshot snap = expect_equivalent(soap::write(hybrid));
    ASSERT_TRUE(snap.ok) << snap.error_message;
    EXPECT_EQ(snap.header_count, hybrid.header_entries().size());
    EXPECT_EQ(snap.must_understand, profile == soap::HybridProfile::kSecured);

    for (const auto reader : {&soap::parse, &wsx::testing::parse_envelope_dom}) {
      Result<soap::Envelope> reparsed = reader(soap::write(hybrid));
      ASSERT_TRUE(reparsed.ok());
      const soap::VersionCoherence coherence = soap::inspect_coherence(*reparsed);
      EXPECT_EQ(coherence.has_12_era_headers, profile != soap::HybridProfile::kPure11);
      EXPECT_EQ(coherence.has_12_era_mu_headers,
                profile == soap::HybridProfile::kSecured);
      EXPECT_FALSE(coherence.has_unknown_mu_headers);
    }
  }
}

TEST(StreamEquivalence, Soap12EnvelopeWithHeadersRebuildsIdentically) {
  soap::Envelope envelope(xml::Element("pay:echo"), soap::SoapVersion::k12);
  soap::apply_hybrid_profile(envelope, soap::HybridProfile::kAddressing, "echo");
  const Snapshot snap = expect_equivalent(soap::write(envelope));
  ASSERT_TRUE(snap.ok) << snap.error_message;
  EXPECT_EQ(snap.version, "SOAP 1.2");
  EXPECT_EQ(snap.header_count, envelope.header_entries().size());
}

TEST(StreamEquivalence, SemanticErrorsMatch) {
  // One input per soap.* verdict, plus assorted near-misses.
  const Snapshot not_envelope = expect_equivalent("<root/>");
  EXPECT_EQ(not_envelope.error_code, "soap.not-an-envelope");
  const Snapshot bad_ns = expect_equivalent(
      envelope_text("urn:not-soap", "<soapenv:Body><op/></soapenv:Body>"));
  EXPECT_EQ(bad_ns.error_code, "soap.version-mismatch");
  const Snapshot no_body = expect_equivalent(
      envelope_text(kSoap11, "<soapenv:Header><h/></soapenv:Header>"));
  EXPECT_EQ(no_body.error_code, "soap.missing-body");
  const Snapshot empty_body = expect_equivalent(
      envelope_text(kSoap11, "<soapenv:Body> just text </soapenv:Body>"));
  EXPECT_EQ(empty_body.error_code, "soap.empty-body");
  // An Envelope local name under no namespace at all.
  expect_equivalent("<Envelope><Body><op/></Body></Envelope>");
}

TEST(StreamEquivalence, XmlErrorsOutrankSemanticOnes) {
  // The malformed tail sits after a complete-looking frame; both paths
  // must still report the xml.* error, not a soap.* verdict.
  const Snapshot snap = expect_equivalent(
      envelope_text(kSoap11, "<soapenv:Body><op/></soapenv:Body><bad>"));
  EXPECT_EQ(snap.error_code, "xml.mismatched-tag");
  const Snapshot truncated = expect_equivalent(
      "<soapenv:Envelope xmlns:soapenv=\"" + std::string(kSoap11) +
      "\"><soapenv:Body><op/></soapenv:Body>");
  EXPECT_EQ(truncated.error_code, "xml.unterminated-element");
  const Snapshot garbage = expect_equivalent("not xml at all");
  EXPECT_EQ(garbage.error_code, "xml.expected-element");
}

TEST(StreamEquivalence, RealFrameworkTrafficRoundTrips) {
  const frameworks::DeployedService& service = wsx::testing::deploy_one(
      "Metro 2.3", catalog::java_names::kXmlGregorianCalendar);
  const auto server = frameworks::make_server("Metro 2.3");
  for (const std::string payload : {"ping", "with & entity", "<angle>", ""}) {
    Result<soap::Envelope> request =
        soap::build_request(service.wsdl, "echo", {{"arg0", payload}});
    ASSERT_TRUE(request.ok());
    const std::string request_text = soap::write(*request);
    expect_equivalent(request_text);
    const soap::HttpResponse response = server->handle_http(
        service, soap::make_soap_request("http://localhost/echo", "", request_text));
    expect_equivalent(response.body);
  }
}

// --- validate_request_text: the zero-DOM sniffer ------------------------

/// Comparable digest of the sniffer outcome.
struct VerdictSnapshot {
  bool ok = false;
  std::string error_code;
  std::vector<soap::ValidationIssue> issues;

  bool operator==(const VerdictSnapshot& other) const = default;
};

VerdictSnapshot sniff(const wsdl::Definitions& defs, const std::string& text) {
  Result<std::vector<soap::ValidationIssue>> issues =
      soap::validate_request_text(defs, text);
  VerdictSnapshot snap;
  snap.ok = issues.ok();
  if (issues.ok()) {
    snap.issues = issues.value();
  } else {
    snap.error_code = issues.error().code;
  }
  return snap;
}

/// The reference: parse with `reader`, then validate the model.
VerdictSnapshot parse_then_validate(Result<soap::Envelope> (*reader)(std::string_view),
                                    const wsdl::Definitions& defs, const std::string& text) {
  Result<soap::Envelope> envelope = reader(text);
  VerdictSnapshot snap;
  snap.ok = envelope.ok();
  if (!envelope.ok()) {
    snap.error_code = envelope.error().code;
    return snap;
  }
  snap.issues = soap::validate_request(defs, *envelope);
  return snap;
}

VerdictSnapshot expect_sniffer_equivalent(const wsdl::Definitions& defs,
                                          const std::string& text) {
  const VerdictSnapshot stream = sniff(defs, text);
  const VerdictSnapshot reference =
      parse_then_validate(&wsx::testing::parse_envelope_dom, defs, text);
  const VerdictSnapshot streamed = parse_then_validate(&soap::parse, defs, text);
  EXPECT_EQ(stream, reference) << "input:\n" << text;
  EXPECT_EQ(streamed, reference) << "input:\n" << text;
  return stream;
}

std::string echo_request(const std::string& body_inner) {
  return envelope_text(kSoap11, "<soapenv:Body>" + body_inner + "</soapenv:Body>");
}

TEST(StreamEquivalence, SnifferAcceptsAValidRequest) {
  const wsdl::Definitions defs = wsx::testing::compliant_echo_definitions();
  const VerdictSnapshot snap = expect_sniffer_equivalent(
      defs, echo_request("<e:echo xmlns:e=\"urn:echo\"><arg0>v</arg0></e:echo>"));
  ASSERT_TRUE(snap.ok);
  EXPECT_TRUE(snap.issues.empty());
}

TEST(StreamEquivalence, SnifferFlagsUnknownOperation) {
  const wsdl::Definitions defs = wsx::testing::compliant_echo_definitions();
  const VerdictSnapshot snap = expect_sniffer_equivalent(
      defs, echo_request("<nope xmlns=\"urn:echo\"/>"));
  ASSERT_TRUE(snap.ok);
  ASSERT_EQ(snap.issues.size(), 1u);
  EXPECT_EQ(snap.issues[0].code, "msg.unknown-operation");
}

TEST(StreamEquivalence, SnifferFlagsUnexpectedAndMissingArguments) {
  const wsdl::Definitions defs = wsx::testing::compliant_echo_definitions();
  const VerdictSnapshot snap = expect_sniffer_equivalent(
      defs,
      echo_request("<e:echo xmlns:e=\"urn:echo\"><bogus>1</bogus></e:echo>"));
  ASSERT_TRUE(snap.ok);
  std::vector<std::string> codes;
  for (const soap::ValidationIssue& issue : snap.issues) codes.push_back(issue.code);
  EXPECT_EQ(codes, (std::vector<std::string>{"msg.unexpected-argument",
                                             "msg.missing-argument"}));
}

TEST(StreamEquivalence, SnifferFlagsFaultRequests) {
  const wsdl::Definitions defs = wsx::testing::compliant_echo_definitions();
  const VerdictSnapshot snap = expect_sniffer_equivalent(
      defs, soap::write(soap::Envelope::make_fault(
                soap::Fault{"soap:Server", "boom", ""})));
  ASSERT_TRUE(snap.ok);
  ASSERT_EQ(snap.issues.size(), 1u);
  EXPECT_EQ(snap.issues[0].code, "msg.fault-request");
}

TEST(StreamEquivalence, SnifferPropagatesParseErrors) {
  const wsdl::Definitions defs = wsx::testing::compliant_echo_definitions();
  const VerdictSnapshot malformed = expect_sniffer_equivalent(
      defs, echo_request("<e:echo xmlns:e=\"urn:echo\"><arg0></e:echo>"));
  EXPECT_FALSE(malformed.ok);
  EXPECT_EQ(malformed.error_code, "xml.mismatched-tag");
  const VerdictSnapshot not_soap = expect_sniffer_equivalent(defs, "<just-xml/>");
  EXPECT_FALSE(not_soap.ok);
  EXPECT_EQ(not_soap.error_code, "soap.not-an-envelope");
}

TEST(StreamEquivalence, SnifferIgnoresHeadersAndNestedPayloadContent) {
  // Header entries and sub-child levels must not influence the verdict on
  // either path: only the payload's direct children are validated.
  const wsdl::Definitions defs = wsx::testing::compliant_echo_definitions();
  const VerdictSnapshot snap = expect_sniffer_equivalent(
      defs,
      envelope_text(kSoap11,
                    "<soapenv:Header><e:echo xmlns:e=\"urn:echo\"><wrong/>"
                    "</e:echo></soapenv:Header><soapenv:Body>"
                    "<e:echo xmlns:e=\"urn:echo\"><arg0><deep><deeper/></deep>"
                    "</arg0></e:echo></soapenv:Body>"));
  ASSERT_TRUE(snap.ok);
  EXPECT_TRUE(snap.issues.empty());
}

TEST(StreamEquivalence, SeededCorpusTrafficIsEquivalentOnBothPaths) {
  // Generated request corpora for a whole small catalog: every request and
  // every server response parses identically on both readers.
  const auto server = frameworks::make_server("Metro 2.3");
  const catalog::TypeCatalog catalog =
      catalog::make_java_catalog(wsx::testing::small_java_spec());
  gen::CorpusOptions options;
  options.cases_per_operation = 2;
  std::size_t checked = 0;
  for (const wsx::testing::SeededService& seeded :
       wsx::testing::seeded_corpus(*server, catalog, options)) {
    for (const gen::GeneratedCase& generated : seeded.corpus) {
      Result<soap::Envelope> request =
          generated.payload.fields.empty()
              ? soap::build_request(seeded.service.wsdl, generated.operation,
                                    {{"arg0", generated.payload.value}})
              : soap::build_structured_request(seeded.service.wsdl,
                                               generated.operation,
                                               generated.payload.fields);
      if (!request.ok()) continue;
      const std::string request_text = soap::write(*request);
      expect_equivalent(request_text);
      const soap::HttpResponse response = server->handle_http(
          seeded.service,
          soap::make_soap_request("http://localhost/echo", "", request_text));
      expect_equivalent(response.body);
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(StreamEquivalence, VersionRoundTrafficIsEquivalentOnBothReaders) {
  // The communication campaign's wire traffic on the strict and shaded
  // version rounds: every request each client sends in its hybrid profile
  // and every response its round's policy returns parses identically on
  // both readers, and the sniffer agrees with parse-then-validate. Chaos
  // fault bodies are covered kind by kind in stream_fuzz_bridge_test.
  const std::vector<frameworks::VersionPolicy> versions = {frameworks::VersionPolicy::kStrict,
                                                           frameworks::VersionPolicy::kShadedCxf};
  const catalog::TypeCatalog java = catalog::make_java_catalog(wsx::testing::small_java_spec());
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(wsx::testing::small_dotnet_spec());
  const std::vector<frameworks::ServiceSpec> java_services = frameworks::make_services(java);
  const std::vector<frameworks::ServiceSpec> dotnet_services = frameworks::make_services(dotnet);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  std::vector<std::unique_ptr<compilers::Compiler>> compilers;
  for (const auto& client : clients) {
    compilers.push_back(compilers::make_compiler(client->language()));
  }
  const std::vector<soap::HybridProfile> profiles = frameworks::client_profiles(clients, versions);
  std::size_t calls = 0;
  for (const frameworks::Round& round :
       frameworks::make_rounds(servers, java_services, dotnet_services, versions)) {
    for (const frameworks::ServiceSpec& spec : *round.services) {
      Result<frameworks::DeployedService> service = round.server->deploy(spec);
      if (!service.ok()) continue;
      const frameworks::SharedDescription description =
          frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
      for (std::size_t i = 0; i < clients.size(); ++i) {
        const frameworks::PreparedCall call = frameworks::prepare_echo_call(
            *service, description, *clients[i], compilers[i].get(), profiles[i]);
        if (call.status != frameworks::PreparedCall::Status::kReady) continue;
        expect_equivalent(call.request.body);
        expect_sniffer_equivalent(service->wsdl, call.request.body);
        expect_equivalent(round.server->handle_http(*service, call.request, *round.policy).body);
        ++calls;
      }
    }
  }
  EXPECT_GT(calls, 500u);
}

// --- classify_echo_response: the client's reading of a reply -------------

/// The outcome a delivered reply has under the tree reader: the DOM
/// envelope, then response_value on it.
frameworks::EchoOutcome tree_outcome(const soap::HttpResponse& response,
                                     const std::string& payload) {
  if (response.status == 405 || response.status == 415) {
    return frameworks::EchoOutcome::kTransportError;
  }
  Result<soap::Envelope> envelope = wsx::testing::parse_envelope_dom(response.body);
  if (!envelope.ok()) return frameworks::EchoOutcome::kTransportError;
  if (envelope->is_fault()) {
    const std::string& code = envelope->fault().fault_code;
    const std::string local = code.substr(code.find(':') + 1);
    if (local == "VersionMismatch" || local == "MustUnderstand") {
      return frameworks::EchoOutcome::kVersionMismatch;
    }
    return envelope->fault().fault_string.find("SOAPAction") != std::string::npos
               ? frameworks::EchoOutcome::kTransportError
               : frameworks::EchoOutcome::kServerFault;
  }
  Result<std::string> echoed = soap::response_value(*envelope);
  if (!echoed.ok()) return frameworks::EchoOutcome::kServerFault;
  return *echoed == payload ? frameworks::EchoOutcome::kOk
                            : frameworks::EchoOutcome::kEchoMismatch;
}

void expect_classified_as_tree(const soap::HttpResponse& response, const std::string& payload) {
  const frameworks::EchoClassification classified =
      frameworks::classify_echo_response(response, payload);
  EXPECT_EQ(classified.outcome, tree_outcome(response, payload))
      << "status " << response.status << ", payload '" << payload << "', body:\n"
      << response.body;
  EXPECT_EQ(classified.http_status, response.status);
}

TEST(StreamEquivalence, ReplyClassificationMatchesTheTreeReader) {
  // Every reply of the strict, relaxed and shaded rounds' traffic, clean and
  // behind each chaos wire fault, classified against the payload sent and a
  // changed one; and each distinct clean reply truncated and corrupted at
  // every byte.
  const std::vector<frameworks::VersionPolicy> versions = {
      frameworks::VersionPolicy::kStrict, frameworks::VersionPolicy::kRelaxed,
      frameworks::VersionPolicy::kShadedCxf};
  const catalog::TypeCatalog java = catalog::make_java_catalog(wsx::testing::small_java_spec());
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(wsx::testing::small_dotnet_spec());
  const std::vector<frameworks::ServiceSpec> java_services = frameworks::make_services(java);
  const std::vector<frameworks::ServiceSpec> dotnet_services = frameworks::make_services(dotnet);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  const std::vector<soap::HybridProfile> profiles = frameworks::client_profiles(clients, versions);
  std::set<std::string> damaged;  // clean reply bodies already cut at every byte
  std::size_t replies = 0;
  for (const frameworks::Round& round :
       frameworks::make_rounds(servers, java_services, dotnet_services, versions)) {
    chaos::FaultyWire wire(*round.server, chaos::FaultPlan{});
    wire.set_server_policy(*round.policy);
    for (const frameworks::ServiceSpec& spec : *round.services) {
      Result<frameworks::DeployedService> service = round.server->deploy(spec);
      if (!service.ok()) continue;
      const frameworks::SharedDescription description =
          frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
      for (std::size_t i = 0; i < clients.size(); ++i) {
        const frameworks::PreparedCall call = frameworks::prepare_echo_call(
            *service, description, *clients[i], /*compiler=*/nullptr, profiles[i]);
        if (call.status != frameworks::PreparedCall::Status::kReady) continue;
        for (const soap::HttpRequest* request : {&call.request, &call.downgrade_request}) {
          const soap::HttpResponse clean =
              round.server->handle_http(*service, *request, *round.policy);
          std::vector<soap::HttpResponse> delivered = {clean};
          for (const chaos::FaultKind kind : chaos::all_fault_kinds()) {
            const chaos::WireAttempt attempt = wire.attempt(
                *service, *request, chaos::CallSchedule(kind, 1, replies + delivered.size()), 0);
            if (attempt.status == chaos::WireAttempt::Status::kDelivered) {
              delivered.push_back(attempt.response);
            }
          }
          for (const soap::HttpResponse& response : delivered) {
            expect_classified_as_tree(response, call.payload);
            expect_classified_as_tree(response, call.payload + "x");
            ++replies;
          }
          if (!damaged.insert(clean.body).second) continue;
          for (std::size_t at = 0; at < clean.body.size(); ++at) {
            soap::HttpResponse cut = clean;
            cut.body.resize(at);
            expect_classified_as_tree(cut, call.payload);
            soap::HttpResponse corrupted = clean;
            corrupted.body =
                chaos::apply_body_fault(chaos::FaultKind::kCorruptedByte, clean.body, at);
            expect_classified_as_tree(corrupted, call.payload);
          }
        }
      }
    }
  }
  EXPECT_GT(replies, 50000u);
  EXPECT_GT(damaged.size(), 100u);
}

/// read_reply against soap::parse then response_value: the same error, the
/// same fault, the same value or the same reason there is none.
void expect_reply_read_as_parsed(const std::string& text) {
  const Result<soap::Reply> reply = soap::read_reply(text);
  const Result<soap::Envelope> envelope = soap::parse(text);
  ASSERT_EQ(reply.ok(), envelope.ok()) << text;
  if (!envelope.ok()) {
    EXPECT_EQ(reply.error(), envelope.error()) << text;
    return;
  }
  ASSERT_EQ(reply->fault.has_value(), envelope->is_fault()) << text;
  if (envelope->is_fault()) {
    EXPECT_EQ(*reply->fault, envelope->fault()) << text;
  }
  const Result<std::string> value = soap::response_value(*envelope);
  ASSERT_EQ(reply->value.ok(), value.ok()) << text;
  if (value.ok()) {
    EXPECT_EQ(*reply->value, *value) << text;
  } else {
    EXPECT_EQ(reply->value.error(), value.error()) << text;
  }
}

TEST(StreamEquivalence, ReplyReaderMatchesParseThenResponseValue) {
  const auto reply = [](const std::string& body_inner) {
    return envelope_text(kSoap11, "<soapenv:Header><h:x xmlns:h=\"urn:h\"><y/></h:x>"
                                  "</soapenv:Header><soapenv:Body>" +
                                      body_inner + "</soapenv:Body>");
  };
  const std::vector<std::string> payloads = {
      "<m:echoResponse xmlns:m=\"urn:e\"><m:return>v</m:return></m:echoResponse>",
      "<echoResponse a=\"1\"> lead <return>a<![CDATA[<b>]]>c</return> tail </echoResponse>",
      "<echoResponse><return>a<!--x-->b<?pi?>c</return></echoResponse>",
      "<echoResponse><return>   </return></echoResponse>",
      "<echoResponse><return>\n  <x>in</x>\n  </return></echoResponse>",
      "<echoResponse><return> t <x/> u </return></echoResponse>",
      "<echoResponse><return/></echoResponse>",
      "<echoResponse><return>&lt;&amp;&#x41;</return></echoResponse>",
      "<echoResponse><other>o</other><x:return xmlns:x=\"urn:x\">1</x:return>"
      "<return>2</return></echoResponse>",
      "<echoResponse><wrap><return>deep</return></wrap></echoResponse>",
      "<echoResponse><other/></echoResponse>",
      "<echoResponse/>",
      "<Response><return>bare</return></Response>",
      "<echo><return>v</return></echo>",
      "<echoResponse><return>first</return></echoResponse><second><return/></second>",
      "<echoResponse><return>v</return><return>w</return></echoResponse>",
      "<echoResponse><return>v</return></echoResponse><bad>",
      "<echoResponse><return>v</retur></echoResponse>",
      "text only",
  };
  for (const std::string& payload : payloads) expect_reply_read_as_parsed(reply(payload));
  for (const soap::SoapVersion version : {soap::SoapVersion::k11, soap::SoapVersion::k12}) {
    soap::Envelope fault = soap::Envelope::make_fault(
        soap::Fault{"soap:Client", "bad & worse", "detail <text>"}, version);
    soap::apply_hybrid_profile(fault, soap::HybridProfile::kSecured, "echo");
    const std::string text = soap::write(fault);
    expect_reply_read_as_parsed(text);
    for (std::size_t at = 0; at < text.size(); ++at) {
      expect_reply_read_as_parsed(text.substr(0, at));
    }
  }
  for (const std::string& text :
       {std::string("<root/>"), envelope_text(kSoap11, "<soapenv:Header/>"),
        envelope_text("urn:not-soap", "<soapenv:Body><op/></soapenv:Body>"),
        envelope_text(kSoap12, "<soapenv:Body><opResponse><return>12</return>"
                               "</opResponse></soapenv:Body>")}) {
    expect_reply_read_as_parsed(text);
  }
  const std::string full = reply(payloads.front());
  for (std::size_t at = 0; at < full.size(); ++at) expect_reply_read_as_parsed(full.substr(0, at));
}

TEST(StreamEquivalence, RootNamesResolveAsNamespaceScopeDoes) {
  // soap::parse resolves the root off its start tag; the oracle resolves it
  // with xml::NamespaceScope. Each root below probes one rule of the scope.
  const std::string soap11 = kSoap11;
  const std::string soap12 = kSoap12;
  const auto root = [](const std::string& name, const std::string& declarations) {
    return "<" + name + declarations + "><Body><op/></Body></" + name + ">";
  };
  struct Case {
    std::string text;
    std::string code;  // empty: a well-formed envelope
    std::string message;
  };
  const std::string not_envelope = "root element is not a SOAP Envelope";
  const std::vector<Case> cases = {
      // The empty prefix of ":Envelope" is bound only by a default namespace.
      {root(":Envelope", ""), "soap.not-an-envelope", not_envelope},
      {root(":Envelope", " xmlns=\"" + soap11 + "\""), "", ""},
      {root(":Envelope", " xmlns:=\"" + soap12 + "\""), "", ""},
      // "xml" is always bound, unless the root rebinds it.
      {root("xml:Envelope", ""), "soap.version-mismatch",
       "unknown envelope namespace 'http://www.w3.org/XML/1998/namespace'"},
      {root("xml:Envelope", " xmlns:xml=\"" + soap11 + "\""), "", ""},
      {root("u:Envelope", ""), "soap.not-an-envelope", not_envelope},
      {root("u:Envelope", " xmlns:v=\"" + soap11 + "\""), "soap.not-an-envelope", not_envelope},
      {root("Envelope", " xmlns=\"" + soap12 + "\""), "", ""},
      {root("Envelope", " xmlns=\"\""), "soap.version-mismatch",
       "unknown envelope namespace ''"},
      {root("s:Envelope", " xmlns:s=\"" + soap12 + "\""), "", ""},
      {root("s:Envelope", " xmlns:s=\"urn:foreign\""), "soap.version-mismatch",
       "unknown envelope namespace 'urn:foreign'"},
      {root("s:Envelpe", " xmlns:s=\"" + soap11 + "\""), "soap.not-an-envelope", not_envelope},
      // The first declaration of a prefix wins.
      {root("Envelope", " xmlns:=\"urn:first\" xmlns=\"" + soap11 + "\""),
       "soap.version-mismatch", "unknown envelope namespace 'urn:first'"},
      // A decoded URI still interns to its version.
      {root("s:Envelope", " xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope&#x2F;\""), "", ""},
  };
  for (const Case& c : cases) {
    const Snapshot snap = expect_equivalent(c.text);
    EXPECT_EQ(snap.error_code, c.code) << c.text;
    EXPECT_EQ(snap.error_message, c.message) << c.text;
  }
}

TEST(StreamEquivalence, WriterMatchesTheTreeWriter) {
  // soap::write emits straight from the model; testing::write_envelope_dom
  // builds the whole envelope as a tree first. Same bytes, on the fault
  // shapes of both versions and on the version rounds' traffic.
  const auto expect_same_bytes = [](const soap::Envelope& envelope) {
    EXPECT_EQ(soap::write(envelope), wsx::testing::write_envelope_dom(envelope));
  };
  // write_response emits build_response's envelope in a version without
  // building it: the same bytes, or the same error.
  const auto expect_response_bytes = [](const wsdl::Definitions& defs,
                                        const std::string& operation, const std::string& value,
                                        soap::SoapVersion version) {
    Result<soap::Envelope> built = soap::build_response(defs, operation, value);
    const Result<std::string> written = soap::write_response(defs, operation, value, version);
    ASSERT_EQ(written.ok(), built.ok()) << operation;
    if (!built.ok()) {
      EXPECT_EQ(written.error(), built.error());
      return;
    }
    built->set_version(version);
    EXPECT_EQ(*written, soap::write(*built)) << "value '" << value << "'";
  };
  for (const soap::SoapVersion version : {soap::SoapVersion::k11, soap::SoapVersion::k12}) {
    for (const soap::Fault& fault :
         {soap::Fault{"soap:Client", "bad things & worse", "detail <text>"},
          soap::Fault{"soap:Server", "boom", ""},
          soap::Fault{"soap:MustUnderstand", "header not understood", ""}}) {
      soap::Envelope envelope = soap::Envelope::make_fault(fault, version);
      expect_same_bytes(envelope);
      soap::apply_hybrid_profile(envelope, soap::HybridProfile::kSecured, "echo");
      expect_same_bytes(envelope);
    }
  }

  const std::vector<frameworks::VersionPolicy> versions = {frameworks::VersionPolicy::kStrict,
                                                           frameworks::VersionPolicy::kShadedCxf};
  const catalog::TypeCatalog java = catalog::make_java_catalog(wsx::testing::small_java_spec());
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(wsx::testing::small_dotnet_spec());
  const std::vector<frameworks::ServiceSpec> java_services = frameworks::make_services(java);
  const std::vector<frameworks::ServiceSpec> dotnet_services = frameworks::make_services(dotnet);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  const std::vector<soap::HybridProfile> profiles = frameworks::client_profiles(clients, versions);
  std::size_t envelopes = 0;
  for (const frameworks::Round& round :
       frameworks::make_rounds(servers, java_services, dotnet_services, versions)) {
    for (const frameworks::ServiceSpec& spec : *round.services) {
      Result<frameworks::DeployedService> service = round.server->deploy(spec);
      if (!service.ok()) continue;
      const frameworks::SharedDescription description =
          frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
      for (std::size_t i = 0; i < clients.size(); ++i) {
        const frameworks::PreparedCall call = frameworks::prepare_echo_call(
            *service, description, *clients[i], /*compiler=*/nullptr, profiles[i]);
        if (call.status != frameworks::PreparedCall::Status::kReady) continue;
        // The envelopes the call was made of, built again from the model...
        Result<soap::Envelope> request =
            soap::build_request(service->wsdl, call.operation, {{"arg0", call.payload}});
        ASSERT_TRUE(request.ok());
        expect_same_bytes(*request);
        soap::apply_hybrid_profile(*request, profiles[i], call.operation);
        expect_same_bytes(*request);
        for (const std::string& value : {call.payload, std::string()}) {
          Result<soap::Envelope> response =
              soap::build_response(service->wsdl, call.operation, value);
          ASSERT_TRUE(response.ok());
          expect_same_bytes(*response);
          for (const soap::SoapVersion version : {soap::SoapVersion::k11, soap::SoapVersion::k12}) {
            expect_response_bytes(service->wsdl, call.operation, value, version);
          }
        }
        // ...and the traffic itself, read back.
        for (const std::string& text :
             {call.request.body, call.downgrade_request.body,
              round.server->handle_http(*service, call.request, *round.policy).body}) {
          Result<soap::Envelope> envelope = soap::parse(text);
          ASSERT_TRUE(envelope.ok()) << text;
          expect_same_bytes(*envelope);
          ++envelopes;
        }
      }
    }
  }
  EXPECT_GT(envelopes, 1500u);

  // Values the traffic does not carry, in both versions, and both errors.
  wsdl::Definitions defs = wsx::testing::compliant_echo_definitions();
  std::string long_value;
  while (long_value.size() <= 512) {
    long_value += "long value <" + std::to_string(long_value.size()) + "> & ";
  }
  for (const soap::SoapVersion version : {soap::SoapVersion::k11, soap::SoapVersion::k12}) {
    for (const std::string& value :
         {std::string(), std::string(" "), std::string("a<b&c>\"'"),
          std::string("gr\xC3\xBC\xC3\x9F \xE2\x82\xAC \xF0\x9F\x98\x80"), long_value}) {
      expect_response_bytes(defs, "echo", value, version);
    }
    expect_response_bytes(defs, "nope", "v", version);
  }
  defs.port_types.front().operations.front().output_message.clear();
  expect_response_bytes(defs, "echo", "v", soap::SoapVersion::k11);
}

}  // namespace
}  // namespace wsx
