// Pins the server side of the echo exchange, response by response:
//  - ExchangeGolden: every ServerFramework::handle_http response (status,
//    headers and an FNV-1a of the body) over the 2% corpus's version-round
//    traffic, each request clean and under each chaos mangling, and over
//    propcheck's generated payloads at seed 7. The golden was rendered by
//    the build that still read every request into an envelope tree, so
//    never regenerate it from the current code.
//  - ExchangeOracle: handle_http held to the tree path it answers for:
//    soap::parse, handle_request, soap::write and make_soap_response, with
//    handle_http's own 405/415/SOAPAction branches and the 1.2 media type,
//    on hand-written requests of every shape the server's decision reads;
//    and read_reply's value held to the return element's tree text.
// The two streaming readers under them are held to their tree oracles on
// the same shapes, cut at every byte:
//  - RequestReader: soap::read_request against soap::parse then
//    soap::request_of;
//  - ElementText: xml::element_text against xml::collect_element's text().
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "chaos/fault.hpp"
#include "chaos/wire.hpp"
#include "common/hash.hpp"
#include "frameworks/invocation.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "frameworks/version_policy.hpp"
#include "gen/request_gen.hpp"
#include "soap/envelope.hpp"
#include "soap/message.hpp"
#include "soap/version.hpp"
#include "test_helpers.hpp"
#include "xml/parser.hpp"
#include "xml/pull.hpp"

namespace wsx {
namespace {

using frameworks::VersionPolicy;

/// One response as the golden records it: status, every header in order
/// and an FNV-1a of the body.
std::string digest(const soap::HttpResponse& response) {
  std::string line = std::to_string(response.status);
  for (const soap::HttpHeader& header : response.headers) {
    line += " | " + header.name + ": " + header.value;
  }
  return line + " | " + hex16(fnv1a(response.body, kFnvOffsetBasis));
}

/// Responses folded per group, with a count per status.
struct Fold {
  std::size_t responses = 0;
  std::uint64_t hash = kFnvOffsetBasis;
  std::map<int, std::size_t> statuses;

  void add(const soap::HttpResponse& response) {
    ++responses;
    ++statuses[response.status];
    hash = fnv1a(digest(response) + "\n", hash);
  }
  std::string render() const {
    std::string out = std::to_string(responses) + " responses";
    for (const auto& [status, count] : statuses) {
      out += ", " + std::to_string(status) + " x" + std::to_string(count);
    }
    return out + ", " + hex16(hash);
  }
};

/// Compares `rendered` with tests/data/`name`; on a difference, writes the
/// rendering next to the test's temporary files for diffing.
void expect_golden(const std::string& name, const std::string& rendered) {
  std::ifstream in(std::string(WSX_TEST_DATA_DIR) + "/" + name);
  std::ostringstream want;
  want << in.rdbuf();
  if (rendered == want.str()) return;
  const std::string path = ::testing::TempDir() + name + ".actual";
  std::ofstream(path) << rendered;
  ADD_FAILURE() << "rendering differs from tests/data/" << name << "; rendered: " << path;
}

/// The chaos manglings of a request the golden replays it under: the wire's
/// request-side faults, then the response-body faults applied to the
/// request body instead (a cut at 60% and one byte corrupted at each salt).
constexpr chaos::FaultKind kRequestFaults[] = {
    chaos::FaultKind::kSoap12Rewrite, chaos::FaultKind::kMustUnderstandInject,
    chaos::FaultKind::kDropContentType, chaos::FaultKind::kDropSoapAction,
    chaos::FaultKind::kContentTypeSkew};
constexpr std::uint64_t kCorruptionSalts[] = {0, 7, 61, 173, 409, 997};

void replay_mangled(const frameworks::ServerFramework& server, const chaos::FaultyWire& wire,
                    const frameworks::DeployedService& service,
                    const soap::HttpRequest& request, VersionPolicy policy, Fold& fold) {
  fold.add(server.handle_http(service, request, policy));
  for (const chaos::FaultKind kind : kRequestFaults) {
    fold.add(wire.attempt(service, request, chaos::CallSchedule(kind, 1, 0), 0).response);
  }
  soap::HttpRequest cut = request;
  cut.body = chaos::apply_body_fault(chaos::FaultKind::kTruncatedBody, request.body, 0);
  fold.add(server.handle_http(service, cut, policy));
  for (const std::uint64_t salt : kCorruptionSalts) {
    soap::HttpRequest corrupted = request;
    corrupted.body =
        chaos::apply_body_fault(chaos::FaultKind::kCorruptedByte, request.body, salt);
    fold.add(server.handle_http(service, corrupted, policy));
  }
}

TEST(ExchangeGolden, VersionRoundTrafficAndPropcheckPayloads) {
  const catalog::TypeCatalog java =
      catalog::make_java_catalog(catalog::scaled(catalog::JavaCatalogSpec{}, 2));
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(catalog::scaled(catalog::DotNetCatalogSpec{}, 2));
  const std::vector<frameworks::ServiceSpec> java_services = frameworks::make_services(java);
  const std::vector<frameworks::ServiceSpec> dotnet_services = frameworks::make_services(dotnet);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  std::string out;

  // The strict, relaxed and shaded rounds: every ready call of every client
  // in its hybrid profile, its downgrade form when it differs, each clean
  // and mangled. One line per service.
  const std::vector<VersionPolicy> versions = {VersionPolicy::kStrict, VersionPolicy::kRelaxed,
                                               VersionPolicy::kShadedCxf};
  const std::vector<soap::HybridProfile> profiles = frameworks::client_profiles(clients, versions);
  for (const frameworks::Round& round :
       frameworks::make_rounds(servers, java_services, dotnet_services, versions)) {
    chaos::FaultyWire wire(*round.server, chaos::FaultPlan{});
    wire.set_server_policy(*round.policy);
    out += "== " + round.label + "\n";
    for (const frameworks::ServiceSpec& spec : *round.services) {
      Result<frameworks::DeployedService> service = round.server->deploy(spec);
      if (!service.ok()) continue;
      const frameworks::SharedDescription description =
          frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
      Fold fold;
      for (std::size_t i = 0; i < clients.size(); ++i) {
        const frameworks::PreparedCall call = frameworks::prepare_echo_call(
            *service, description, *clients[i], /*compiler=*/nullptr, profiles[i]);
        if (call.status != frameworks::PreparedCall::Status::kReady) continue;
        replay_mangled(*round.server, wire, *service, call.request, *round.policy, fold);
        if (call.hybrid) {
          replay_mangled(*round.server, wire, *service, call.downgrade_request, *round.policy,
                         fold);
        }
      }
      out += spec.service_name() + ": " + fold.render() + "\n";
    }
  }

  // propcheck's generated payloads at seed 7, scalar and structured, valid
  // and sabotaged (sent whether or not they validate), from one client per
  // marshalling path: a SOAPAction-less Java proxy, a .NET proxy and Zend's
  // uncommon-structure element. One line per server and corpus.
  const std::vector<std::string> senders = {"Oracle Metro 2.3",
                                            ".NET Framework 4.0.30319.17929 (C#)",
                                            "Zend Framework 1.9"};
  for (const auto& server : servers) {
    const catalog::TypeCatalog& types = server->language() == "C#" ? dotnet : java;
    for (const bool sabotage : {false, true}) {
      gen::CorpusOptions options;
      options.seed = 7;
      options.sabotage = sabotage;
      Fold fold;
      std::size_t structured = 0;
      for (const frameworks::ServiceSpec& spec : frameworks::make_services(types)) {
        Result<frameworks::DeployedService> service = server->deploy(spec);
        if (!service.ok()) continue;
        const frameworks::SharedDescription description =
            frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
        const std::vector<gen::GeneratedCase> corpus = gen::generate_corpus(*service, options);
        for (const std::string& sender : senders) {
          const auto client = frameworks::make_client(sender);
          for (const gen::GeneratedCase& generated : corpus) {
            const frameworks::PreparedCall call = frameworks::prepare_call(
                *service, description, *client, /*compiler=*/nullptr, &generated.payload);
            if (call.status != frameworks::PreparedCall::Status::kReady) continue;
            if (!generated.payload.fields.empty()) ++structured;
            fold.add(server->handle_http(*service, call.request));
          }
        }
      }
      out += "== propcheck " + server->name() + (sabotage ? " sabotaged" : "") + ": " +
             std::to_string(structured) + " structured, " + fold.render() + "\n";
    }
  }
  expect_golden("exchange_http_scale2.golden", out);
}

// --- handle_http against the tree path ------------------------------------

/// handle_http's answer built the tree way: its HTTP gates, then
/// soap::parse, handle_request and soap::write.
soap::HttpResponse tree_http(const frameworks::ServerFramework& server,
                             const frameworks::DeployedService& service,
                             const soap::HttpRequest& request, VersionPolicy policy) {
  if (request.method != "POST") {
    soap::HttpResponse response;
    response.status = 405;
    response.body = "method not allowed";
    return response;
  }
  const std::optional<std::string_view> content_type = request.header("Content-Type");
  if (!content_type.has_value() ||
      !(soap::content_type_matches(*content_type, soap::SoapVersion::k11) ||
        (policy == VersionPolicy::kShadedCxf &&
         soap::content_type_matches(*content_type, soap::SoapVersion::k12)))) {
    soap::HttpResponse response;
    response.status = 415;
    response.body = "unsupported media type";
    return response;
  }
  const auto fault = [](std::string code, std::string reason) {
    return soap::make_soap_response(
        soap::write(soap::Envelope::make_fault({std::move(code), std::move(reason), ""})),
        /*is_fault=*/true);
  };
  if (server.requires_soap_action_header() && !request.header("SOAPAction")) {
    return fault("soap:Client", "missing SOAPAction header");
  }
  Result<soap::Envelope> envelope = soap::parse(request.body);
  if (!envelope.ok()) {
    return fault("soap:Client", "malformed envelope: " + envelope.error().message);
  }
  const soap::Envelope reply = server.handle_request(service, *envelope, policy);
  soap::HttpResponse response = soap::make_soap_response(soap::write(reply), reply.is_fault());
  if (reply.version() == soap::SoapVersion::k12) {
    response.set_header("Content-Type", "application/soap+xml; charset=utf-8");
  }
  return response;
}

constexpr VersionPolicy kPolicies[] = {VersionPolicy::kStrict, VersionPolicy::kRelaxed,
                                       VersionPolicy::kShadedCxf};

/// handle_http equals the tree path on `request`, under every policy.
void expect_tree_answer(const frameworks::ServerFramework& server,
                        const frameworks::DeployedService& service,
                        const soap::HttpRequest& request) {
  for (const VersionPolicy policy : kPolicies) {
    const soap::HttpResponse fast = server.handle_http(service, request, policy);
    const soap::HttpResponse tree = tree_http(server, service, request, policy);
    EXPECT_EQ(fast.status, tree.status) << request.body;
    EXPECT_EQ(fast.headers, tree.headers) << request.body;
    EXPECT_EQ(fast.body, tree.body) << "policy " << frameworks::to_string(policy) << ", request:\n"
                                    << request.body;
  }
}

/// A deployed service with its first operation and target namespace.
struct Endpoint {
  const frameworks::ServerFramework* server = nullptr;
  frameworks::DeployedService service;
  std::string operation;
  std::string target_namespace;
};

/// Every service with an operation that the three servers deploy from the
/// small catalogs.
const std::vector<Endpoint>& endpoints() {
  static const catalog::TypeCatalog java =
      catalog::make_java_catalog(wsx::testing::small_java_spec());
  static const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(wsx::testing::small_dotnet_spec());
  static const auto servers = frameworks::make_servers();
  static const std::vector<Endpoint> all = [] {
    std::vector<Endpoint> out;
    for (const auto& server : servers) {
      const catalog::TypeCatalog& types = server->language() == "C#" ? dotnet : java;
      for (const frameworks::ServiceSpec& spec : frameworks::make_services(types)) {
        Result<frameworks::DeployedService> service = server->deploy(spec);
        if (!service.ok()) continue;
        Endpoint endpoint;
        for (const wsdl::PortType& port_type : service->wsdl.port_types) {
          if (!port_type.operations.empty() && endpoint.operation.empty()) {
            endpoint.operation = port_type.operations.front().name;
          }
        }
        if (endpoint.operation.empty()) continue;
        endpoint.server = server.get();
        endpoint.target_namespace = service->wsdl.target_namespace;
        endpoint.service = std::move(service.value());
        out.push_back(std::move(endpoint));
      }
    }
    return out;
  }();
  return all;
}

const char* kSoap11 = "http://schemas.xmlsoap.org/soap/envelope/";
const char* kSoap12 = "http://www.w3.org/2003/05/soap-envelope";

std::string envelope(const std::string& ns, const std::string& headers,
                     const std::string& payload) {
  std::string text = "<?xml version=\"1.0\"?><soapenv:Envelope xmlns:soapenv=\"" + ns +
                     "\" xmlns:wsa=\"http://www.w3.org/2005/08/addressing\">";
  if (!headers.empty()) text += "<soapenv:Header>" + headers + "</soapenv:Header>";
  return text + "<soapenv:Body>" + payload + "</soapenv:Body></soapenv:Envelope>";
}

soap::HttpRequest post(std::string body, std::string content_type = "text/xml; charset=utf-8",
                       bool soap_action = true) {
  soap::HttpRequest request;
  request.url = "http://localhost/echo";
  request.headers.push_back({"Content-Type", std::move(content_type)});
  if (soap_action) request.headers.push_back({"SOAPAction", "\"urn:echo\""});
  request.body = std::move(body);
  return request;
}

/// arg0 contents and whole payload children, by the shape the decision
/// reads: text rules, nested fields, repeats and misnamed elements.
std::vector<std::string> payload_children() {
  return {
      "<m:arg0>plain</m:arg0>",
      "<m:arg0><![CDATA[<x>&]]></m:arg0>",
      "<m:arg0>a<![CDATA[b]]>c</m:arg0>",
      "<m:arg0>a<!--c-->b<?pi x?>c</m:arg0>",
      "<m:arg0><!--only a comment--></m:arg0>",
      "<m:arg0><?pi only?></m:arg0>",
      "<m:arg0>   </m:arg0>",
      "<m:arg0> \n\t </m:arg0>",
      "<m:arg0>  <!-- c -->  </m:arg0>",
      "<m:arg0>  <?pi?>  </m:arg0>",
      "<m:arg0> <![CDATA[ ]]> </m:arg0>",
      "<m:arg0> x </m:arg0>",
      "<m:arg0>a&lt;b&amp;c</m:arg0>",
      "<m:arg0>&#x41;&#66;&quot;&apos;&gt;</m:arg0>",
      "<m:arg0>h\xC3\xA9llo \xE2\x9C\x93 \xE6\x97\xA5\xE6\x9C\xAC</m:arg0>",
      "<m:arg0/>",
      "<m:arg0>!throw</m:arg0>",
      "<m:arg0>NOT_A_VALUE</m:arg0>",
      "<m:arg0><name>v</name><id>42</id></m:arg0>",
      "<m:arg0><m:name>v</m:name><m:count>x</m:count></m:arg0>",
      "<m:arg0> lead <f>1</f> tail </m:arg0>",
      "<m:arg0>\n  <f>  </f>\n  <g>a&amp;b</g>\n</m:arg0>",
      "<m:arg0><a><b>deep</b></a>t</m:arg0>",
      "<m:arg0><f><![CDATA[c]]>d<!--x--></f></m:arg0>",
      "<m:arg0><f/></m:arg0>",
      "<m:arg0>first</m:arg0><m:arg0>second</m:arg0>",
      "<m:arg0><f>1</f></m:arg0><m:arg0>last</m:arg0>",
      "<m:arg0>first</m:arg0><m:arg0><f>2</f></m:arg0>",
      "<m:arg0Struct>v</m:arg0Struct>",
      "<m:arg1>v</m:arg1><m:arg0>w</m:arg0>",
      "<x:arg0 xmlns:x=\"urn:other\">other ns</x:arg0>",
      "",
  };
}

/// The request payloads an endpoint is probed with.
std::vector<std::string> payloads(const Endpoint& endpoint) {
  const std::string& op = endpoint.operation;
  const std::string open = "<m:" + op + " xmlns:m=\"" + endpoint.target_namespace + "\">";
  const std::string close = "</m:" + op + ">";
  std::vector<std::string> out;
  for (const std::string& children : payload_children()) out.push_back(open + children + close);
  out.push_back("<m:" + op + " xmlns:m=\"" + endpoint.target_namespace + "\"/>");
  // Unprefixed, under a default namespace.
  out.push_back("<" + op + " xmlns=\"" + endpoint.target_namespace + "\"><arg0>dflt</arg0>" +
                "</" + op + ">");
  out.push_back("<" + op + " xmlns=\"" + endpoint.target_namespace +
                "\"><arg0><name>n</name></arg0></" + op + ">");
  out.push_back("<m:noSuchOperation xmlns:m=\"urn:x\"><m:arg0>v</m:arg0></m:noSuchOperation>");
  out.push_back(open + "<m:arg0>v</m:arg0>" + close + "<m:second xmlns:m=\"urn:x\"/>");
  return out;
}

/// Header blocks: mustUnderstand spellings, and 1.2-era entries declared on
/// themselves, by prefix only (declared on the Envelope) and by default
/// namespace.
std::vector<std::string> header_blocks(const std::string& envelope_prefix) {
  const std::string mu = envelope_prefix + ":mustUnderstand";
  return {
      "",
      "<h:x xmlns:h=\"urn:h\">v</h:x>",
      "<h:x xmlns:h=\"urn:h\" " + mu + "=\"1\">v</h:x>",
      "<h:x xmlns:h=\"urn:h\" " + mu + "=\"true\">v</h:x>",
      "<h:x xmlns:h=\"urn:h\" " + mu + "=\"0\">v</h:x>",
      "<h:x xmlns:h=\"urn:h\" mustUnderstand=\"1\">v</h:x>",
      "<wsa:Action xmlns:wsa=\"http://www.w3.org/2005/08/addressing\">a</wsa:Action>",
      "<wsa:To>t</wsa:To>",
      "<Action xmlns=\"http://www.w3.org/2005/08/addressing\">a</Action>",
      "<wsse:Security xmlns:wsse=\"http://docs.oasis-open.org/wss/2004/01/"
      "oasis-200401-wss-wssecurity-secext-1.0.xsd\" " + mu + "=\"1\"><t>x</t></wsse:Security>",
      "<wsse:Security " + mu + "=\"true\"/>",
      "<x:Include xmlns:x=\"http://www.w3.org/2004/08/xop/include\" " + mu + "=\"0\"/>",
      "<p:Other xmlns:p=\"urn:p\" xmlns:q=\"http://www.w3.org/2005/08/addressing\"/>",
      "<wsa:MessageID " + mu + "=\"1\">m</wsa:MessageID><h:y xmlns:h=\"urn:h\"/>",
      "text<!--c--><h:x xmlns:h=\"urn:h\"><nested " + mu + "=\"1\"/></h:x>",
  };
}

TEST(ExchangeOracle, HandleHttpMatchesTheTreePathOnEveryShape) {
  std::size_t requests = 0;
  for (const Endpoint& endpoint : endpoints()) {
    for (const std::string& payload : payloads(endpoint)) {
      for (const char* ns : {kSoap11, kSoap12}) {
        const std::string text = envelope(ns, "", payload);
        expect_tree_answer(*endpoint.server, endpoint.service, post(text));
        expect_tree_answer(*endpoint.server, endpoint.service,
                           post(text, "application/soap+xml; charset=utf-8"));
        requests += 2;
      }
    }
  }
  EXPECT_GT(requests, 1000u);
}

TEST(ExchangeOracle, HeaderEntriesAndFaultPayloadsMatchTheTreePath) {
  const Endpoint& endpoint = endpoints().front();
  const std::string payload = "<m:" + endpoint.operation + " xmlns:m=\"" +
                              endpoint.target_namespace + "\"><m:arg0>v</m:arg0></m:" +
                              endpoint.operation + ">";
  for (const Endpoint& each : endpoints()) {
    for (const char* ns : {kSoap11, kSoap12}) {
      for (const std::string& headers : header_blocks("soapenv")) {
        expect_tree_answer(*each.server, each.service, post(envelope(ns, headers, payload)));
        expect_tree_answer(*each.server, each.service,
                           post(envelope(ns, headers, payload),
                                "application/soap+xml; charset=utf-8"));
      }
    }
  }
  // A Fault payload in each version, bare and behind the hybrid headers.
  for (const soap::SoapVersion version : {soap::SoapVersion::k11, soap::SoapVersion::k12}) {
    soap::Envelope fault =
        soap::Envelope::make_fault(soap::Fault{"soap:Client", "bad", "detail"}, version);
    expect_tree_answer(*endpoint.server, endpoint.service, post(soap::write(fault)));
    soap::apply_hybrid_profile(fault, soap::HybridProfile::kAddressing, "echo");
    expect_tree_answer(*endpoint.server, endpoint.service, post(soap::write(fault)));
    expect_tree_answer(*endpoint.server, endpoint.service,
                       post(soap::write(fault), "application/soap+xml"));
  }
  // The HTTP gates: a GET, no or a foreign Content-Type, no SOAPAction.
  for (const Endpoint& each : endpoints()) {
    soap::HttpRequest get = post(envelope(kSoap11, "", payload));
    get.method = "GET";
    expect_tree_answer(*each.server, each.service, get);
    soap::HttpRequest bare = post(envelope(kSoap11, "", payload));
    bare.headers.clear();
    expect_tree_answer(*each.server, each.service, bare);
    expect_tree_answer(*each.server, each.service,
                       post(envelope(kSoap11, "", payload), "application/json"));
    expect_tree_answer(*each.server, each.service,
                       post(envelope(kSoap11, "", payload), "text/xml", /*soap_action=*/false));
  }
}

TEST(ExchangeOracle, EveryPrefixOfAPlainAndAHybridRequestMatchesTheTreePath) {
  const catalog::TypeCatalog java = catalog::make_java_catalog(wsx::testing::small_java_spec());
  const auto server = frameworks::make_server("JBossWS CXF 4.2.3");
  const auto client = frameworks::make_client("Apache CXF 2.7.6");
  std::size_t cut = 0;
  for (const frameworks::ServiceSpec& spec : frameworks::make_services(java)) {
    Result<frameworks::DeployedService> service = server->deploy(spec);
    if (!service.ok()) continue;
    const frameworks::SharedDescription description =
        frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
    for (const soap::HybridProfile profile :
         {soap::HybridProfile::kPure11, soap::HybridProfile::kSecured}) {
      const frameworks::PreparedCall call =
          frameworks::prepare_echo_call(*service, description, *client, nullptr, profile);
      if (call.status != frameworks::PreparedCall::Status::kReady) continue;
      for (std::size_t at = 0; at <= call.request.body.size(); ++at) {
        soap::HttpRequest prefix = call.request;
        prefix.body.resize(at);
        expect_tree_answer(*server, *service, prefix);
        ++cut;
      }
    }
    if (cut > 0) break;  // one service's two requests
  }
  EXPECT_GT(cut, 1000u);
}

// --- the client's read of a reply value -----------------------------------

/// read_reply's value against soap::parse then response_value, which
/// copies the return element's tree text: equal values or equal errors.
void expect_reply_value_as_tree(const std::string& text) {
  const Result<soap::Reply> reply = soap::read_reply(text);
  const Result<soap::Envelope> envelope = soap::parse(text);
  ASSERT_EQ(reply.ok(), envelope.ok()) << text;
  if (!envelope.ok()) {
    EXPECT_EQ(reply.error(), envelope.error()) << text;
    return;
  }
  const Result<std::string> value = soap::response_value(*envelope);
  ASSERT_EQ(reply->value.ok(), value.ok()) << text;
  if (value.ok()) {
    EXPECT_EQ(*reply->value, *value) << text;
  } else {
    EXPECT_EQ(reply->value.error(), value.error()) << text;
  }
}

TEST(ExchangeOracle, ReplyValuesAreTheReturnElementsTreeText) {
  std::size_t replies = 0;
  for (std::string children : payload_children()) {
    // The same contents under the reply's return element.
    for (std::size_t at = 0; (at = children.find("arg0", at)) != std::string::npos;) {
      children.replace(at, 4, "return");
    }
    const std::string text = envelope(
        kSoap11, "", "<m:echoResponse xmlns:m=\"urn:e\">" + children + "</m:echoResponse>");
    expect_reply_value_as_tree(text);
    for (std::size_t at = 0; at < text.size(); ++at) {
      expect_reply_value_as_tree(text.substr(0, at));
    }
    ++replies;
  }
  EXPECT_EQ(replies, payload_children().size());
}

// --- the request reader ---------------------------------------------------

/// read_request against soap::parse then request_of: the same error, or
/// the same Request.
void expect_request_read_as_parsed(const std::string& text) {
  const Result<soap::Request> read = soap::read_request(text);
  const Result<soap::Envelope> envelope = soap::parse(text);
  ASSERT_EQ(read.ok(), envelope.ok()) << text;
  if (!envelope.ok()) {
    EXPECT_EQ(read.error(), envelope.error()) << text;
    return;
  }
  const soap::Request tree = soap::request_of(*envelope);
  EXPECT_EQ(read->version, tree.version) << text;
  EXPECT_EQ(read->coherence, tree.coherence) << text;
  ASSERT_EQ(read->operation.ok(), tree.operation.ok()) << text;
  if (tree.operation.ok()) {
    EXPECT_EQ(*read->operation, *tree.operation) << text;
  } else {
    EXPECT_EQ(read->operation.error(), tree.operation.error()) << text;
  }
  EXPECT_EQ(read->value, tree.value) << text;
  EXPECT_EQ(read->fields, tree.fields) << text;
}

TEST(RequestReader, MatchesParseThenRequestOfOnEveryShape) {
  const Endpoint& endpoint = endpoints().front();
  for (const char* ns : {kSoap11, kSoap12}) {
    for (const std::string& payload : payloads(endpoint)) {
      expect_request_read_as_parsed(envelope(ns, "", payload));
    }
    for (const std::string& headers : header_blocks("soapenv")) {
      expect_request_read_as_parsed(envelope(ns, headers, payloads(endpoint).front()));
    }
  }
  for (const soap::SoapVersion version : {soap::SoapVersion::k11, soap::SoapVersion::k12}) {
    soap::Envelope fault =
        soap::Envelope::make_fault(soap::Fault{"soap:Client", "bad", "detail"}, version);
    soap::apply_hybrid_profile(fault, soap::HybridProfile::kSecured, "echo");
    expect_request_read_as_parsed(soap::write(fault));
  }
  for (const std::string& text :
       {std::string("<root/>"), std::string("<soapenv:Envelope/>"),
        envelope("urn:not-soap", "", "<op/>"), envelope(kSoap11, "<h/>", ""),
        std::string("<?xml version=\"1.0\"?><soapenv:Envelope xmlns:soapenv=\"") + kSoap11 +
            "\"><soapenv:Header/></soapenv:Envelope>",
        envelope(kSoap11, "", "<op><arg0>v</arg0></op>") + "<trailing/>",
        envelope(kSoap11, "", "<op><arg0>v</arg0></op>") + "<!--misc-->",
        envelope(kSoap11, "", "<op><arg0>a&bogus;</arg0></op>"),
        envelope(kSoap11, "<h a=\"1\" a=\"2\"/>", "<op/>"), std::string("text only")}) {
    expect_request_read_as_parsed(text);
  }
}

TEST(RequestReader, EveryPrefixMatchesParseThenRequestOf) {
  const Endpoint& endpoint = endpoints().front();
  const std::string open = "<m:" + endpoint.operation + " xmlns:m=\"urn:e\">";
  const std::string close = "</m:" + endpoint.operation + ">";
  const std::vector<std::string> headers = header_blocks("soapenv");
  // A plain request; one behind a self-declared wsse:Security marked
  // mustUnderstand and a self-declared wsa:Action; a 1.2 one behind an
  // entry marked mustUnderstand="true".
  const std::vector<std::string> texts = {
      envelope(kSoap11, "", open + "<m:arg0>a&lt;b&amp;c</m:arg0>" + close),
      envelope(kSoap11, headers[9] + headers[6],
               open + "<m:arg0> <f>1</f> <g><![CDATA[x]]></g> </m:arg0><m:arg0>z</m:arg0>" +
                   close),
      envelope(kSoap12, headers[3], open + "<m:arg0>  </m:arg0>" + close),
  };
  for (const std::string& text : texts) {
    for (std::size_t at = 0; at <= text.size(); ++at) {
      expect_request_read_as_parsed(text.substr(0, at));
    }
  }
}

TEST(RequestReader, CampaignTrafficMatchesParseThenRequestOf) {
  // Every request of the small corpus's strict and shaded rounds, clean,
  // cut at 60% and corrupted at each salt.
  const std::vector<VersionPolicy> versions = {VersionPolicy::kStrict,
                                               VersionPolicy::kShadedCxf};
  const catalog::TypeCatalog java = catalog::make_java_catalog(wsx::testing::small_java_spec());
  const catalog::TypeCatalog dotnet =
      catalog::make_dotnet_catalog(wsx::testing::small_dotnet_spec());
  const std::vector<frameworks::ServiceSpec> java_services = frameworks::make_services(java);
  const std::vector<frameworks::ServiceSpec> dotnet_services = frameworks::make_services(dotnet);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  const std::vector<soap::HybridProfile> profiles = frameworks::client_profiles(clients, versions);
  std::size_t requests = 0;
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
        const std::string& body = call.request.body;
        expect_request_read_as_parsed(body);
        expect_request_read_as_parsed(
            chaos::apply_body_fault(chaos::FaultKind::kTruncatedBody, body, 0));
        for (const std::uint64_t salt : kCorruptionSalts) {
          expect_request_read_as_parsed(
              chaos::apply_body_fault(chaos::FaultKind::kCorruptedByte, body, salt));
        }
        ++requests;
      }
    }
  }
  EXPECT_GT(requests, 300u);
}

// --- the element-text reader ----------------------------------------------

/// element_text on the root of `text`, each child's text read by a nested
/// element_text, against collect_element's tree: the same text and child
/// texts, or the same error.
void expect_text_as_tree(const std::string& text) {
  xml::pull::Tokenizer stream{text};
  xml::pull::Tokenizer tree{text};
  const xml::pull::Token* stream_root = xml::pull::next_root(stream);
  const xml::pull::Token* tree_root = xml::pull::next_root(tree);
  ASSERT_EQ(stream_root == nullptr, tree_root == nullptr) << text;
  if (tree_root == nullptr) return;
  std::vector<std::string> child_texts;
  const Result<std::string> read = xml::element_text(stream, [&](const xml::pull::Token&) {
    Result<std::string> child = xml::element_text(stream);
    if (!child.ok()) return false;
    child_texts.push_back(std::move(child.value()));
    return true;
  });
  const Result<xml::Element> built = xml::collect_element(tree, *tree_root, xml::Positions::kOmit);
  ASSERT_EQ(read.ok(), built.ok()) << text;
  if (!built.ok()) {
    EXPECT_EQ(read.error(), built.error()) << text;
    return;
  }
  EXPECT_EQ(*read, built->text()) << text;
  std::vector<std::string> tree_child_texts;
  for (const xml::Element* child : built->child_elements()) {
    tree_child_texts.push_back(child->text());
  }
  EXPECT_EQ(child_texts, tree_child_texts) << text;
}

TEST(ElementText, MatchesCollectElementTextOnEveryShapeAndPrefix) {
  std::size_t shapes = 0;
  for (const std::string& children : payload_children()) {
    for (const std::string& text :
         {"<r xmlns:m=\"urn:m\">" + children + "</r>",
          "<r>\n  " + children + "\n  <!--c-->\n</r>", "<r><![CDATA[ ]]>" + children + "</r>"}) {
      for (std::size_t at = 0; at <= text.size(); ++at) expect_text_as_tree(text.substr(0, at));
      ++shapes;
    }
  }
  for (const std::string& text :
       {std::string("<r/>"), std::string("<r>  </r>"), std::string("<r> <?p?> </r>"),
        std::string("<r> <!--c--> </r>"), std::string("<r>a<x/>  </r>"),
        std::string("<r>  <x/>a</r>"), std::string("<r>\t<![CDATA[]]>\t</r>"),
        std::string("<r>&#32;</r>"), std::string("<r>a</r >"), std::string("<r>a</q>")}) {
    expect_text_as_tree(text);
    ++shapes;
  }
  EXPECT_GT(shapes, 100u);
}

}  // namespace
}  // namespace wsx
