// Integration tests for the Communication + Execution extension
// (src/interop/communication.*, soap/http.*).
#include <gtest/gtest.h>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "frameworks/invocation.hpp"
#include "frameworks/registry.hpp"
#include "interop/communication.hpp"
#include "soap/http.hpp"
#include "soap/message.hpp"

namespace wsx::interop {
namespace {

TEST(Http, HeadersAreCaseInsensitive) {
  soap::HttpRequest request;
  request.set_header("Content-Type", "text/xml");
  EXPECT_EQ(request.header("content-type"), "text/xml");
  request.set_header("CONTENT-TYPE", "text/plain");
  EXPECT_EQ(request.header("Content-Type"), "text/plain");
  EXPECT_EQ(request.headers.size(), 1u);
}

TEST(Http, SoapRequestCarriesQuotedAction) {
  const soap::HttpRequest request =
      soap::make_soap_request("http://h/svc", "urn:op", "<e/>");
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.header("SOAPAction"), "\"urn:op\"");
  EXPECT_NE(request.header("Content-Type")->find("text/xml"), std::string::npos);
}

TEST(Http, FaultResponsesUse500) {
  EXPECT_EQ(soap::make_soap_response("<e/>", /*is_fault=*/false).status, 200);
  EXPECT_EQ(soap::make_soap_response("<f/>", /*is_fault=*/true).status, 500);
  EXPECT_TRUE(soap::make_soap_response("<e/>", false).ok());
  EXPECT_FALSE(soap::make_soap_response("<f/>", true).ok());
}

class HttpEndpoint : public ::testing::Test {
 protected:
  static const frameworks::DeployedService& service() {
    static const frameworks::DeployedService deployed = [] {
      const catalog::TypeCatalog catalog = catalog::make_java_catalog();
      const auto server = frameworks::make_server("Metro 2.3");
      const catalog::TypeInfo* type =
          catalog.find(catalog::java_names::kXmlGregorianCalendar);
      return std::move(server->deploy(frameworks::ServiceSpec{type}).value());
    }();
    return deployed;
  }

  static soap::HttpRequest echo_request(const std::string& payload) {
    Result<soap::Envelope> envelope =
        soap::build_request(service().wsdl, "echo", {{"arg0", payload}});
    return soap::make_soap_request("http://localhost/echo", "", soap::write(*envelope));
  }
};

TEST_F(HttpEndpoint, EchoOverHttpSucceeds) {
  const auto server = frameworks::make_server("Metro 2.3");
  const soap::HttpResponse response = server->handle_http(service(), echo_request("ping"));
  ASSERT_EQ(response.status, 200);
  Result<soap::Envelope> envelope = soap::parse(response.body);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(soap::response_value(*envelope).value(), "ping");
}

TEST_F(HttpEndpoint, BlankPayloadEchoesUnchanged) {
  // A single space is a value, not indentation: the server must read it,
  // echo it back, and the client must see it unchanged.
  const auto server = frameworks::make_server("Metro 2.3");
  const soap::HttpResponse response = server->handle_http(service(), echo_request(" "));
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(frameworks::classify_echo_response(response, " ").outcome,
            frameworks::EchoOutcome::kOk);
  Result<soap::Envelope> envelope = soap::parse(response.body);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(soap::response_value(*envelope).value(), " ");
}

TEST_F(HttpEndpoint, RejectsNonPost) {
  const auto server = frameworks::make_server("Metro 2.3");
  soap::HttpRequest request = echo_request("x");
  request.method = "GET";
  EXPECT_EQ(server->handle_http(service(), request).status, 405);
}

TEST_F(HttpEndpoint, RejectsWrongContentType) {
  const auto server = frameworks::make_server("Metro 2.3");
  soap::HttpRequest request = echo_request("x");
  request.set_header("Content-Type", "application/json");
  EXPECT_EQ(server->handle_http(service(), request).status, 415);
}

TEST_F(HttpEndpoint, MalformedEnvelopeYieldsClientFault) {
  const auto server = frameworks::make_server("Metro 2.3");
  soap::HttpRequest request = echo_request("x");
  request.body = "<garbage";
  const soap::HttpResponse response = server->handle_http(service(), request);
  EXPECT_EQ(response.status, 500);
  Result<soap::Envelope> envelope = soap::parse(response.body);
  ASSERT_TRUE(envelope.ok());
  EXPECT_TRUE(envelope->is_fault());
}

TEST_F(HttpEndpoint, JavaStacksTolerateMissingSoapAction) {
  const auto server = frameworks::make_server("Metro 2.3");
  soap::HttpRequest request = echo_request("x");
  std::erase_if(request.headers,
                [](const soap::HttpHeader& header) { return header.name == "SOAPAction"; });
  EXPECT_EQ(server->handle_http(service(), request).status, 200);
}

TEST(WcfEndpoint, RequiresSoapActionHeader) {
  const catalog::TypeCatalog catalog = catalog::make_dotnet_catalog();
  const auto server = frameworks::make_server("WCF .NET 4.0.30319.17929");
  const catalog::TypeInfo* type = catalog.find(catalog::dotnet_names::kDataView);
  Result<frameworks::DeployedService> service =
      server->deploy(frameworks::ServiceSpec{type});
  ASSERT_TRUE(service.ok());
  Result<soap::Envelope> envelope =
      soap::build_request(service->wsdl, "echo", {{"arg0", "x"}});
  soap::HttpRequest request =
      soap::make_soap_request("http://localhost/x", "", soap::write(*envelope));
  std::erase_if(request.headers,
                [](const soap::HttpHeader& header) { return header.name == "SOAPAction"; });
  const soap::HttpResponse response = server->handle_http(*service, request);
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("SOAPAction"), std::string::npos);
}

/// Scaled communication study shared across the assertions below.
class CommStudy : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StudyConfig config;
    config.java_spec.plain_beans = 20;
    config.java_spec.throwable_clean = 3;
    config.java_spec.throwable_raw = 1;
    config.java_spec.raw_generic_beans = 2;
    config.java_spec.anytype_array_beans = 1;
    config.java_spec.no_default_ctor = 2;
    config.java_spec.abstract_classes = 1;
    config.java_spec.interfaces = 1;
    config.java_spec.generic_types = 1;
    config.dotnet_spec.plain_types = 20;
    config.dotnet_spec.dataset_plain = 2;
    config.dotnet_spec.dataset_duplicated = 1;
    config.dotnet_spec.dataset_nested = 1;
    config.dotnet_spec.dataset_array = 1;
    config.dotnet_spec.encoded_binding = 1;
    config.dotnet_spec.missing_soap_action = 2;
    config.dotnet_spec.deep_nesting_clean = 2;
    config.dotnet_spec.deep_nesting_pathological = 1;
    config.dotnet_spec.generator_crash = 1;
    config.dotnet_spec.non_serializable = 5;
    config.dotnet_spec.no_default_ctor = 4;
    config.dotnet_spec.generic_types = 3;
    config.dotnet_spec.abstract_classes = 2;
    config.dotnet_spec.interfaces = 1;
    result_ = new CommunicationResult(run_communication_study(config));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static const CommunicationResult& result() { return *result_; }
  static CommunicationResult* result_;

  static const CommCell& cell(std::size_t server, std::string_view client_prefix) {
    for (const CommCell& candidate : result().servers[server].cells) {
      if (candidate.client.rfind(client_prefix, 0) == 0) return candidate;
    }
    static CommCell empty;
    return empty;
  }
};

CommunicationResult* CommStudy::result_ = nullptr;

TEST_F(CommStudy, MostInvocationsSucceed) {
  EXPECT_GT(result().total_attempted(), 0u);
  EXPECT_GT(result().total(CommOutcome::kOk), result().total_failures());
}

TEST_F(CommStudy, GsoapHitsTransportErrorsOnMissingSoapAction) {
  // gSOAP omits the SOAPAction header when the binding declares none; the
  // .NET HTTP stack rejects such requests (2 services in this config).
  EXPECT_EQ(cell(2, "gSOAP").count(CommOutcome::kTransportError), 2u);
  // Every other client sends an empty quoted action and passes.
  EXPECT_EQ(cell(2, "Oracle Metro").count(CommOutcome::kTransportError), 0u);
  EXPECT_EQ(cell(2, "suds").count(CommOutcome::kTransportError), 0u);
}

TEST_F(CommStudy, ZendSilentlyLosesDataOnUncommonStructures) {
  // Zend produced zero generation/compilation issues, yet its calls against
  // the DataSet-idiom services echo nothing back — the paper's warning
  // about step-1..3 cleanliness made concrete. 5 DataSet services here.
  EXPECT_EQ(cell(2, "Zend").count(CommOutcome::kEchoMismatch), 5u);
  EXPECT_EQ(cell(2, "suds").count(CommOutcome::kEchoMismatch), 0u);
}

TEST_F(CommStudy, ZeroOperationProxiesCannotInvoke) {
  // Future/Response on JBossWS: tools that silently accepted the unusable
  // WSDL end with proxies that cannot call anything.
  EXPECT_EQ(cell(1, "Apache Axis1").count(CommOutcome::kNoInvocableProxy), 2u);
  EXPECT_EQ(cell(1, "Apache CXF").count(CommOutcome::kNoInvocableProxy), 2u);
  EXPECT_EQ(cell(1, "Zend").count(CommOutcome::kNoInvocableProxy), 2u);
  // Tools that errored at generation never get here.
  EXPECT_EQ(cell(1, "Oracle Metro").count(CommOutcome::kNoInvocableProxy), 0u);
}

TEST_F(CommStudy, BlockedEarlierMatchesMainStudyGates) {
  // Clients blocked at steps 1–3 must not attempt communication: attempted
  // + blocked == deployed services.
  for (const CommServerResult& server : result().servers) {
    for (const CommCell& cell : server.cells) {
      EXPECT_EQ(cell.attempted() + cell.count(CommOutcome::kBlockedEarlier),
                server.services_deployed)
          << server.server << " / " << cell.client;
    }
  }
}

TEST_F(CommStudy, TransportDetailSplitsByStatusClass) {
  // The 4xx/5xx split refines kTransportError without changing it: the
  // two buckets never exceed the transport count (unparseable 2xx bodies
  // fall in neither).
  for (const CommServerResult& server : result().servers) {
    for (const CommCell& cell : server.cells) {
      EXPECT_LE(cell.transport_4xx + cell.transport_5xx,
                cell.count(CommOutcome::kTransportError))
          << server.server << " / " << cell.client;
    }
  }
  // gSOAP's missing-SOAPAction rejections on WCF are server-side 500s.
  EXPECT_EQ(cell(2, "gSOAP").transport_5xx, 2u);
  EXPECT_EQ(cell(2, "gSOAP").transport_4xx, 0u);
}

TEST_F(CommStudy, CsvCarriesTheTransportDetailColumns) {
  const std::string csv = communication_csv(result());
  EXPECT_EQ(csv.find("server,client,blocked"), 0u);
  EXPECT_NE(csv.find("transport_4xx,transport_5xx"), std::string::npos);
}

TEST_F(CommStudy, FormatRendersAllServers) {
  const std::string text = format_communication(result());
  EXPECT_NE(text.find("Metro 2.3"), std::string::npos);
  EXPECT_NE(text.find("WCF"), std::string::npos);
  EXPECT_NE(text.find("communication-step failures"), std::string::npos);
}

TEST(CommOutcomeMeta, Names) {
  EXPECT_STREQ(to_string(CommOutcome::kOk), "ok");
  EXPECT_STREQ(to_string(CommOutcome::kEchoMismatch), "echo mismatch");
  EXPECT_STREQ(to_string(CommOutcome::kBlockedEarlier), "blocked earlier");
}

}  // namespace
}  // namespace wsx::interop
