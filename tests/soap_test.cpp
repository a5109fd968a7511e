// Unit tests for SOAP envelopes and messages (src/soap/).
#include <gtest/gtest.h>

#include "soap/http.hpp"
#include "soap/message.hpp"
#include "wsdl/model.hpp"
#include "xml/pull.hpp"

namespace wsx::soap {
namespace {

wsdl::Definitions echo_defs() {
  wsdl::Definitions defs;
  defs.target_namespace = "urn:echo";
  wsdl::PortType port_type;
  port_type.name = "P";
  port_type.operations.push_back({"echo", "echo", "echoResponse", {}});
  defs.port_types.push_back(std::move(port_type));
  return defs;
}

TEST(Envelope, WritesAndParsesPayload) {
  xml::Element payload{"m:ping"};
  payload.declare_namespace("m", "urn:x");
  payload.add_element("m:value").add_text("42");
  const Envelope envelope{payload};
  const std::string wire = write(envelope);
  Result<Envelope> parsed = parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->is_fault());
  EXPECT_EQ(parsed->body().local_name(), "ping");
}

TEST(Envelope, HeaderEntriesRoundTrip) {
  Envelope envelope{xml::Element{"m:op"}};
  xml::Element header{"m:transactionId"};
  header.add_text("tx-7");
  envelope.add_header(header);
  Result<Envelope> parsed = parse(write(envelope));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->header_entries().size(), 1u);
  EXPECT_EQ(parsed->header_entries().front().text(), "tx-7");
}

TEST(Envelope, FaultRoundTrips) {
  const Envelope envelope = Envelope::make_fault({"soap:Client", "bad request", "detail here"});
  EXPECT_TRUE(envelope.is_fault());
  Result<Envelope> parsed = parse(write(envelope));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->is_fault());
  EXPECT_EQ(parsed->fault().fault_code, "soap:Client");
  EXPECT_EQ(parsed->fault().fault_string, "bad request");
  EXPECT_EQ(parsed->fault().detail, "detail here");
}

TEST(Envelope, RejectsNonEnvelopeRoot) {
  Result<Envelope> parsed = parse("<html/>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "soap.not-an-envelope");
}

TEST(Envelope, RejectsMissingBody) {
  Result<Envelope> parsed = parse(
      R"(<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">
         </soapenv:Envelope>)");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "soap.missing-body");
}

TEST(Envelope, RejectsEmptyBody) {
  Result<Envelope> parsed = parse(
      R"(<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">
           <soapenv:Body/>
         </soapenv:Envelope>)");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "soap.empty-body");
}

TEST(Envelope, PayloadNestedToTheDepthLimit) {
  // Envelope and Body are two of the document's open elements.
  const auto nested = [](std::size_t depth) {
    std::string text =
        R"(<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">)"
        "<soapenv:Body>";
    for (std::size_t i = 2; i < depth; ++i) text += "<p>";
    text += "x";
    for (std::size_t i = 2; i < depth; ++i) text += "</p>";
    return text + "</soapenv:Body></soapenv:Envelope>";
  };
  EXPECT_TRUE(parse(nested(xml::pull::kMaxDepth)).ok());
  Result<Envelope> deeper = parse(nested(xml::pull::kMaxDepth + 1));
  ASSERT_FALSE(deeper.ok());
  EXPECT_EQ(deeper.error().code, "xml.too-deep");
}

TEST(Message, BuildsRequestForKnownOperation) {
  Result<Envelope> request = build_request(echo_defs(), "echo", {{"arg0", "hi"}});
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->body().local_name(), "echo");
  const std::vector<xml::Element*> arguments = request->body().child_elements();
  ASSERT_EQ(arguments.size(), 1u);
  EXPECT_EQ(arguments.front()->local_name(), "arg0");
  EXPECT_EQ(arguments.front()->text(), "hi");
}

TEST(Message, RejectsUnknownOperation) {
  Result<Envelope> request = build_request(echo_defs(), "nope", {});
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.error().code, "soap.unknown-operation");
}

TEST(Message, BuildsResponseWithReturnValue) {
  Result<Envelope> response = build_response(echo_defs(), "echo", "pong");
  ASSERT_TRUE(response.ok());
  Result<std::string> value = response_value(*response);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "pong");
}

TEST(Message, RejectsResponseForOneWayOperation) {
  wsdl::Definitions defs = echo_defs();
  defs.port_types.front().operations.front().output_message.clear();
  Result<Envelope> response = build_response(defs, "echo", "x");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, "soap.one-way");
}

TEST(Message, RequestOperationExtractsName) {
  Result<Envelope> request = build_request(echo_defs(), "echo", {});
  ASSERT_TRUE(request.ok());
  Result<std::string> operation = request_operation(*request);
  ASSERT_TRUE(operation.ok());
  EXPECT_EQ(*operation, "echo");
}

TEST(Message, RequestOperationRejectsFault) {
  const Envelope fault = Envelope::make_fault({"soap:Server", "boom", ""});
  Result<std::string> operation = request_operation(fault);
  ASSERT_FALSE(operation.ok());
}

TEST(Message, ResponseValueSurfacesFaults) {
  const Envelope fault = Envelope::make_fault({"soap:Server", "exec failed", ""});
  Result<std::string> value = response_value(fault);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.error().code, "soap.fault");
  EXPECT_NE(value.error().message.find("exec failed"), std::string::npos);
}

TEST(Message, ResponseValueRejectsNonResponsePayloads) {
  Result<Envelope> request = build_request(echo_defs(), "echo", {});
  Result<std::string> value = response_value(*request);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.error().code, "soap.not-a-response");
}

TEST(Message, WireRoundTripPreservesValues) {
  // Blank values are xs:string content like any other, not indentation.
  for (const std::string value : {"<xml> & entities", " ", "\t", "\n "}) {
    Result<Envelope> request = build_request(echo_defs(), "echo", {{"arg0", value}});
    ASSERT_TRUE(request.ok());
    Result<Envelope> reparsed = parse(write(*request));
    ASSERT_TRUE(reparsed.ok());
    ASSERT_NE(reparsed->body().child("arg0"), nullptr);
    EXPECT_EQ(reparsed->body().child("arg0")->text(), value);
  }
}

// Duplicate-header semantics are pinned (http.hpp): first-wins lookup,
// upsert-first set, append-only add, order-preserving storage. The chaos
// wire's header faults rely on exactly these rules.

TEST(HttpHeaders, LookupIsFirstWinsAcrossDuplicates) {
  HttpRequest request;
  request.add_header("X-Trace", "one");
  request.add_header("x-trace", "two");
  ASSERT_EQ(request.headers.size(), 2u);
  EXPECT_EQ(request.header("X-TRACE"), "one");
}

TEST(HttpHeaders, SetHeaderUpsertsTheFirstMatchAndKeepsLaterDuplicates) {
  HttpResponse response;
  response.add_header("Warning", "a");
  response.add_header("Warning", "b");
  response.set_header("warning", "c");
  ASSERT_EQ(response.headers.size(), 2u);
  EXPECT_EQ(response.headers[0].value, "c");  // first match updated in place
  EXPECT_EQ(response.headers[1].value, "b");  // later duplicate untouched
  EXPECT_EQ(response.header("Warning"), "c");
}

TEST(HttpHeaders, SetHeaderInsertsWhenAbsent) {
  HttpRequest request;
  request.set_header("SOAPAction", "\"urn:op\"");
  ASSERT_EQ(request.headers.size(), 1u);
  EXPECT_EQ(request.header("soapaction"), "\"urn:op\"");
}

TEST(HttpHeaders, RemoveHeaderDropsEveryMatchCaseInsensitively) {
  HttpRequest request;
  request.add_header("Cookie", "a");
  request.add_header("COOKIE", "b");
  request.add_header("Content-Type", "text/xml");
  EXPECT_EQ(request.remove_header("cookie"), 2u);
  EXPECT_EQ(request.remove_header("cookie"), 0u);
  ASSERT_EQ(request.headers.size(), 1u);
  EXPECT_EQ(request.headers[0].name, "Content-Type");
}

TEST(HttpHeaders, InsertionOrderIsPreserved) {
  HttpRequest request;
  request.add_header("A", "1");
  request.add_header("B", "2");
  request.add_header("A", "3");
  ASSERT_EQ(request.headers.size(), 3u);
  EXPECT_EQ(request.headers[0], (HttpHeader{"A", "1"}));
  EXPECT_EQ(request.headers[1], (HttpHeader{"B", "2"}));
  EXPECT_EQ(request.headers[2], (HttpHeader{"A", "3"}));
}

TEST(HttpHeaders, StatusClassHelpers) {
  HttpResponse response;
  response.status = 404;
  EXPECT_TRUE(response.is_client_error());
  EXPECT_FALSE(response.is_server_error());
  response.status = 503;
  EXPECT_FALSE(response.is_client_error());
  EXPECT_TRUE(response.is_server_error());
  response.status = 200;
  EXPECT_TRUE(response.ok());
}

}  // namespace
}  // namespace wsx::soap
