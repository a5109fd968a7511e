// Unit tests for the WSDL model, writer and parser (src/wsdl/).
#include <gtest/gtest.h>

#include "wsdl/parser.hpp"
#include "wsdl/writer.hpp"
#include "xml/parser.hpp"

namespace wsx::wsdl {
namespace {

Definitions make_echo_definitions() {
  Definitions defs;
  defs.name = "EchoPoint";
  defs.target_namespace = "urn:echo";

  xsd::Schema schema;
  schema.target_namespace = "urn:echo";
  xsd::ComplexType point;
  point.name = "Point";
  xsd::ElementDecl x;
  x.name = "x";
  x.type = xsd::qname(xsd::Builtin::kInt);
  point.particles.emplace_back(std::move(x));
  schema.complex_types.push_back(std::move(point));
  xsd::ElementDecl wrapper;
  wrapper.name = "echo";
  xsd::ComplexType wrapper_type;
  xsd::ElementDecl arg;
  arg.name = "arg0";
  arg.type = xml::QName{"urn:echo", "Point"};
  wrapper_type.particles.emplace_back(std::move(arg));
  wrapper.inline_type = Box<xsd::ComplexType>{std::move(wrapper_type)};
  schema.elements.push_back(std::move(wrapper));
  defs.schemas.push_back(std::move(schema));

  Message input;
  input.name = "echo";
  input.parts.push_back({"parameters", xml::QName{"urn:echo", "echo"}, {}});
  defs.messages.push_back(std::move(input));
  Message output;
  output.name = "echoResponse";
  output.parts.push_back({"parameters", xml::QName{"urn:echo", "echoResponse"}, {}});
  defs.messages.push_back(std::move(output));

  PortType port_type;
  port_type.name = "EchoPort";
  port_type.operations.push_back({"echo", "echo", "echoResponse", {}});
  defs.port_types.push_back(std::move(port_type));

  Binding binding;
  binding.name = "EchoBinding";
  binding.port_type = xml::QName{"urn:echo", "EchoPort"};
  BindingOperation operation;
  operation.name = "echo";
  operation.soap_action = "";
  binding.operations.push_back(std::move(operation));
  defs.bindings.push_back(std::move(binding));

  Service service;
  service.name = "EchoService";
  service.ports.push_back(
      {"EchoPortPort", xml::QName{"urn:echo", "EchoBinding"}, "http://localhost/echo"});
  defs.services.push_back(std::move(service));
  return defs;
}

TEST(Model, LookupHelpers) {
  const Definitions defs = make_echo_definitions();
  EXPECT_NE(defs.find_message("echo"), nullptr);
  EXPECT_EQ(defs.find_message("nope"), nullptr);
  EXPECT_NE(defs.find_port_type("EchoPort"), nullptr);
  EXPECT_NE(defs.find_binding("EchoBinding"), nullptr);
  EXPECT_EQ(defs.operation_count(), 1u);
}

TEST(Model, StyleAndUseNames) {
  EXPECT_STREQ(to_string(SoapStyle::kDocument), "document");
  EXPECT_STREQ(to_string(SoapStyle::kRpc), "rpc");
  EXPECT_STREQ(to_string(SoapUse::kLiteral), "literal");
  EXPECT_STREQ(to_string(SoapUse::kEncoded), "encoded");
}

TEST(WriterParser, RoundTripsFullDocument) {
  const Definitions original = make_echo_definitions();
  const std::string text = to_string(original);
  Result<Definitions> reparsed = parse(text);
  ASSERT_TRUE(reparsed.ok());

  EXPECT_EQ(reparsed->name, original.name);
  EXPECT_EQ(reparsed->target_namespace, original.target_namespace);
  EXPECT_EQ(reparsed->schemas.size(), 1u);
  EXPECT_EQ(reparsed->schemas.front(), original.schemas.front());
  EXPECT_EQ(reparsed->messages, original.messages);
  EXPECT_EQ(reparsed->port_types, original.port_types);
  EXPECT_EQ(reparsed->bindings, original.bindings);
  EXPECT_EQ(reparsed->services, original.services);
}

TEST(WriterParser, RoundTripsRpcEncodedBinding) {
  Definitions defs = make_echo_definitions();
  defs.bindings.front().style = SoapStyle::kRpc;
  defs.bindings.front().operations.front().input_use = SoapUse::kEncoded;
  defs.bindings.front().operations.front().output_use = SoapUse::kEncoded;
  Result<Definitions> reparsed = parse(to_string(defs));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->bindings.front().style, SoapStyle::kRpc);
  EXPECT_EQ(reparsed->bindings.front().operations.front().input_use, SoapUse::kEncoded);
}

TEST(WriterParser, RoundTripsMissingSoapAction) {
  Definitions defs = make_echo_definitions();
  defs.bindings.front().operations.front().has_soap_action = false;
  Result<Definitions> reparsed = parse(to_string(defs));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_FALSE(reparsed->bindings.front().operations.front().has_soap_action);
}

TEST(WriterParser, PreservesSoapActionPresenceWithEmptyValue) {
  const Definitions defs = make_echo_definitions();  // soapAction=""
  Result<Definitions> reparsed = parse(to_string(defs));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->bindings.front().operations.front().has_soap_action);
  EXPECT_EQ(reparsed->bindings.front().operations.front().soap_action, "");
}

TEST(WriterParser, RoundTripsExtensionElements) {
  Definitions defs = make_echo_definitions();
  xml::Element extension{"jaxws:bindings"};
  extension.declare_namespace("jaxws", "http://java.sun.com/xml/ns/jaxws");
  extension.set_attribute("version", "2.0");
  defs.extension_elements.push_back(extension);
  Result<Definitions> reparsed = parse(to_string(defs));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->extension_elements.size(), 1u);
  EXPECT_EQ(reparsed->extension_elements.front().name(), "jaxws:bindings");
}

TEST(WriterParser, RoundTripsDocumentation) {
  Definitions defs = make_echo_definitions();
  defs.documentation = "Generated by the interop study";
  Result<Definitions> reparsed = parse(to_string(defs));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->documentation, "Generated by the interop study");
}

TEST(WriterParser, ExtraNamespacesAreDeclaredAndRecovered) {
  Definitions defs = make_echo_definitions();
  defs.extra_namespaces.emplace_back("wsa", std::string(xml::ns::kWsAddressing));
  const std::string text = to_string(defs);
  EXPECT_NE(text.find("xmlns:wsa="), std::string::npos);
  Result<Definitions> reparsed = parse(text);
  ASSERT_TRUE(reparsed.ok());
  bool found = false;
  for (const auto& [prefix, uri] : reparsed->extra_namespaces) {
    if (prefix == "wsa" && uri == xml::ns::kWsAddressing) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(WriterParser, ZeroOperationDescriptionRoundTrips) {
  Definitions defs = make_echo_definitions();
  defs.port_types.front().operations.clear();
  defs.bindings.front().operations.clear();
  defs.messages.clear();
  Result<Definitions> reparsed = parse(to_string(defs));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->operation_count(), 0u);
}

TEST(WriterParser, SchemaPrefixOptionPropagates) {
  WsdlWriteOptions options;
  options.schema_prefix = "s";
  const std::string text = to_string(make_echo_definitions(), options);
  EXPECT_NE(text.find("<s:schema"), std::string::npos);
  Result<Definitions> reparsed = parse(text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->schemas.front(), make_echo_definitions().schemas.front());
}

TEST(WriterParser, RoundTripsWsdlImports) {
  Definitions defs = make_echo_definitions();
  defs.imports.push_back({"urn:other", "http://host/other.wsdl"});
  defs.imports.push_back({"urn:broken", ""});  // locationless
  const std::string text = to_string(defs);
  EXPECT_NE(text.find("<wsdl:import"), std::string::npos);
  Result<Definitions> reparsed = parse(text);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->imports.size(), 2u);
  EXPECT_EQ(reparsed->imports[0].location, "http://host/other.wsdl");
  EXPECT_TRUE(reparsed->imports[1].location.empty());
}

TEST(Parser, RejectsNonWsdlRoot) {
  Result<Definitions> defs = parse("<html/>");
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().code, "wsdl.not-a-wsdl");
}

TEST(Parser, RejectsMalformedXml) {
  Result<Definitions> defs = parse("<wsdl:definitions");
  ASSERT_FALSE(defs.ok());
}

TEST(Parser, DepthLimitAdmitsExactlyMaxDepthOpenElements) {
  // The root is one of the open elements; a vendor extension holds the rest.
  const auto nested = [](std::size_t depth) {
    std::string text =
        R"(<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/">)";
    for (std::size_t i = 1; i < depth; ++i) text += "<x>";
    for (std::size_t i = 1; i < depth; ++i) text += "</x>";
    return text + "</wsdl:definitions>";
  };
  EXPECT_TRUE(parse(nested(xml::pull::kMaxDepth)).ok());
  Result<Definitions> deeper = parse(nested(xml::pull::kMaxDepth + 1));
  ASSERT_FALSE(deeper.ok());
  EXPECT_EQ(deeper.error().code, "xml.too-deep");
}

TEST(Parser, RejectsUnknownBindingStyle) {
  const char* text =
      R"(<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
           xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/" targetNamespace="urn:x">
           <wsdl:binding name="B" type="tns:P">
             <soap:binding transport="t" style="sideways"/>
           </wsdl:binding>
         </wsdl:definitions>)";
  Result<Definitions> defs = parse(text);
  ASSERT_FALSE(defs.ok());
  EXPECT_EQ(defs.error().code, "wsdl.bad-style");
}

TEST(Parser, OneWayOperationHasEmptyOutput) {
  const char* text =
      R"(<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
           xmlns:tns="urn:x" targetNamespace="urn:x">
           <wsdl:portType name="P">
             <wsdl:operation name="fire"><wsdl:input message="tns:fire"/></wsdl:operation>
           </wsdl:portType>
         </wsdl:definitions>)";
  Result<Definitions> defs = parse(text);
  ASSERT_TRUE(defs.ok());
  const Operation& operation = defs->port_types.front().operations.front();
  EXPECT_EQ(operation.input_message, "fire");
  EXPECT_TRUE(operation.output_message.empty());
}

}  // namespace
}  // namespace wsx::wsdl
