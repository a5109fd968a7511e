// Pins the bytes every server publishes. The study's digests hash outcome
// counts, not descriptions, so a writer change that kept every verdict but
// moved one byte of served WSDL would pass them; these hashes would not.
// The constants were captured from the DOM-based writer the emitter
// replaced, so they hold the emitter to that writer's output byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/service.hpp"
#include "test_helpers.hpp"
#include "wsdl/parser.hpp"
#include "wsdl/writer.hpp"

namespace wsx {
namespace {

struct ServedDigest {
  std::size_t services = 0;
  std::size_t bytes = 0;
  std::uint64_t fnv1a = 1469598103934665603ull;

  void add(std::string_view text) {
    ++services;
    bytes += text.size();
    for (const char c : text) {
      fnv1a ^= static_cast<unsigned char>(c);
      fnv1a *= 1099511628211ull;
    }
    fnv1a ^= 0xFFu;  // document separator: no byte of UTF-8 text is 0xFF
    fnv1a *= 1099511628211ull;
  }
};

/// Digests the served corpus (test_helpers.hpp) in corpus order.
ServedDigest served_digest(std::size_t percent, frameworks::ServiceShape shape) {
  ServedDigest digest;
  for (const std::string& text : testing::served_corpus(percent, shape)) digest.add(text);
  return digest;
}

TEST(ServedBytes, PinnedAtTwoPercent) {
  const ServedDigest digest = served_digest(2, frameworks::ServiceShape::kSimpleEcho);
  EXPECT_EQ(digest.services, 182u);
  EXPECT_EQ(digest.bytes, 472022u);
  EXPECT_EQ(digest.fnv1a, 0xa34e8615c2e09d9full);
}

TEST(ServedBytes, PinnedAtTwoPercentCrudShape) {
  const ServedDigest digest = served_digest(2, frameworks::ServiceShape::kCrud);
  EXPECT_EQ(digest.services, 182u);
  EXPECT_EQ(digest.bytes, 828350u);
  EXPECT_EQ(digest.fnv1a, 0xc7c97ab7d796342full);
}

TEST(ServedBytes, PinnedAtFullScale) {
  const ServedDigest digest = served_digest(100, frameworks::ServiceShape::kSimpleEcho);
  EXPECT_EQ(digest.services, 7239u);
  EXPECT_EQ(digest.bytes, 19199691u);
  EXPECT_EQ(digest.fnv1a, 0xd9c934dc09ab5634ull);
}

// --- to_string(parse(text)) ---------------------------------------------------

/// The write options each server publishes with (see src/frameworks/roster.cpp).
wsdl::WsdlWriteOptions options_of(std::string_view server) {
  wsdl::WsdlWriteOptions options;
  if (server == "WCF .NET 4.0.30319.17929") options.schema_prefix = "s";
  return options;
}

/// Deploys the service `server` publishes for one named catalog type.
frameworks::DeployedService deploy_named(std::string_view server, std::string_view type) {
  static const catalog::TypeCatalog java = catalog::make_java_catalog();
  static const catalog::TypeCatalog dotnet = catalog::make_dotnet_catalog();
  const auto framework = frameworks::make_server(server);
  const catalog::TypeCatalog& types = framework->language() == "C#" ? dotnet : java;
  return framework->deploy(frameworks::ServiceSpec{types.find(std::string(type))}).value();
}

/// A parsed model repeats the writer's own prefixes in extra_namespaces
/// (the served root declares xmlns:wsdl, xmlns:soap, xmlns:xs and
/// xmlns:tns). Writing it again must replace those declarations in place,
/// as Element::set_attribute did, not repeat them.
TEST(ServedBytes, ReparsedModelWritesTheServedBytes) {
  for (const auto& [server, type] :
       {std::pair{"Metro 2.3", catalog::java_names::kW3CEndpointReference},
        std::pair{"JBossWS CXF 4.2.3", catalog::java_names::kFuture},
        std::pair{"WCF .NET 4.0.30319.17929", catalog::dotnet_names::kDataTable}}) {
    SCOPED_TRACE(server);
    const frameworks::DeployedService service = deploy_named(server, type);
    Result<wsdl::Definitions> parsed = wsdl::parse(service.wsdl_text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_GE(parsed->extra_namespaces.size(), 4u);
    EXPECT_EQ(wsdl::to_string(*parsed, options_of(server)), service.wsdl_text);
  }
}

/// Metro attaches a vendor extension element (jaxws:bindings); the parsed
/// model carries it as a DOM subtree and writes it back in place.
TEST(ServedBytes, ReparsedExtensionElementIsWrittenBack) {
  const frameworks::DeployedService service =
      deploy_named("Metro 2.3", catalog::java_names::kXmlGregorianCalendar);
  Result<wsdl::Definitions> parsed = wsdl::parse(service.wsdl_text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->extension_elements.size(), 1u);
  EXPECT_EQ(parsed->extension_elements.front().name(), "jaxws:bindings");
  const std::string rewritten = wsdl::to_string(*parsed);
  EXPECT_EQ(rewritten, service.wsdl_text);
  EXPECT_NE(rewritten.find("<jaxws:bindings xmlns:jaxws="), std::string::npos);
}

}  // namespace
}  // namespace wsx
