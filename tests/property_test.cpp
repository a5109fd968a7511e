// Property-based and parameterized sweeps (TEST_P) over the library's
// invariants: XML round-tripping on generated documents, catalog quota
// invariance across seeds, WSDL round-trips for every special type on
// every server, and campaign invariants across population scales.
#include <gtest/gtest.h>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "catalog/name_pool.hpp"
#include "frameworks/registry.hpp"
#include "fuzz/campaign.hpp"
#include "interop/study.hpp"
#include "soap/envelope.hpp"
#include "wsdl/parser.hpp"
#include "wsdl/writer.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace wsx {
namespace {

// ---------------------------------------------------------------------------
// XML round-trip property: for any generated tree, write → parse == identity.
// ---------------------------------------------------------------------------

class XmlRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

xml::Element random_tree(catalog::Rng& rng, std::size_t depth) {
  static const char* kNames[] = {"alpha", "beta", "gamma", "p:delta", "epsilon"};
  static const char* kValues[] = {"plain", "with <angle>", "amp & co", "quote\"d",
                                  "tab\tand newline\n", "unicode \xC3\xA9"};
  xml::Element element{kNames[rng.below(5)]};
  if (element.prefix() == "p") element.declare_namespace("p", "urn:prop");
  const std::size_t attribute_count = rng.below(3);
  for (std::size_t i = 0; i < attribute_count; ++i) {
    element.set_attribute("a" + std::to_string(i), kValues[rng.below(6)]);
  }
  const std::size_t child_count = depth == 0 ? 0 : rng.below(4);
  for (std::size_t i = 0; i < child_count; ++i) {
    switch (rng.below(3)) {
      case 0:
        element.add_child(random_tree(rng, depth - 1));
        break;
      case 1:
        element.add_text(kValues[rng.below(6)]);
        break;
      default:
        element.add_comment("note");
        break;
    }
  }
  return element;
}

TEST_P(XmlRoundTripProperty, WriteParseIsIdentity) {
  catalog::Rng rng{GetParam()};
  const xml::Element original = random_tree(rng, 4);
  // Compact form: pretty-printing inserts indentation that is part of the
  // text content in mixed-content elements, so identity holds for the
  // compact serialization (soap::write emits the pretty layout).
  xml::WriteOptions options;
  options.pretty = false;
  const std::string text = xml::write(original, options);
  Result<xml::Element> reparsed = xml::parse_element(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  EXPECT_EQ(xml::write(reparsed.value(), options), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------------
// Catalog properties across seeds: quotas and uniqueness are seed-invariant.
// ---------------------------------------------------------------------------

class CatalogSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CatalogSeedProperty, JavaQuotasAreSeedInvariant) {
  catalog::JavaCatalogSpec spec;
  spec.seed = GetParam();
  const catalog::TypeCatalog catalog = catalog::make_java_catalog(spec);
  EXPECT_EQ(catalog.size(), 3971u);
  EXPECT_EQ(catalog.count_with_trait(catalog::Trait::kThrowableDerived), 477u);
  EXPECT_EQ(catalog.count_with_trait(catalog::Trait::kRawGenericApi), 243u);
  EXPECT_EQ(catalog.count_with_trait(catalog::Trait::kAnyTypeArrayField), 50u);
  EXPECT_EQ(catalog.count_with_trait(catalog::Trait::kAsyncApi), 2u);
}

TEST_P(CatalogSeedProperty, DeployabilityCountsAreSeedInvariant) {
  catalog::JavaCatalogSpec spec;
  spec.seed = GetParam();
  const catalog::TypeCatalog catalog = catalog::make_java_catalog(spec);
  const auto servers = frameworks::make_servers();
  std::size_t metro_count = 0;
  std::size_t jboss_count = 0;
  for (const catalog::TypeInfo& type : catalog.types()) {
    if (servers[0]->can_deploy(type)) ++metro_count;
    if (servers[1]->can_deploy(type)) ++jboss_count;
  }
  EXPECT_EQ(metro_count, 2489u);
  EXPECT_EQ(jboss_count, 2248u);
}

TEST_P(CatalogSeedProperty, DotNetQuotasAreSeedInvariant) {
  catalog::DotNetCatalogSpec spec;
  spec.seed = GetParam();
  const catalog::TypeCatalog catalog = catalog::make_dotnet_catalog(spec);
  EXPECT_EQ(catalog.size(), 14082u);
  EXPECT_EQ(catalog.count_with_trait(catalog::Trait::kDataSetSchema), 76u);
  EXPECT_EQ(catalog.count_with_trait(catalog::Trait::kDeepNesting), 301u);
  EXPECT_EQ(catalog.count_with_trait(catalog::Trait::kCaseCollidingFields), 4u);
  const auto servers = frameworks::make_servers();
  std::size_t wcf_count = 0;
  for (const catalog::TypeInfo& type : catalog.types()) {
    if (servers[2]->can_deploy(type)) ++wcf_count;
  }
  EXPECT_EQ(wcf_count, 2502u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogSeedProperty,
                         ::testing::Values(1u, 7u, 42u, 0xABCDEFu, 0xFFFFFFFFFFFFFFFFull));

// ---------------------------------------------------------------------------
// Fuzzing determinism: the same corpus yields the same report.
// ---------------------------------------------------------------------------

TEST(FuzzDeterminism, RepeatedCampaignsAreIdentical) {
  fuzz::FuzzConfig config;
  config.corpus_per_server = 1;
  const fuzz::FuzzReport a = fuzz::run_fuzz_campaign(config);
  const fuzz::FuzzReport b = fuzz::run_fuzz_campaign(config);
  ASSERT_EQ(a.mutant_count, b.mutant_count);
  for (std::size_t i = 0; i < a.tools.size(); ++i) {
    EXPECT_EQ(a.tools[i].counts, b.tools[i].counts) << a.tools[i].client;
  }
  EXPECT_EQ(a.wsi_detected, b.wsi_detected);
}

// ---------------------------------------------------------------------------
// Envelope round-trip sweep across versions and payload shapes.
// ---------------------------------------------------------------------------

class EnvelopeProperty
    : public ::testing::TestWithParam<std::tuple<soap::SoapVersion, int>> {};

TEST_P(EnvelopeProperty, WireRoundTripPreservesEverything) {
  const auto [version, payload_children] = GetParam();
  xml::Element payload{"m:op"};
  payload.declare_namespace("m", "urn:prop");
  for (int i = 0; i < payload_children; ++i) {
    payload.add_element("m:f" + std::to_string(i)).add_text("v" + std::to_string(i));
  }
  soap::Envelope envelope{payload, version};
  xml::Element header{"h:context"};
  header.declare_namespace("h", "urn:h");
  envelope.add_header(header);

  Result<soap::Envelope> reparsed = soap::parse(soap::write(envelope));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->version(), version);
  EXPECT_EQ(reparsed->header_entries().size(), 1u);
  EXPECT_EQ(reparsed->body().child_elements().size(),
            static_cast<std::size_t>(payload_children));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EnvelopeProperty,
    ::testing::Combine(::testing::Values(soap::SoapVersion::k11, soap::SoapVersion::k12),
                       ::testing::Values(0, 1, 5)));

// ---------------------------------------------------------------------------
// WSDL round-trip for every special type on every compatible server.
// ---------------------------------------------------------------------------

struct SpecialCase {
  const char* server;
  const char* type_name;
};

class SpecialTypeWsdlProperty : public ::testing::TestWithParam<SpecialCase> {};

TEST_P(SpecialTypeWsdlProperty, ServedTextReparsesAndReserializesStably) {
  const SpecialCase param = GetParam();
  const auto server = frameworks::make_server(param.server);
  ASSERT_NE(server, nullptr);
  const bool is_dotnet = server->language() == "C#";
  const catalog::TypeCatalog catalog =
      is_dotnet ? catalog::make_dotnet_catalog() : catalog::make_java_catalog();
  const catalog::TypeInfo* type = catalog.find(param.type_name);
  ASSERT_NE(type, nullptr);
  Result<frameworks::DeployedService> service =
      server->deploy(frameworks::ServiceSpec{type});
  ASSERT_TRUE(service.ok());

  Result<wsdl::Definitions> first = wsdl::parse(service->wsdl_text);
  ASSERT_TRUE(first.ok());
  // Reserialize with default options and parse again: the model must be a
  // fixed point (stable schemas, messages, operations).
  Result<wsdl::Definitions> second = wsdl::parse(wsdl::to_string(*first));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->schemas, first->schemas);
  EXPECT_EQ(second->messages, first->messages);
  EXPECT_EQ(second->port_types, first->port_types);
  EXPECT_EQ(second->bindings, first->bindings);
}

INSTANTIATE_TEST_SUITE_P(
    Specials, SpecialTypeWsdlProperty,
    ::testing::Values(
        SpecialCase{"Metro 2.3", "javax.xml.ws.wsaddressing.W3CEndpointReference"},
        SpecialCase{"Metro 2.3", "java.text.SimpleDateFormat"},
        SpecialCase{"Metro 2.3", "javax.xml.datatype.XMLGregorianCalendar"},
        SpecialCase{"Metro 2.3", "org.omg.CORBA.NameValuePair"},
        SpecialCase{"JBossWS CXF 4.2.3", "javax.xml.ws.wsaddressing.W3CEndpointReference"},
        SpecialCase{"JBossWS CXF 4.2.3", "java.text.SimpleDateFormat"},
        SpecialCase{"JBossWS CXF 4.2.3", "java.util.concurrent.Future"},
        SpecialCase{"JBossWS CXF 4.2.3", "javax.xml.ws.Response"},
        SpecialCase{"WCF .NET 4.0.30319.17929", "System.Data.DataTable"},
        SpecialCase{"WCF .NET 4.0.30319.17929", "System.Data.DataTableCollection"},
        SpecialCase{"WCF .NET 4.0.30319.17929", "System.Data.DataView"},
        SpecialCase{"WCF .NET 4.0.30319.17929", "System.Net.Sockets.SocketError"},
        SpecialCase{"WCF .NET 4.0.30319.17929", "System.Web.UI.WebControls.Label"}),
    [](const ::testing::TestParamInfo<SpecialCase>& info) {
      std::string name = std::string(info.param.server) + "_" + info.param.type_name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Campaign invariants across population scales.
// ---------------------------------------------------------------------------

class CampaignScaleProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CampaignScaleProperty, StructuralInvariantsHoldAtEveryScale) {
  const std::size_t scale = GetParam();
  interop::StudyConfig config;
  config.java_spec.plain_beans = 10 * scale;
  config.java_spec.throwable_clean = 2 * scale;
  config.java_spec.throwable_raw = scale;
  config.java_spec.raw_generic_beans = scale;
  config.java_spec.anytype_array_beans = scale;
  config.java_spec.no_default_ctor = 2 * scale;
  config.java_spec.abstract_classes = scale;
  config.java_spec.interfaces = scale;
  config.java_spec.generic_types = scale;
  config.dotnet_spec.plain_types = 12 * scale;
  config.dotnet_spec.dataset_plain = scale;
  config.dotnet_spec.dataset_duplicated = 1;
  config.dotnet_spec.dataset_nested = 1;
  config.dotnet_spec.dataset_array = 1;
  config.dotnet_spec.encoded_binding = 1;
  config.dotnet_spec.missing_soap_action = 1;
  config.dotnet_spec.deep_nesting_clean = scale;
  config.dotnet_spec.deep_nesting_pathological = 1;
  config.dotnet_spec.generator_crash = 1;
  config.dotnet_spec.non_serializable = 3 * scale;
  config.dotnet_spec.no_default_ctor = 2 * scale;
  config.dotnet_spec.generic_types = scale;
  config.dotnet_spec.abstract_classes = scale;
  config.dotnet_spec.interfaces = scale;

  const interop::StudyResult result = interop::run_study(config);

  // Invariant: tests = 11 × deployed services.
  std::size_t deployed = 0;
  for (const interop::ServerResult& server : result.servers) {
    deployed += server.services_deployed;
  }
  EXPECT_EQ(result.total_tests(), 11u * deployed);

  for (const interop::ServerResult& server : result.servers) {
    // Invariant: the description step never errors.
    EXPECT_EQ(server.description_errors, 0u);
    // Invariant: compile warnings are exactly 2×deployed (Axis1 + Axis2).
    EXPECT_EQ(server.compilation_totals().warnings, 2u * server.services_deployed);
    // Invariant: errors never exceed tests.
    for (const interop::CellResult& cell : server.cells) {
      EXPECT_LE(cell.generation.errors, cell.tests);
      EXPECT_LE(cell.compilation.errors, cell.tests);
    }
  }

  // Invariant: the WS-I-flagged services that error downstream can never
  // exceed the flagged population.
  EXPECT_LE(result.flagged_services_with_downstream_error, result.flagged_services);

  // Invariant: Metro deploys exactly the bean population; JBossWS trades
  // raw-generic beans for the two async interfaces.
  const std::size_t java_beans = 10 * scale + 2 * scale + scale + scale + scale + 4;
  EXPECT_EQ(result.servers[0].services_deployed, java_beans);
  EXPECT_EQ(result.servers[1].services_deployed, java_beans - 2 * scale + 2);
}

INSTANTIATE_TEST_SUITE_P(Scales, CampaignScaleProperty, ::testing::Values(1u, 3u, 8u));

// ---------------------------------------------------------------------------
// Rng / NamePool determinism properties.
// ---------------------------------------------------------------------------

class RngProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngProperty, StreamsAreDeterministicAndSeedSensitive) {
  catalog::Rng a{GetParam()};
  catalog::Rng b{GetParam()};
  catalog::Rng c{GetParam() + 1};
  bool any_difference = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST_P(RngProperty, BelowStaysInRange) {
  catalog::Rng rng{GetParam()};
  for (int i = 0; i < 256; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST_P(RngProperty, NamePoolNamesAreUnique) {
  catalog::NamePool pool{GetParam()};
  std::set<std::string> names;
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(names.insert(pool.next_class_name()).second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngProperty, ::testing::Values(0u, 1u, 99u, 1u << 20));

}  // namespace
}  // namespace wsx
