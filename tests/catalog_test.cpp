// Unit and property tests for the calibrated type catalogs (src/catalog/).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"

namespace wsx::catalog {
namespace {

const TypeCatalog& java() {
  static const TypeCatalog catalog = make_java_catalog();
  return catalog;
}

const TypeCatalog& dotnet() {
  static const TypeCatalog catalog = make_dotnet_catalog();
  return catalog;
}

TEST(JavaCatalog, PopulationMatchesPaperCrawl) {
  EXPECT_EQ(java().size(), 3971u);  // Java SE 7 classes crawled
  EXPECT_EQ(java().platform(), "Java SE 7");
}

TEST(DotNetCatalog, PopulationMatchesPaperCrawl) {
  EXPECT_EQ(dotnet().size(), 14082u);  // .NET 4 classes crawled
}

TEST(JavaCatalog, SpecialClassesPresentWithTraits) {
  const TypeInfo* w3c = java().find(java_names::kW3CEndpointReference);
  ASSERT_NE(w3c, nullptr);
  EXPECT_TRUE(w3c->has(Trait::kWsaEndpointReference));

  const TypeInfo* sdf = java().find(java_names::kSimpleDateFormat);
  ASSERT_NE(sdf, nullptr);
  EXPECT_TRUE(sdf->has(Trait::kLegacyDateFormat));

  const TypeInfo* cal = java().find(java_names::kXmlGregorianCalendar);
  ASSERT_NE(cal, nullptr);
  EXPECT_TRUE(cal->has(Trait::kXmlGregorianCalendar));

  const TypeInfo* future = java().find(java_names::kFuture);
  ASSERT_NE(future, nullptr);
  EXPECT_TRUE(future->has(Trait::kInterface));
  EXPECT_TRUE(future->has(Trait::kAsyncApi));

  ASSERT_NE(java().find(java_names::kResponse), nullptr);
  const TypeInfo* nvp = java().find(java_names::kNameValuePair);
  ASSERT_NE(nvp, nullptr);
  EXPECT_TRUE(nvp->has(Trait::kCaseCollidingFields));
}

TEST(JavaCatalog, ThrowablePopulationMatchesAxis1Failures) {
  // 477 Throwable-derived deployable on Metro, of which 412 also deploy on
  // JBossWS (the Axis1 compilation-error counts).
  EXPECT_EQ(java().count_with_trait(Trait::kThrowableDerived), 477u);
  std::size_t clean = 0;
  for (const TypeInfo* type : java().with_trait(Trait::kThrowableDerived)) {
    if (!type->has(Trait::kRawGenericApi)) ++clean;
  }
  EXPECT_EQ(clean, 412u);
}

TEST(JavaCatalog, RawGenericPopulationMatchesJBossRefusals) {
  EXPECT_EQ(java().count_with_trait(Trait::kRawGenericApi), 243u);  // 2489 - (2248-2)
}

TEST(JavaCatalog, AnyTypeArrayPopulationMatchesJScriptFailures) {
  EXPECT_EQ(java().count_with_trait(Trait::kAnyTypeArrayField), 50u);
}

TEST(JavaCatalog, ThrowableTypesCarryMessageField) {
  for (const TypeInfo* type : java().with_trait(Trait::kThrowableDerived)) {
    const bool has_message =
        std::any_of(type->fields.begin(), type->fields.end(),
                    [](const FieldSpec& field) { return field.name == "message"; });
    EXPECT_TRUE(has_message) << type->qualified_name();
  }
}

TEST(DotNetCatalog, SpecialTypesPresentWithTraits) {
  const TypeInfo* table = dotnet().find(dotnet_names::kDataTable);
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->has(Trait::kWildcardContent));
  EXPECT_TRUE(table->has(Trait::kDoubleWildcard));

  const TypeInfo* view = dotnet().find(dotnet_names::kDataView);
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(view->has(Trait::kWildcardContent));
  EXPECT_FALSE(view->has(Trait::kDoubleWildcard));

  const TypeInfo* socket_error = dotnet().find(dotnet_names::kSocketError);
  ASSERT_NE(socket_error, nullptr);
  EXPECT_TRUE(socket_error->has(Trait::kEnumType));
  EXPECT_FALSE(socket_error->enum_values.empty());
}

TEST(DotNetCatalog, DataSetSubShapeQuotas) {
  EXPECT_EQ(dotnet().count_with_trait(Trait::kDataSetSchema), 76u);
  EXPECT_EQ(dotnet().count_with_trait(Trait::kDataSetDuplicated), 13u);  // gSOAP
  EXPECT_EQ(dotnet().count_with_trait(Trait::kDataSetNested), 3u);       // Axis1
  EXPECT_EQ(dotnet().count_with_trait(Trait::kDataSetArray), 1u);        // suds
  EXPECT_EQ(dotnet().count_with_trait(Trait::kSoapEncodedBinding), 1u);
  EXPECT_EQ(dotnet().count_with_trait(Trait::kMissingSoapAction), 3u);
}

TEST(DotNetCatalog, DataSetSubShapesAreSubsets) {
  for (const Trait sub :
       {Trait::kDataSetDuplicated, Trait::kDataSetNested, Trait::kDataSetArray}) {
    for (const TypeInfo* type : dotnet().with_trait(sub)) {
      EXPECT_TRUE(type->has(Trait::kDataSetSchema)) << type->qualified_name();
    }
  }
}

TEST(DotNetCatalog, JScriptFailurePopulations) {
  EXPECT_EQ(dotnet().count_with_trait(Trait::kDeepNesting), 301u);
  EXPECT_EQ(dotnet().count_with_trait(Trait::kCompilerPathological), 17u);
  EXPECT_EQ(dotnet().count_with_trait(Trait::kGeneratorCrash), 2u);
  for (const TypeInfo* type : dotnet().with_trait(Trait::kCompilerPathological)) {
    EXPECT_TRUE(type->has(Trait::kDeepNesting));
  }
}

TEST(DotNetCatalog, FourWebControlsCollide) {
  std::size_t web_controls = 0;
  for (const TypeInfo* type : dotnet().with_trait(Trait::kCaseCollidingFields)) {
    if (type->package == "System.Web.UI.WebControls") ++web_controls;
  }
  EXPECT_EQ(web_controls, 4u);
}

TEST(Catalogs, QualifiedNamesAreUnique) {
  for (const TypeCatalog* catalog : {&java(), &dotnet()}) {
    std::set<std::string> names;
    for (const TypeInfo& type : catalog->types()) {
      EXPECT_TRUE(names.insert(type.qualified_name()).second)
          << "duplicate: " << type.qualified_name();
    }
  }
}

TEST(Catalogs, GenerationIsDeterministic) {
  const TypeCatalog again = make_java_catalog();
  ASSERT_EQ(again.size(), java().size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again.types()[i].qualified_name(), java().types()[i].qualified_name());
    EXPECT_EQ(again.types()[i].traits, java().types()[i].traits);
    EXPECT_EQ(again.types()[i].fields, java().types()[i].fields);
  }
}

// The catalogs promise bit-identical names on every compiler: each random
// draw is its own statement, so no argument-evaluation order can reorder
// the stream. Rendered from the default specs; every later name, service
// and golden hangs off these.
TEST(Catalogs, FirstNamesArePinned) {
  const std::vector<std::string> want_java = {
      "javax.xml.ws.wsaddressing.W3CEndpointReference",
      "java.text.SimpleDateFormat",
      "javax.xml.datatype.XMLGregorianCalendar",
      "org.omg.CORBA.NameValuePair",
      "java.util.concurrent.Future",
      "javax.xml.ws.Response",
      "java.util.zip.VirtualTrackerOptions",
      "java.nio.channels.ConcurrentWizardDescriptor",
      "java.io.NestedQuotaHelper",
      "java.util.DelegatingMonitorBuilder",
      "java.text.SyncedResourceBuilder",
      "java.util.concurrent.CompositeLexerState",
      "java.util.concurrent.SharedDocumentRequest",
      "java.security.PooledLedgerInfo",
      "javax.imageio.InlineDialogDescriptor",
      "java.beans.ThreadedTrackerHandler",
      "javax.xml.parsers.PooledConfigState",
      "javax.sound.midi.PooledSplineReader",
      "java.util.SyncedPolygonResponse",
      "java.awt.geom.IndexedDocumentSupport",
  };
  const std::vector<std::string> want_dotnet = {
      "System.Data.DataTable",
      "System.Data.DataTableCollection",
      "System.Data.DataView",
      "System.Net.Sockets.SocketError",
      "System.Web.UI.WebControls.Label",
      "System.Web.UI.WebControls.ListItem",
      "System.Web.UI.WebControls.Button",
      "System.Web.UI.WebControls.HyperLink",
      "System.Drawing.VersionedCacheSupport",
      "System.Xml.Schema.DeferredSamplerHelper",
      "System.StreamingSessionProvider",
      "System.Xml.Schema.VersionedConfigReader",
      "System.Linq.CompositeConfigResult",
      "System.Drawing.RemoteProfilerHandler",
      "System.Globalization.ScopedConfigResult",
      "System.Linq.CompositeLexerOptions",
      "System.Net.PooledLayoutInfo",
      "System.Globalization.ThreadedDecoderSupport",
      "System.Runtime.ManagedConfigHelper",
      "System.Configuration.SortedChannelSpec",
  };
  const auto first_names = [](const TypeCatalog& catalog) {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < 20 && i < catalog.size(); ++i) {
      names.push_back(catalog.types()[i].qualified_name());
    }
    return names;
  };
  EXPECT_EQ(first_names(java()), want_java);
  EXPECT_EQ(first_names(dotnet()), want_dotnet);
}

TEST(Catalogs, SeedChangesNamesButNotQuotas) {
  JavaCatalogSpec spec;
  spec.seed = 0xDEADBEEF;
  const TypeCatalog reseeded = make_java_catalog(spec);
  EXPECT_EQ(reseeded.size(), java().size());
  EXPECT_EQ(reseeded.count_with_trait(Trait::kThrowableDerived),
            java().count_with_trait(Trait::kThrowableDerived));
  EXPECT_EQ(reseeded.count_with_trait(Trait::kRawGenericApi),
            java().count_with_trait(Trait::kRawGenericApi));
  // Generated names differ (the named specials stay).
  bool any_difference = false;
  for (std::size_t i = 0; i < reseeded.size(); ++i) {
    if (reseeded.types()[i].qualified_name() != java().types()[i].qualified_name()) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Catalogs, ScaledSpecScalesPopulation) {
  JavaCatalogSpec spec;
  spec.plain_beans = 10;
  spec.throwable_clean = 2;
  spec.throwable_raw = 1;
  spec.raw_generic_beans = 2;
  spec.anytype_array_beans = 1;
  spec.no_default_ctor = 3;
  spec.abstract_classes = 2;
  spec.interfaces = 2;
  spec.generic_types = 1;
  const TypeCatalog small = make_java_catalog(spec);
  // 4 named specials + 2 async interfaces + the quotas above.
  EXPECT_EQ(small.size(), 4u + 2u + 10 + 2 + 1 + 2 + 1 + 3 + 2 + 2 + 1);
}

TEST(TraitApi, SetAndHas) {
  TypeInfo type;
  EXPECT_FALSE(type.has(Trait::kAbstract));
  type.set(Trait::kAbstract);
  EXPECT_TRUE(type.has(Trait::kAbstract));
  EXPECT_FALSE(type.has(Trait::kInterface));
}

TEST(TraitApi, LanguageNames) {
  EXPECT_STREQ(to_string(SourceLanguage::kJava), "Java");
  EXPECT_STREQ(to_string(SourceLanguage::kCSharp), "C#");
}

}  // namespace
}  // namespace wsx::catalog
