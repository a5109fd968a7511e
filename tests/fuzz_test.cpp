// Unit tests for the WSDL mutation operators and robustness campaign
// (src/fuzz/).
#include <gtest/gtest.h>

#include "catalog/java_catalog.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "fuzz/campaign.hpp"
#include "wsdl/parser.hpp"
#include "wsi/profile.hpp"
#include "xml/parser.hpp"

namespace wsx::fuzz {
namespace {

/// A served base description used by all mutation tests.
const std::string& base_wsdl() {
  static const std::string text = [] {
    const catalog::TypeCatalog catalog = catalog::make_java_catalog();
    const auto server = frameworks::make_server("Metro 2.3");
    const catalog::TypeInfo* type = catalog.find(catalog::java_names::kXmlGregorianCalendar);
    return server->deploy(frameworks::ServiceSpec{type})->wsdl_text;
  }();
  return text;
}

TEST(Mutation, AllKindsApplicableToServedWsdl) {
  const std::vector<Mutant> mutants = mutate_all(base_wsdl());
  EXPECT_EQ(mutants.size(), all_mutation_kinds().size());
  for (const Mutant& mutant : mutants) {
    EXPECT_NE(mutant.wsdl_text, base_wsdl()) << to_string(mutant.kind);
    EXPECT_FALSE(mutant.description.empty()) << to_string(mutant.kind);
  }
}

TEST(Mutation, IsDeterministic) {
  for (MutationKind kind : all_mutation_kinds()) {
    std::optional<Mutant> first = mutate(base_wsdl(), kind);
    std::optional<Mutant> second = mutate(base_wsdl(), kind);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(first->wsdl_text, second->wsdl_text) << to_string(kind);
  }
}

TEST(Mutation, WellFormedKindsStillParseAsXml) {
  for (MutationKind kind : all_mutation_kinds()) {
    if (!is_well_formed_kind(kind)) continue;
    std::optional<Mutant> mutant = mutate(base_wsdl(), kind);
    ASSERT_TRUE(mutant.has_value()) << to_string(kind);
    EXPECT_TRUE(xml::parse_element(mutant->wsdl_text).ok()) << to_string(kind);
  }
}

TEST(Mutation, TextLevelKindsBreakTheParser) {
  for (MutationKind kind : all_mutation_kinds()) {
    if (is_well_formed_kind(kind)) continue;
    std::optional<Mutant> mutant = mutate(base_wsdl(), kind);
    ASSERT_TRUE(mutant.has_value()) << to_string(kind);
    EXPECT_FALSE(xml::parse_element(mutant->wsdl_text).ok()) << to_string(kind);
  }
}

TEST(Mutation, RemoveOperationsYieldsZeroOperationWsdl) {
  std::optional<Mutant> mutant = mutate(base_wsdl(), MutationKind::kRemoveOperations);
  ASSERT_TRUE(mutant.has_value());
  Result<wsdl::Definitions> defs = wsdl::parse(mutant->wsdl_text);
  ASSERT_TRUE(defs.ok());
  EXPECT_EQ(defs->operation_count(), 0u);
}

TEST(Mutation, DropTargetNamespaceFailsR2001) {
  std::optional<Mutant> mutant = mutate(base_wsdl(), MutationKind::kDropTargetNamespace);
  ASSERT_TRUE(mutant.has_value());
  Result<wsdl::Definitions> defs = wsdl::parse(mutant->wsdl_text);
  ASSERT_TRUE(defs.ok());
  EXPECT_TRUE(wsi::check(*defs).failed("R2001"));
}

TEST(Mutation, RenameWrapperFailsR2105) {
  std::optional<Mutant> mutant = mutate(base_wsdl(), MutationKind::kRenameWrapperElement);
  ASSERT_TRUE(mutant.has_value());
  Result<wsdl::Definitions> defs = wsdl::parse(mutant->wsdl_text);
  ASSERT_TRUE(defs.ok());
  EXPECT_TRUE(wsi::check(*defs).failed("R2105"));
}

TEST(Mutation, DropMessageFailsR2097) {
  std::optional<Mutant> mutant = mutate(base_wsdl(), MutationKind::kDropMessage);
  ASSERT_TRUE(mutant.has_value());
  Result<wsdl::Definitions> defs = wsdl::parse(mutant->wsdl_text);
  ASSERT_TRUE(defs.ok());
  EXPECT_TRUE(wsi::check(*defs).failed("R2097"));
}

TEST(Mutation, DuplicateOperationFailsR2304) {
  std::optional<Mutant> mutant = mutate(base_wsdl(), MutationKind::kDuplicateOperation);
  ASSERT_TRUE(mutant.has_value());
  Result<wsdl::Definitions> defs = wsdl::parse(mutant->wsdl_text);
  ASSERT_TRUE(defs.ok());
  EXPECT_TRUE(wsi::check(*defs).failed("R2304"));
}

TEST(Mutation, SwitchToEncodedFailsR2706) {
  std::optional<Mutant> mutant = mutate(base_wsdl(), MutationKind::kSwitchToEncoded);
  ASSERT_TRUE(mutant.has_value());
  Result<wsdl::Definitions> defs = wsdl::parse(mutant->wsdl_text);
  ASSERT_TRUE(defs.ok());
  EXPECT_TRUE(wsi::check(*defs).failed("R2706"));
}

TEST(Mutation, ForeignElementStaysCompliant) {
  std::optional<Mutant> mutant = mutate(base_wsdl(), MutationKind::kInjectForeignElement);
  ASSERT_TRUE(mutant.has_value());
  Result<wsdl::Definitions> defs = wsdl::parse(mutant->wsdl_text);
  ASSERT_TRUE(defs.ok());
  EXPECT_TRUE(wsi::check(*defs).compliant());
  EXPECT_FALSE(defs->extension_elements.empty());
}

TEST(Mutation, InapplicableMutationReturnsNullopt) {
  // A description with no soapAction cannot lose one.
  std::optional<Mutant> stripped = mutate(base_wsdl(), MutationKind::kDropSoapAction);
  ASSERT_TRUE(stripped.has_value());
  EXPECT_FALSE(mutate(stripped->wsdl_text, MutationKind::kDropSoapAction).has_value());
  // Not-even-XML input yields no structural mutants.
  EXPECT_FALSE(mutate("not xml", MutationKind::kRemoveOperations).has_value());
}

TEST(Campaign, RunsAndCountsConsistently) {
  FuzzConfig config;
  config.corpus_per_server = 1;
  const FuzzReport report = run_fuzz_campaign(config);
  EXPECT_EQ(report.corpus_size, 3u);  // one per server
  EXPECT_EQ(report.tools.size(), 11u);
  EXPECT_GT(report.mutant_count, 0u);
  // Every (tool, mutant) pair is classified exactly once.
  for (const ToolRobustness& tool : report.tools) {
    std::size_t classified = 0;
    for (Reaction reaction : {Reaction::kRejected, Reaction::kWarned, Reaction::kSilentSuccess}) {
      classified += tool.total(reaction);
    }
    EXPECT_EQ(classified, report.mutant_count) << tool.client;
  }
}

TEST(Campaign, EveryToolRejectsMalformedXml) {
  FuzzConfig config;
  config.corpus_per_server = 1;
  const FuzzReport report = run_fuzz_campaign(config);
  for (const ToolRobustness& tool : report.tools) {
    for (MutationKind kind : all_mutation_kinds()) {
      if (is_well_formed_kind(kind)) continue;
      const std::size_t mutants = report.mutants_per_kind[static_cast<std::size_t>(kind)];
      EXPECT_EQ(tool.count(kind, Reaction::kRejected), mutants)
          << tool.client << " / " << to_string(kind);
    }
  }
}

TEST(Campaign, SilentAcceptanceOfBrokenInputExists) {
  // The robustness finding that motivates the harness: semantically broken
  // descriptions do slip through silently for some tools.
  FuzzConfig config;
  config.corpus_per_server = 1;
  const FuzzReport report = run_fuzz_campaign(config);
  std::size_t silent = 0;
  for (const ToolRobustness& tool : report.tools) silent += tool.silent_on_broken();
  EXPECT_GT(silent, 0u);
}

TEST(Campaign, WsiDetectsMostStructuralMutations) {
  FuzzConfig config;
  config.corpus_per_server = 1;
  const FuzzReport report = run_fuzz_campaign(config);
  std::size_t detected_kinds = 0;
  std::size_t well_formed_kinds = 0;
  for (MutationKind kind : all_mutation_kinds()) {
    if (!is_well_formed_kind(kind)) continue;
    ++well_formed_kinds;
    if (report.wsi_detected[static_cast<std::size_t>(kind)] > 0) ++detected_kinds;
  }
  EXPECT_GE(detected_kinds + 1, well_formed_kinds);  // only the foreign element escapes
}

TEST(Campaign, FormatRendersEveryKind) {
  FuzzConfig config;
  config.corpus_per_server = 1;
  const std::string text = format_fuzz(run_fuzz_campaign(config));
  for (MutationKind kind : all_mutation_kinds()) {
    EXPECT_NE(text.find(to_string(kind)), std::string::npos) << to_string(kind);
  }
}

TEST(Mutation, LocationlessImportFailsR2007AndBreaksStrictTools) {
  std::optional<Mutant> mutant = mutate(base_wsdl(), MutationKind::kLocationlessImport);
  ASSERT_TRUE(mutant.has_value());
  Result<wsdl::Definitions> defs = wsdl::parse(mutant->wsdl_text);
  ASSERT_TRUE(defs.ok());
  EXPECT_TRUE(wsi::check(*defs).failed("R2007"));
  const auto metro = frameworks::make_client("Oracle Metro 2.3");
  EXPECT_TRUE(metro->generate(mutant->wsdl_text).diagnostics.has_errors());
  const auto axis1 = frameworks::make_client("Apache Axis1 1.4");
  EXPECT_FALSE(axis1->generate(mutant->wsdl_text).diagnostics.has_errors());
}

TEST(Mutation, ChainsComposeInOrder) {
  std::optional<Mutant> chained = mutate_chain(
      base_wsdl(), {MutationKind::kDropSoapAction, MutationKind::kSwitchToEncoded});
  ASSERT_TRUE(chained.has_value());
  Result<wsdl::Definitions> defs = wsdl::parse(chained->wsdl_text);
  ASSERT_TRUE(defs.ok());
  const wsi::ComplianceReport report = wsi::check(*defs);
  EXPECT_TRUE(report.failed("R2744"));
  EXPECT_TRUE(report.failed("R2706"));
  EXPECT_NE(chained->description.find("; then "), std::string::npos);
}

TEST(Mutation, ChainStopsWhenALinkIsInapplicable) {
  // Dropping the soapAction twice cannot work.
  EXPECT_FALSE(mutate_chain(base_wsdl(), {MutationKind::kDropSoapAction,
                                          MutationKind::kDropSoapAction})
                   .has_value());
  EXPECT_FALSE(mutate_chain(base_wsdl(), {}).has_value());
}

TEST(Mutation, PatchedAxis1CuresThrowableCompilation) {
  // The §IV.B.3 fix: "Renaming the attribute fixes the compilation issue".
  const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  const auto server = frameworks::make_server("Metro 2.3");
  for (const catalog::TypeInfo& type : catalog.types()) {
    if (!type.has(catalog::Trait::kThrowableDerived) ||
        type.has(catalog::Trait::kRawGenericApi)) {
      continue;
    }
    Result<frameworks::DeployedService> service =
        server->deploy(frameworks::ServiceSpec{&type});
    ASSERT_TRUE(service.ok());
    const auto stock = frameworks::make_client("Apache Axis1 1.4");
    const auto patched = frameworks::make_client("Apache Axis1 1.4", /*remedied=*/true);
    const auto compiler = compilers::make_compiler(code::Language::kJava);
    EXPECT_TRUE(
        compiler->compile(*stock->generate(service->wsdl_text).artifacts).has_errors());
    EXPECT_FALSE(
        compiler->compile(*patched->generate(service->wsdl_text).artifacts).has_errors());
    break;
  }
}

TEST(MutationMeta, KindNamesAndCount) {
  EXPECT_EQ(all_mutation_kinds().size(), kMutationKindCount);
  EXPECT_STREQ(to_string(MutationKind::kTruncate), "truncate");
  EXPECT_STREQ(to_string(Reaction::kSilentSuccess), "silent");
  EXPECT_TRUE(is_well_formed_kind(MutationKind::kRemoveOperations));
  EXPECT_FALSE(is_well_formed_kind(MutationKind::kCorruptEntity));
}

}  // namespace
}  // namespace wsx::fuzz
