// message_lint_test.cpp — the WSX11xx message-coherence pack: each rule's
// fire/don't-fire behaviour, SARIF serialization against the message
// registry, baseline round-trip suppression, and RuleConfig tuning.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/baseline.hpp"
#include "analysis/message_lint.hpp"
#include "analysis/registry.hpp"
#include "analysis/sarif.hpp"
#include "soap/envelope.hpp"
#include "soap/version.hpp"
#include "xml/node.hpp"

namespace wsx {
namespace {

using analysis::Finding;
using analysis::MessageInput;

std::string body_with(soap::HybridProfile profile,
                      soap::SoapVersion version = soap::SoapVersion::k11) {
  soap::Envelope envelope(xml::Element("pay:echo"), version);
  soap::apply_hybrid_profile(envelope, profile, "echo");
  return soap::write(envelope);
}

std::vector<Finding> lint(std::string body, std::string content_type = "",
                          const analysis::RuleConfig& config = {}) {
  MessageInput input;
  input.body = std::move(body);
  input.content_type = std::move(content_type);
  input.uri = "mem://message";
  return analysis::lint_message(input, config);
}

std::size_t count_rule(const std::vector<Finding>& findings, std::string_view id) {
  std::size_t count = 0;
  for (const Finding& finding : findings) {
    if (finding.rule_id == id) ++count;
  }
  return count;
}

TEST(MessageLint, RegistryListsTheVersionPackInOrder) {
  const auto& rules = analysis::message_lint_registry().rules();
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0]->info().id, "WSX1101");
  EXPECT_EQ(rules[1]->info().id, "WSX1102");
  EXPECT_EQ(rules[2]->info().id, "WSX1103");
  for (const auto& rule : rules) {
    EXPECT_EQ(rule->info().category, analysis::Category::kPortability);
    EXPECT_EQ(rule->info().paper_ref, "docs/VERSIONS.md");
  }
}

TEST(MessageLint, CoherentMessagesAreClean) {
  EXPECT_TRUE(lint(body_with(soap::HybridProfile::kPure11)).empty());
  EXPECT_TRUE(lint(body_with(soap::HybridProfile::kPure11),
                   "text/xml; charset=utf-8")
                  .empty());
  // A genuine 1.2 envelope under its own media type: the extension headers
  // belong to that version, nothing is incoherent.
  EXPECT_TRUE(lint(body_with(soap::HybridProfile::kPure11, soap::SoapVersion::k12),
                   "application/soap+xml; charset=utf-8")
                  .empty());
  // Unparseable input reports nothing (the parser layer owns that failure).
  EXPECT_TRUE(lint("<not-an-envelope").empty());
}

TEST(MessageLint, Wsx1101FiresPerTwelveEraHeader) {
  const std::vector<Finding> addressing = lint(body_with(soap::HybridProfile::kAddressing));
  EXPECT_GE(count_rule(addressing, "WSX1101"), 1u);
  EXPECT_EQ(count_rule(addressing, "WSX1103"), 0u);
  for (const Finding& finding : addressing) {
    EXPECT_EQ(finding.severity, Severity::kWarning);
    EXPECT_EQ(finding.location.uri, "mem://message");
    EXPECT_FALSE(finding.fixit.empty());
  }
  // The secured profile adds wsse:Security on top of the addressing set.
  EXPECT_GT(count_rule(lint(body_with(soap::HybridProfile::kSecured)), "WSX1101"),
            count_rule(addressing, "WSX1101"));
}

TEST(MessageLint, Wsx1102FiresOnTransportEnvelopeSkew) {
  const std::vector<Finding> skewed =
      lint(body_with(soap::HybridProfile::kPure11), "application/soap+xml");
  ASSERT_EQ(count_rule(skewed, "WSX1102"), 1u);
  EXPECT_EQ(skewed[0].severity, Severity::kError);
  EXPECT_NE(skewed[0].fixit.find("text/xml"), std::string::npos);

  const std::vector<Finding> reverse =
      lint(body_with(soap::HybridProfile::kPure11, soap::SoapVersion::k12), "text/xml");
  EXPECT_EQ(count_rule(reverse, "WSX1102"), 1u);

  // No Content-Type supplied → the rule has nothing to check.
  EXPECT_EQ(count_rule(lint(body_with(soap::HybridProfile::kPure11)), "WSX1102"), 0u);
}

TEST(MessageLint, Wsx1103FiresOnMustUnderstandExtensions) {
  // secured = wsse:Security with mustUnderstand="1" → the 1.2-era arm.
  const std::vector<Finding> secured = lint(body_with(soap::HybridProfile::kSecured));
  ASSERT_EQ(count_rule(secured, "WSX1103"), 1u);
  for (const Finding& finding : secured) {
    if (finding.rule_id != "WSX1103") continue;
    EXPECT_EQ(finding.severity, Severity::kError);
    EXPECT_NE(finding.message.find("shaded"), std::string::npos);
  }

  // An unknown-namespace mustUnderstand header → the faults-everywhere arm.
  soap::Envelope envelope(xml::Element("pay:echo"), soap::SoapVersion::k11);
  xml::Element session("ext:Session");
  session.set_attribute("xmlns:ext", "urn:example:session");
  envelope.add_must_understand_header(std::move(session));
  const std::vector<Finding> unknown = lint(soap::write(envelope));
  ASSERT_EQ(count_rule(unknown, "WSX1103"), 1u);
  for (const Finding& finding : unknown) {
    if (finding.rule_id != "WSX1103") continue;
    EXPECT_NE(finding.message.find("every "), std::string::npos);
  }

  // The relaxed shape (addressing, no mustUnderstand) stays quiet.
  EXPECT_EQ(count_rule(lint(body_with(soap::HybridProfile::kAddressing)), "WSX1103"), 0u);
}

TEST(MessageLint, RuleConfigDisablesAndRetunes) {
  analysis::RuleConfig config;
  config.disabled.insert("WSX1101");
  const std::vector<Finding> filtered = lint(body_with(soap::HybridProfile::kSecured), "", config);
  EXPECT_EQ(count_rule(filtered, "WSX1101"), 0u);
  EXPECT_EQ(count_rule(filtered, "WSX1103"), 1u);

  analysis::RuleConfig retuned;
  retuned.severity_overrides["WSX1101"] = Severity::kError;
  for (const Finding& finding : lint(body_with(soap::HybridProfile::kAddressing), "", retuned)) {
    if (finding.rule_id == "WSX1101") {
      EXPECT_EQ(finding.severity, Severity::kError);
    }
  }

  analysis::RuleConfig only;
  only.only.insert("WSX1102");
  const std::vector<Finding> narrowed =
      lint(body_with(soap::HybridProfile::kSecured), "application/soap+xml", only);
  EXPECT_EQ(narrowed.size(), count_rule(narrowed, "WSX1102"));
  EXPECT_EQ(count_rule(narrowed, "WSX1102"), 1u);
}

TEST(MessageLint, SarifCarriesTheMessagePack) {
  const std::vector<Finding> findings =
      lint(body_with(soap::HybridProfile::kSecured), "application/soap+xml");
  ASSERT_FALSE(findings.empty());
  const std::string sarif = analysis::to_sarif(findings, analysis::message_lint_registry());
  for (const char* id : {"WSX1101", "WSX1102", "WSX1103"}) {
    EXPECT_NE(sarif.find(std::string("\"id\":\"") + id + "\""), std::string::npos) << id;
  }
  EXPECT_NE(sarif.find("\"ruleId\":\"WSX1102\""), std::string::npos);
  EXPECT_NE(sarif.find("mem://message"), std::string::npos);
}

TEST(MessageLint, BaselineRoundTripSuppresses) {
  const std::vector<Finding> findings =
      lint(body_with(soap::HybridProfile::kSecured), "application/soap+xml");
  ASSERT_FALSE(findings.empty());

  const analysis::Baseline baseline = analysis::Baseline::from_findings(findings);
  EXPECT_EQ(baseline.size(), findings.size());
  Result<analysis::Baseline> reparsed = analysis::Baseline::parse(baseline.str());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(reparsed->str(), baseline.str());

  // Every recorded finding is suppressed; a genuinely new one is not.
  EXPECT_TRUE(analysis::apply_baseline(findings, *reparsed).empty());
  soap::Envelope envelope(xml::Element("pay:echo"), soap::SoapVersion::k11);
  xml::Element session("ext:Session");
  session.set_attribute("xmlns:ext", "urn:example:session");
  envelope.add_must_understand_header(std::move(session));
  const std::vector<Finding> fresh = lint(soap::write(envelope), "application/soap+xml");
  const std::vector<Finding> surviving = analysis::apply_baseline(fresh, *reparsed);
  // The unknown-namespace WSX1103 finding is new and survives; the
  // identical WSX1102 skew is already baselined even in the new run.
  EXPECT_EQ(count_rule(surviving, "WSX1103"), 1u);
  EXPECT_EQ(count_rule(surviving, "WSX1102"), 0u);
}

}  // namespace
}  // namespace wsx
