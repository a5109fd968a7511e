#include "analysis/message_lint.hpp"

#include <memory>

#include "soap/envelope.hpp"
#include "soap/version.hpp"

namespace wsx::analysis {
namespace {

/// A rule of the message pack. The document-pack entry point (`run` over an
/// AnalysisInput) is a no-op — these rules only fire through lint_message —
/// but deriving from Rule keeps them registrable, SARIF-listable and
/// baseline-suppressible exactly like the WSX10xx pack.
class MessageRule : public Rule {
 public:
  explicit MessageRule(RuleInfo info) : info_(std::move(info)) {}

  const RuleInfo& info() const override { return info_; }
  void run(const AnalysisInput&, Reporter&) const override {}

  /// The message-pack pass: the envelope parsed from `input.body`, plus the
  /// coherence summary both computed once by the driver.
  virtual void lint(const MessageInput& input, const soap::Envelope& envelope,
                    const soap::VersionCoherence& coherence, Reporter& out) const = 0;

 private:
  RuleInfo info_;
};

/// WSX1101 — a SOAP 1.1 envelope dressed in 1.2-era extension headers
/// (wsa/wsse/xop). Relaxed receivers skip the non-mustUnderstand ones, but
/// strict receivers (WCF AddressingVersion.None, the generation-only
/// stacks) fault the message outright.
class VersionIncoherentHeaders : public MessageRule {
 public:
  VersionIncoherentHeaders()
      : MessageRule({"WSX1101", "SOAP 1.1 envelope carries SOAP 1.2-era extension headers",
                     Category::kPortability, Severity::kWarning, "docs/VERSIONS.md"}) {}

  void lint(const MessageInput&, const soap::Envelope& envelope,
            const soap::VersionCoherence& coherence, Reporter& out) const override {
    if (envelope.version() != soap::SoapVersion::k11 || !coherence.has_12_era_headers) {
      return;
    }
    for (const xml::Element& entry : envelope.header_entries()) {
      if (!soap::is_12_era_header(entry)) continue;
      out.report("SOAP 1.1 envelope carries the 1.2-era extension header <" + entry.name() +
                     ">; strict receivers reject it with a VersionMismatch fault",
                 entry.name(), {},
                 "strip the header, or confirm every receiver's version policy is "
                 "relaxed/shaded");
    }
  }
};

/// WSX1102 — the transport and the envelope disagree about the version:
/// a 1.1 body under application/soap+xml or a 1.2 body under text/xml.
/// Strict receivers answer the former with HTTP 415 before parsing a byte.
class ContentTypeVersionSkew : public MessageRule {
 public:
  ContentTypeVersionSkew()
      : MessageRule({"WSX1102", "Content-Type disagrees with the envelope namespace version",
                     Category::kPortability, Severity::kError, "docs/VERSIONS.md"}) {}

  void lint(const MessageInput& input, const soap::Envelope& envelope,
            const soap::VersionCoherence&, Reporter& out) const override {
    if (input.content_type.empty()) return;
    if (soap::content_type_matches(input.content_type, envelope.version())) return;
    out.report("Content-Type \"" + input.content_type + "\" does not match the " +
                   soap::to_string(envelope.version()) + " envelope namespace",
               input.content_type, {},
               std::string("send \"") +
                   std::string(soap::content_type_for(envelope.version())) +
                   "\" for this envelope version");
  }
};

/// WSX1103 — a mustUnderstand extension header on a SOAP 1.1 message. Only
/// shaded-CXF-style receivers process the wsse/wsa modules; everyone else
/// is *required* by the processing model to fault, so this is a hard error
/// wherever the receiver set is not uniformly shaded. An ununderstood
/// mustUnderstand header in an unknown namespace faults everywhere.
class MustUnderstandExtension : public MessageRule {
 public:
  MustUnderstandExtension()
      : MessageRule({"WSX1103", "mustUnderstand extension header on a SOAP 1.1 message",
                     Category::kPortability, Severity::kError, "docs/VERSIONS.md"}) {}

  void lint(const MessageInput&, const soap::Envelope& envelope,
            const soap::VersionCoherence& coherence, Reporter& out) const override {
    if (envelope.version() != soap::SoapVersion::k11) return;
    if (!coherence.has_12_era_mu_headers && !coherence.has_unknown_mu_headers) return;
    for (const xml::Element& entry : envelope.header_entries()) {
      if (!soap::marked_must_understand(entry)) continue;
      if (soap::is_12_era_header(entry)) {
        out.report("mustUnderstand header <" + entry.name() +
                       "> is only processed by shaded receivers; relaxed and strict "
                       "receivers must fault it",
                   entry.name(), {},
                   "drop mustUnderstand=\"1\" or restrict the receiver set to shaded "
                   "deployments");
      } else {
        out.report("mustUnderstand header <" + entry.name() +
                       "> is in a namespace no receiver in the roster understands; every "
                       "version policy faults it",
                   entry.name(), {}, "remove the header");
      }
    }
  }
};

}  // namespace

const RuleRegistry& message_lint_registry() {
  static const RuleRegistry* const registry = [] {
    auto* built = new RuleRegistry();
    built->add(std::make_unique<VersionIncoherentHeaders>());
    built->add(std::make_unique<ContentTypeVersionSkew>());
    built->add(std::make_unique<MustUnderstandExtension>());
    return built;
  }();
  return *registry;
}

std::vector<Finding> lint_message(const MessageInput& input, const RuleConfig& config) {
  std::vector<Finding> findings;
  Result<soap::Envelope> envelope = soap::parse(input.body);
  if (!envelope.ok()) return findings;
  const soap::VersionCoherence coherence = soap::inspect_coherence(*envelope);
  for (const auto& rule : message_lint_registry().rules()) {
    const auto* message_rule = static_cast<const MessageRule*>(rule.get());
    if (!config.enabled(message_rule->info())) continue;
    Reporter reporter(message_rule->info(), config.severity_for(message_rule->info()),
                      input.uri, findings);
    message_rule->lint(input, *envelope, coherence, reporter);
  }
  return findings;
}

}  // namespace wsx::analysis
