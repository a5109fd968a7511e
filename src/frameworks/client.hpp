// client.hpp — client-side framework subsystems (Table II).
//
// A client model performs testing-phase step (b): consume the served WSDL
// *text*, run the tool's own parsing/translation pipeline, and either fail
// (with the tool's diagnostics) or hand generated artifacts to step (c).
// The studied tools are rows of one policy table (roster.cpp): each reacts
// to description features through an ordered list of FeatureRules.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "codemodel/model.hpp"
#include "common/diagnostics.hpp"
#include "frameworks/features.hpp"
#include "frameworks/version_policy.hpp"

namespace wsx::frameworks {

class SharedDescription;

/// Outcome of one artifact-generation run.
struct GenerationResult {
  DiagnosticSink diagnostics;
  /// Present when the tool produced artifacts. Note that several studied
  /// tools produce artifacts *and* diagnostics, and some silently produce
  /// unusable artifacts — both combinations occur here too.
  std::optional<code::Artifacts> artifacts;

  bool produced_artifacts() const { return artifacts.has_value(); }
};

/// One feature → diagnostic rule of a client tool (paper §IV.B): when any
/// of the named WsdlFeatures flags is set, the tool reports `code: message`.
/// The code is relative to the tool's code prefix ("wsimport" +
/// ".unresolved-type"), or to `stage` for a later stage of a multi-stage
/// generator.
struct FeatureRule {
  /// What the rule does besides reporting.
  enum class Effect {
    kReport,  ///< report and carry on with the next rule
    /// A manual bindings customization maps the construct (§IV.B.2): with
    /// the paper's remedy applied, the rule reports "<code>.customized" as
    /// a warning instead.
    kCurable,
    /// Generation ends here: no later rule runs and no artifacts are built
    /// (each of gSOAP's two stages aborts on its error).
    kStop,
  };

  std::array<bool WsdlFeatures::*, 3> any_of{};  ///< fires on any; unused slots null
  Severity severity = Severity::kError;
  std::string_view code = {};
  std::string_view message = {};
  Effect effect = Effect::kReport;
  std::string_view stage = {};  ///< code prefix when not the tool's own ("soapcpp2")

  bool fires(const WsdlFeatures& features) const {
    for (bool WsdlFeatures::*flag : any_of) {
      if (flag != nullptr && features.*flag) return true;
    }
    return false;
  }
};

class ClientFramework {
 public:
  virtual ~ClientFramework() = default;

  virtual std::string name() const = 0;   ///< "Apache Axis1 1.4"
  virtual std::string tool() const = 0;   ///< "wsdl2java"
  virtual code::Language language() const = 0;

  /// Table II's "Compilation" column: false for PHP/Python, whose clients
  /// are checked by instantiation instead.
  bool requires_compilation() const { return code::requires_compilation(language()); }

  /// Generates client artifacts from a pre-parsed shared description. This
  /// is the primary entry point: campaigns parse each served WSDL once and
  /// hand the same immutable description to every client tool.
  virtual GenerationResult generate(const SharedDescription& description) const = 0;

  /// Convenience for callers holding raw served text (fuzzing and chaos
  /// paths mutate bytes, so there is nothing to share): parses the text
  /// into a throwaway SharedDescription and delegates to the virtual
  /// overload above.
  GenerationResult generate(std::string_view wsdl_text) const;

  /// Runtime marshalling behaviour for the Communication step (the paper's
  /// future work). These model how the generated/ dynamic proxies behave
  /// on the wire, not how the generators behave on the WSDL.
  struct InvocationPolicy {
    /// Omit the SOAPAction HTTP header when the binding declares none
    /// (gSOAP's stub behaviour) instead of sending an empty quoted value.
    bool omit_soap_action_when_unspecified = false;
    /// The tool's rule for mapping unresolved references to an "uncommon
    /// data structure" (Zend). When it fires on the description, the proxy
    /// marshals the argument under the wrong element — the payload parses
    /// but the service echoes nothing. nullptr: the proxy never does.
    const FeatureRule* uncommon_structure = nullptr;
  };
  virtual InvocationPolicy invocation_policy() const { return {}; }

  /// The runtime's documented version-validation stance (see
  /// version_policy.hpp). On the receive side it decides how the stack
  /// treats 1.2-era headers in responses; on the send side it picks the
  /// hybrid profile the proxy emits when the versions axis is active
  /// (profile_for). Default: strict — no WS-* runtime at all.
  virtual VersionPolicy version_policy() const { return VersionPolicy::kStrict; }
};

}  // namespace wsx::frameworks
