// roster.cpp — the studied frameworks as rows of two policy tables: the
// three server stacks of Table I and the eleven client tools of Table II.
// One ServerFramework and one client tool class read the rows, and the
// static predictor reads the client rows (roster.hpp); what sets a
// framework apart is data here, not code.
#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "frameworks/registry.hpp"
#include "frameworks/roster.hpp"
#include "frameworks/shared_description.hpp"

namespace wsx::frameworks {
namespace {

using catalog::Trait;
using Effect = FeatureRule::Effect;
using F = WsdlFeatures;

constexpr Severity kWarning = Severity::kWarning;
constexpr Effect kCurable = Effect::kCurable;
constexpr Effect kStop = Effect::kStop;

// --- Table II: the client tools. ---------------------------------------------

/// Oracle Metro 2.3 wsimport is strict: any unresolved reference,
/// wildcard-only content model or operation-less description aborts
/// generation; a dual type declaration is tolerated with a warning. Its
/// artifacts always compile — "these tools never produced code that later
/// results in compilation errors" (paper §IV.A).
constexpr FeatureRule kWsimportRules[] = {
    {.any_of = {&F::unresolved_foreign_type_ref}, .code = "unresolved-type",
     .message = "undefined type referenced from schema; consider a JAX-B bindings customization",
     .effect = kCurable},
    {.any_of = {&F::unresolved_foreign_attr_ref}, .code = "unresolved-attribute",
     .message = "attribute reference cannot be resolved", .effect = kCurable},
    {.any_of = {&F::schema_element_ref}, .code = "s-schema",
     .message = "element reference 's:schema' is not recognized", .effect = kCurable},
    {.any_of = {&F::xsd_attr_ref}, .code = "s-lang",
     .message = "attribute reference 's:lang' is not recognized", .effect = kCurable},
    {.any_of = {&F::wildcard_only_content}, .code = "s-any",
     .message = "cannot bind a content model consisting only of 's:any'", .effect = kCurable},
    {.any_of = {&F::zero_operations}, .code = "no-operations",
     .message = "the description declares no operations to import"},
    {.any_of = {&F::missing_target_namespace}, .code = "no-target-namespace",
     .message = "wsdl:definitions has no targetNamespace"},
    {.any_of = {&F::dangling_message_reference}, .code = "missing-message",
     .message = "operation references a message that is not defined"},
    {.any_of = {&F::dangling_part_reference}, .code = "missing-wrapper",
     .message = "message part references an undeclared element"},
    {.any_of = {&F::duplicate_operations}, .code = "duplicate-operation",
     .message = "operation overloading is not supported"},
    {.any_of = {&F::unresolvable_wsdl_import}, .code = "unresolvable-import",
     .message = "failed to read imported WSDL document (no location)"},
    {.any_of = {&F::dual_type_declaration}, .severity = kWarning, .code = "dual-type",
     .message = "element declares both a type attribute and an anonymous type; "
                "the anonymous type is ignored"},
};

/// Apache Axis1 1.4, the oldest tool in the study ("probably due to the lack
/// of recent updates", §IV.A): it errors on unresolved references, silently
/// accepts operation-less descriptions (§IV.B.1: "obviously not the right
/// behavior"), and a plain DataSet reference maps to an opaque member while
/// one inside a nested anonymous type derails its symbol table.
constexpr FeatureRule kAxis1Rules[] = {
    {.any_of = {&F::unresolved_foreign_type_ref}, .code = "unresolved-type",
     .message = "Type {..} is referenced but not defined"},
    {.any_of = {&F::unresolved_foreign_attr_ref}, .code = "unresolved-attribute",
     .message = "Attribute {..} is referenced but not defined"},
    {.any_of = {&F::schema_element_ref_nested}, .code = "nested-schema-ref",
     .message = "cannot map nested reference to 's:schema'"},
};

/// Apache Axis2 1.6.2 errors on unresolved type references and on
/// operation-less descriptions, but ignores attribute-level problems.
constexpr FeatureRule kAxis2Rules[] = {
    {.any_of = {&F::unresolved_foreign_type_ref}, .code = "unresolved-type",
     .message = "Error parsing WSDL: referenced type is not defined"},
    {.any_of = {&F::zero_operations}, .code = "no-operations",
     .message = "No operation was found in the portType"},
    {.any_of = {&F::dangling_part_reference}, .code = "missing-wrapper",
     .message = "Element referenced by message part is missing"},
    {.any_of = {&F::duplicate_operations}, .code = "duplicate-operation",
     .message = "Duplicate operation name in portType"},
};

/// Apache CXF 2.7.6 wsdl2java, and JBossWS wsconsume, which wraps the same
/// engine: like wsimport on unresolved references and wildcard-only
/// content, but operation-less descriptions pass silently (§IV.B.1) and
/// dual type declarations go unflagged.
constexpr FeatureRule kCxfRules[] = {
    {.any_of = {&F::unresolved_foreign_type_ref}, .code = "unresolved-type",
     .message = "undefined schema type referenced", .effect = kCurable},
    {.any_of = {&F::unresolved_foreign_attr_ref}, .code = "unresolved-attribute",
     .message = "undefined attribute referenced", .effect = kCurable},
    {.any_of = {&F::schema_element_ref}, .code = "s-schema",
     .message = "unexpected element reference 's:schema'", .effect = kCurable},
    {.any_of = {&F::xsd_attr_ref}, .code = "s-lang",
     .message = "unexpected attribute reference 's:lang'", .effect = kCurable},
    {.any_of = {&F::wildcard_only_content}, .code = "s-any",
     .message = "cannot bind wildcard-only content model ('s:any')", .effect = kCurable},
    {.any_of = {&F::missing_target_namespace}, .code = "no-target-namespace",
     .message = "wsdl:definitions has no targetNamespace"},
    {.any_of = {&F::dangling_message_reference}, .code = "missing-message",
     .message = "operation references a message that is not defined"},
    {.any_of = {&F::dangling_part_reference}, .code = "missing-wrapper",
     .message = "message part references an undeclared element"},
    {.any_of = {&F::duplicate_operations}, .code = "duplicate-operation",
     .message = "duplicate operation in portType"},
    {.any_of = {&F::unresolvable_wsdl_import}, .code = "unresolvable-import",
     .message = "cannot resolve wsdl:import without a location"},
};

/// Microsoft wsdl.exe understands the DataSet idiom natively (it is its
/// own), errors on foreign unresolved references, dangling attribute groups,
/// dual type declarations and operation-less descriptions, and warns on
/// SOAP-encoded bindings. Its three language backends share this front end.
constexpr auto kWsdlExeRules = std::to_array<FeatureRule>({
    {.any_of = {&F::unresolved_foreign_type_ref}, .code = "unresolved-type",
     .message = "Unable to import binding: referenced type is not defined"},
    {.any_of = {&F::unresolved_foreign_attr_ref}, .code = "unresolved-attribute",
     .message = "Unable to import binding: referenced attribute is not defined"},
    {.any_of = {&F::unresolved_attr_group}, .code = "unresolved-attribute-group",
     .message = "Unable to import binding: attributeGroup reference cannot be resolved"},
    {.any_of = {&F::dual_type_declaration}, .code = "dual-type",
     .message = "Schema item 'element' is invalid: both a type attribute and an anonymous "
                "type are present"},
    {.any_of = {&F::zero_operations}, .code = "no-operations",
     .message = "No operations were found to generate a proxy for"},
    {.any_of = {&F::missing_target_namespace}, .code = "no-target-namespace",
     .message = "The document has no targetNamespace"},
    {.any_of = {&F::dangling_message_reference}, .code = "missing-message",
     .message = "Unable to import operation: message not found"},
    {.any_of = {&F::dangling_part_reference}, .code = "missing-wrapper",
     .message = "Unable to import part: element not found"},
    {.any_of = {&F::duplicate_operations}, .code = "duplicate-operation",
     .message = "Duplicate operation found in portType"},
    {.any_of = {&F::unresolvable_wsdl_import}, .code = "unresolvable-import",
     .message = "Unable to download imported document"},
    {.any_of = {&F::encoded_use}, .severity = kWarning, .code = "encoded",
     .message = "binding uses SOAP encoding; rpc/encoded is not WS-I Basic Profile conformant"},
});

/// The JScript backend also warns on unknown extension elements (every
/// Java-stack description) and aborts on recursive content models.
constexpr auto kWsdlExeJScriptRules = [] {
  constexpr FeatureRule kBackend[] = {
      {.any_of = {&F::unknown_extension_elements}, .severity = kWarning,
       .code = "unknown-extension",
       .message = "ignoring unknown extensibility element in wsdl:definitions"},
      {.any_of = {&F::self_recursive_type}, .severity = Severity::kCrash, .code = "codegen-crash",
       .message = "internal failure in the JScript proxy generator"},
  };
  std::array<FeatureRule, kWsdlExeRules.size() + std::size(kBackend)> rules{};
  std::copy(kWsdlExeRules.begin(), kWsdlExeRules.end(), rules.begin());
  std::copy(std::begin(kBackend), std::end(kBackend), rules.begin() + kWsdlExeRules.size());
  return rules;
}();

/// gSOAP 2.8.16, the only two-stage generator: wsdl2h maps the description
/// to a header, soapcpp2 turns the header into proxy code. Unknown foreign
/// types map to xsd__anyType, which is why gSOAP survives descriptions that
/// break every Java tool, but a dangling attributeGroup has no such
/// fallback. The paper traces its failures to "inconsistent inter-operation
/// between the two client artifact generation tools": wsdl2h maps a
/// duplicated DataSet reference to two identical typedefs that soapcpp2
/// then rejects.
constexpr FeatureRule kGsoapRules[] = {
    {.any_of = {&F::unresolved_attr_group}, .code = "attribute-group",
     .message = "cannot resolve attributeGroup reference; no header emitted", .effect = kStop},
    {.any_of = {&F::zero_operations}, .severity = kWarning, .code = "empty-service",
     .message = "description contains no operations; generated header is empty"},
    {.any_of = {&F::missing_target_namespace}, .severity = kWarning, .code = "no-target-namespace",
     .message = "definitions has no targetNamespace; using a synthetic one"},
    {.any_of = {&F::unresolvable_wsdl_import}, .severity = kWarning, .code = "unresolvable-import",
     .message = "skipping wsdl:import without a location"},
    {.any_of = {&F::schema_element_ref_duplicated}, .code = "duplicate-typedef",
     .message = "redefinition of 'xsd__schema' in generated header", .effect = kStop,
     .stage = "soapcpp2"},
};

/// Zend Framework 1.9's client is fully dynamic: the only generation-step
/// outcomes are parse failures and the warning for a client object with no
/// methods. For unresolved references it builds an "uncommon data
/// structure" the paper flags as a risk for the later communication steps:
/// a note here, and the wrong argument element on the wire.
constexpr FeatureRule kZendRules[] = {
    {.any_of = {&F::zero_operations}, .severity = kWarning, .code = "no-operations",
     .message = "client object created but exposes no methods"},
    {.any_of = {&F::unresolved_foreign_type_ref, &F::unresolved_foreign_attr_ref,
                &F::schema_element_ref},
     .severity = Severity::kNote, .code = "uncommon-structure",
     .message = "unresolved references mapped to an uncommon data structure; "
                "later inter-operation steps may be affected"},
};

/// suds 0.4 builds proxies dynamically, like Zend, but resolves the schema
/// eagerly: unresolved foreign references abort client construction, and
/// its array handling chokes on a schema reference under
/// maxOccurs="unbounded" (its one DataSet failure).
constexpr FeatureRule kSudsRules[] = {
    {.any_of = {&F::unresolved_foreign_type_ref}, .code = "unresolved-type",
     .message = "Type not found: referenced schema type"},
    {.any_of = {&F::unresolved_foreign_attr_ref}, .code = "unresolved-attribute",
     .message = "Attribute not found: referenced schema attribute"},
    {.any_of = {&F::schema_element_ref_array}, .code = "schema-ref-array",
     .message = "cannot build array binding over reference to 's:schema'"},
    {.any_of = {&F::dangling_part_reference}, .code = "missing-wrapper",
     .message = "Type not found: message part element"},
    {.any_of = {&F::zero_operations}, .severity = kWarning, .code = "no-operations",
     .message = "client object created but exposes no methods"},
    {.any_of = {&F::encoded_use}, .severity = kWarning, .code = "encoded",
     .message = "SOAP-encoded binding; marshaller support limited"},
};

/// Table II, in table order. The version policies (version_policy.hpp):
/// the JAX-WS RI skips unknown non-mustUnderstand headers and adds
/// ignorable WS-Addressing headers; Axis2 (addressing module and Rampart),
/// CXF and wsconsume (the shaded interceptor stack) send the full 1.2-era
/// header stack; the rest have no WS-* runtime (wsdl.exe proxies are
/// basicHttpBinding with AddressingVersion.None). The artifact defects are
/// the ones the compilers catch (§IV.B.3): Axis stubs use raw collections;
/// Axis1's Exception/Error wrapper keeps referencing a renamed field (889
/// compilation errors); Axis2 drops the underscore of "local_" for
/// XMLGregorianCalendar and duplicates "extraElement" for two wildcards and
/// the backing member of enumeration wrappers; the JScript backend emits
/// bodyless accessors for deep or anyType-array shapes and a pathological
/// unit for the deepest nesting.
constexpr ClientPolicy kClientTable[] = {
    {.name = "Oracle Metro 2.3", .tool = "wsimport", .code_prefix = "wsimport",
     .rules = kWsimportRules, .version_policy = VersionPolicy::kRelaxed},
    {.name = "Apache Axis1 1.4", .tool = "wsdl2java", .code_prefix = "axis1",
     .rules = kAxis1Rules, .artifacts_survive_errors = true,
     .artifacts = {.raw_collection_stubs = true, .throwable_wrapper_defect = true}},
    {.name = "Apache Axis2 1.6.2", .tool = "wsdl2java", .code_prefix = "axis2",
     .rules = kAxis2Rules, .artifacts_survive_errors = true,
     .artifacts = {.raw_collection_stubs = true, .local_suffix_defect = true,
                   .wildcard_member_per_any = true, .enum_wrapper_defect = true},
     .version_policy = VersionPolicy::kShadedCxf},
    {.name = "Apache CXF 2.7.6", .tool = "wsdl2java", .code_prefix = "cxf", .rules = kCxfRules,
     .version_policy = VersionPolicy::kShadedCxf},
    {.name = "JBossWS CXF 4.2.3", .tool = "wsconsume", .code_prefix = "wsconsume",
     .rules = kCxfRules, .version_policy = VersionPolicy::kShadedCxf},
    {.name = ".NET Framework 4.0.30319.17929 (C#)", .tool = "wsdl.exe",
     .language = code::Language::kCSharp, .code_prefix = "wsdl.exe", .rules = kWsdlExeRules},
    {.name = ".NET Framework 4.0.30319.17929 (Visual Basic .NET)", .tool = "wsdl.exe",
     .language = code::Language::kVisualBasic, .code_prefix = "wsdl.exe",
     .rules = kWsdlExeRules},
    {.name = ".NET Framework 4.0.30319.17929 (JScript .NET)", .tool = "wsdl.exe",
     .language = code::Language::kJScript, .code_prefix = "wsdl.exe",
     .rules = kWsdlExeJScriptRules,
     .artifacts = {.missing_body_on_complex_shapes = true,
                   .pathological_marker_on_very_deep = true}},
    {.name = "gSOAP Toolkit 2.8.16", .tool = "wsdl2h.exe and soapcpp2.exe",
     .language = code::Language::kCpp, .code_prefix = "wsdl2h", .rules = kGsoapRules,
     .invocation = {.omit_soap_action_when_unspecified = true}},
    {.name = "Zend Framework 1.9", .tool = "Zend_Soap_Client", .language = code::Language::kPhp,
     .code_prefix = "zend", .rules = kZendRules,
     .invocation = {.uncommon_structure = &kZendRules[1]}},
    {.name = "suds Python 0.4", .tool = "suds Python client",
     .language = code::Language::kPython, .code_prefix = "suds", .rules = kSudsRules},
};

// The predictor reports each rule under the mechanism ids of its flags.
static_assert(std::ranges::all_of(kClientTable, [](const ClientPolicy& row) {
  return std::ranges::all_of(row.rules, [](const FeatureRule& rule) {
    return std::ranges::all_of(rule.any_of, [](bool WsdlFeatures::*flag) {
      return flag == nullptr || !mechanism_id(flag).empty();
    });
  });
}), "every flag a FeatureRule names needs a mechanism id (features.hpp)");

/// A client tool read from its row. With the paper's remedy applied, a
/// manual bindings customization downgrades the curable rules to warnings
/// (§IV.B.2) and the wrapper-naming fix removes Axis1's Exception/Error
/// defect (§IV.B.3: "renaming the attribute fixes the compilation issue").
class ClientTool final : public ClientFramework {
 public:
  ClientTool(const ClientPolicy& policy, bool remedied) : policy_(policy), remedied_(remedied) {}

  std::string name() const override { return std::string(policy_.name); }
  std::string tool() const override { return std::string(policy_.tool); }
  code::Language language() const override { return policy_.language; }
  InvocationPolicy invocation_policy() const override { return policy_.invocation; }
  VersionPolicy version_policy() const override { return policy_.version_policy; }

  using ClientFramework::generate;
  GenerationResult generate(const SharedDescription& description) const override {
    GenerationResult result;
    if (!description.parsed_ok()) {
      result.diagnostics.error(code(policy_.code_prefix, "parse"),
                               description.parse_error().message);
      return result;
    }
    const WsdlFeatures& features = description.features();
    for (const FeatureRule& rule : policy_.rules) {
      if (!rule.fires(features)) continue;
      std::string rule_code =
          code(rule.stage.empty() ? policy_.code_prefix : rule.stage, rule.code);
      if (remedied_ && rule.effect == Effect::kCurable) {
        result.diagnostics.warn(rule_code.append(".customized"),
                                std::string(rule.message)
                                    .append(" (mapped by bindings customization)"));
        continue;
      }
      Diagnostic diagnostic;
      diagnostic.severity = rule.severity;
      diagnostic.code = std::move(rule_code);
      diagnostic.message = rule.message;
      result.diagnostics.add(std::move(diagnostic));
      if (rule.effect == Effect::kStop) return result;
    }
    if (!policy_.artifacts_survive_errors && result.diagnostics.has_errors()) return result;

    ArtifactBuildOptions options = policy_.artifacts;
    options.language = policy_.language;
    if (remedied_) options.throwable_wrapper_defect = false;
    result.artifacts = build_artifacts(description.definitions(), features, options);
    return result;
  }

 private:
  static std::string code(std::string_view prefix, std::string_view name) {
    std::string out;
    out.reserve(prefix.size() + 1 + name.size());
    return out.append(prefix).append(".").append(name);
  }

  const ClientPolicy& policy_;
  bool remedied_;
};

// --- Table I: the server stacks. ---------------------------------------------

constexpr std::uint64_t traits(std::initializer_list<Trait> list) {
  std::uint64_t bits = 0;
  for (const Trait trait : list) bits |= static_cast<std::uint64_t>(trait);
  return bits;
}

/// The three stacks. Every binder needs a public default constructor and
/// refuses abstract types, interfaces and open generics.
///  - Metro's binder accepts concrete bean-style classes only, and it is the
///    strictest deployer: it refuses to publish a description with no
///    operations (the behaviour the paper praises in §IV.A). Its runtime is
///    the JAX-WS RI: unknown non-mustUnderstand headers are skipped.
///  - JBossWS also rejects classes whose public API uses raw generics (243
///    of the Metro-deployable population) but special-cases the JAX-WS
///    async API types — and then publishes descriptions with zero
///    operations for them, the unusable-but-WS-I-compliant WSDLs of
///    §IV.B.1. It is CXF-based, deployed the way the Digikoppeling estate
///    ships its shaded CXF: the bundled WS-Addressing/WS-Security
///    interceptors process 1.2-era headers and answer SOAP 1.2 in kind.
///  - WCF requires [Serializable] types. Its serializer emits the DataSet
///    idiom (s:schema / s:lang / xs:any) for System.Data types — the source
///    of 80 non-WS-I-compliant descriptions — under the "s" prefix for the
///    XML Schema namespace. basicHttpBinding with AddressingVersion.None
///    faults on any WS-* header, and its listener dispatches on SOAPAction.
const std::array<ServerPolicy, 3>& server_table() {
  constexpr std::uint64_t kRefused =
      traits({Trait::kAbstract, Trait::kInterface, Trait::kGenericType});
  static const std::array<ServerPolicy, 3> table = {{
      {.name = "Metro 2.3",
       .application_server = "GlassFish 4.0",
       .language = "Java",
       .required = traits({Trait::kDefaultCtor}),
       .refused = kRefused,
       .unbindable_lead = "Metro cannot bind ",
       .unbindable_tail = " to a schema type; deployment refused",
       .builder = {.namespace_root = "http://metro.ws.example.org/",
                   .endpoint_root = "http://localhost:8080/metro/",
                   .wsa_style = WsdlBuilderOptions::WsaStyle::kForeignTypeRef,
                   .date_format_style = WsdlBuilderOptions::DateFormatStyle::kUnresolvedAttrGroup,
                   .attach_jaxws_extension = true,
                   .declare_faults_for_throwables = true},
       .zero_operation_refuser = "Metro",
       .remedied_refuser = "Metro",
       .version_policy = VersionPolicy::kRelaxed},
      {.name = "JBossWS CXF 4.2.3",
       .application_server = "JBoss AS 7.2",
       .language = "Java",
       .admitted = traits({Trait::kAsyncApi}),
       .required = traits({Trait::kDefaultCtor}),
       .refused = kRefused | traits({Trait::kRawGenericApi}),
       .unbindable_lead = "JBossWS cannot bind ",
       .unbindable_tail = " to a schema type; deployment refused",
       .builder = {.namespace_root = "http://jbossws.ws.example.org/",
                   .endpoint_root = "http://localhost:8080/jbossws/",
                   .wsa_style = WsdlBuilderOptions::WsaStyle::kForeignAttrRef,
                   .date_format_style = WsdlBuilderOptions::DateFormatStyle::kDualTypeDeclaration,
                   .async_yields_zero_operations = true,
                   .attach_jaxws_extension = true,
                   .declare_faults_for_throwables = true},
       .remedied_refuser = "JBossWS (strict ablation)",
       .version_policy = VersionPolicy::kShadedCxf},
      {.name = "WCF .NET 4.0.30319.17929",
       .application_server = "IIS 8.0.8418.0 (Express)",
       .language = "C#",
       .required = traits({Trait::kDefaultCtor, Trait::kSerializable}),
       .refused = kRefused,
       .unbindable_lead = "WCF cannot serialize ",
       .unbindable_tail = "; deployment refused",
       .builder = {.namespace_root = "http://tempuri.org/",
                   .endpoint_root = "http://localhost:80/wcf/",
                   .dataset_idiom = true},
       .writer = {.schema_prefix = "s"},
       .requires_soap_action = true,
       .version_policy = VersionPolicy::kStrict},
  }};
  return table;
}

}  // namespace

std::span<const ClientPolicy> client_table() { return kClientTable; }

std::vector<std::unique_ptr<ServerFramework>> make_servers() {
  std::vector<std::unique_ptr<ServerFramework>> servers;
  for (const ServerPolicy& policy : server_table()) {
    servers.push_back(std::make_unique<ServerFramework>(policy));
  }
  return servers;
}

std::vector<std::unique_ptr<ClientFramework>> make_clients() {
  std::vector<std::unique_ptr<ClientFramework>> clients;
  for (const ClientPolicy& policy : kClientTable) {
    clients.push_back(std::make_unique<ClientTool>(policy, /*remedied=*/false));
  }
  return clients;
}

std::unique_ptr<ServerFramework> make_server(std::string_view name, bool remedied) {
  for (const ServerPolicy& row : server_table()) {
    if (row.name != name) continue;
    ServerPolicy policy = row;
    if (remedied) policy.zero_operation_refuser = policy.remedied_refuser;
    return std::make_unique<ServerFramework>(std::move(policy));
  }
  return nullptr;
}

std::unique_ptr<ClientFramework> make_client(std::string_view name, bool remedied) {
  for (const ClientPolicy& policy : kClientTable) {
    if (policy.name == name) return std::make_unique<ClientTool>(policy, remedied);
  }
  return nullptr;
}

}  // namespace wsx::frameworks
