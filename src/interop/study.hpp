// study.hpp — the interoperability assessment approach (paper §III).
//
// Preparation Phase: select server and client frameworks, create one echo
// service per native type. Testing Phase, per service: (a) generate the
// description at deployment, (b) generate client artifacts with every
// client tool, (c) compile them (or check instantiation), (d) classify
// each step's outcome. Description documents are additionally checked for
// WS-I Basic Profile compliance.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "common/diagnostics.hpp"
#include "frameworks/client.hpp"
#include "frameworks/server.hpp"
#include "frameworks/shared_description.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wsx::compilers {
class Compiler;
}  // namespace wsx::compilers

namespace wsx::interop {

/// Aggregated outcome of one testing-phase step for one server×client cell:
/// number of tests with at least one warning / at least one error.
struct StepCounts {
  std::size_t warnings = 0;
  std::size_t errors = 0;

  StepCounts& operator+=(const StepCounts& other) {
    warnings += other.warnings;
    errors += other.errors;
    return *this;
  }
  friend bool operator==(const StepCounts&, const StepCounts&) = default;
};

/// One cell of Table III: one client tool against one server's services.
struct CellResult {
  std::string client;
  code::Language client_language = code::Language::kJava;
  bool compiled = true;  ///< Table II "Compilation" column
  std::size_t tests = 0;
  StepCounts generation;
  StepCounts compilation;
  /// Sample diagnostics (first few distinct error codes) for reporting.
  std::vector<Diagnostic> samples;
  /// Error diagnostic code → number of tests that produced it (a test can
  /// contribute several codes). Feeds the failure catalog.
  std::map<std::string, std::size_t> error_codes;
};

/// Everything measured against one server framework.
struct ServerResult {
  std::string server;
  std::string application_server;
  std::size_t services_created = 0;
  std::size_t services_deployed = 0;
  std::size_t deployment_refusals = 0;

  /// Description-step classification: the step never errors (refused
  /// deployments are excluded up front, §III.B.a); warnings are services
  /// whose published WSDL fails WS-I or is unusable (zero operations).
  std::size_t description_warnings = 0;
  std::size_t description_errors = 0;
  std::size_t wsi_failures = 0;
  std::size_t zero_operation_services = 0;
  std::size_t gate_rejections = 0;  ///< only with StudyConfig::wsi_deploy_gate

  std::vector<CellResult> cells;  ///< one per client, Table II order

  StepCounts generation_totals() const;
  StepCounts compilation_totals() const;
};

/// Full study outcome.
struct StudyResult {
  std::vector<ServerResult> servers;

  std::size_t total_tests() const;
  std::size_t total_services_created() const;
  std::size_t total_deployment_refusals() const;
  std::size_t total_description_warnings() const;
  StepCounts total_generation() const;
  StepCounts total_compilation() const;
  /// Generation + compilation errors — the paper's "situations that led to
  /// interoperability errors".
  std::size_t total_interop_errors() const;

  /// Failures where client and server subsystems belong to the same
  /// framework. `same_platform_failures` restricts to same framework AND
  /// platform (the .NET-on-.NET count, which is the paper's 307).
  std::size_t same_framework_failures = 0;
  std::size_t same_platform_failures = 0;

  /// WS-I gate ablation: of the description-step-flagged services, how
  /// many produced at least one downstream error (the paper's 95.3%).
  std::size_t flagged_services = 0;
  std::size_t flagged_services_with_downstream_error = 0;

  /// Of all generation-step errors, how many occurred against services
  /// that failed the WS-I check (the paper's ~97%).
  std::size_t generation_errors_on_flagged = 0;
  std::size_t generation_errors_on_compliant = 0;
};

/// One executed test, as reported to StudyConfig::observer. Suitable for
/// JSON-lines logging (see to_json_line).
struct TestRecord {
  std::string server;
  std::string client;
  std::string service;     ///< e.g. "EchoSimpleDateFormat"
  std::string type_name;   ///< the native type behind the service
  bool description_flagged = false;
  bool generation_warning = false;
  bool generation_error = false;
  bool compilation_warning = false;
  bool compilation_error = false;
};

/// Renders a TestRecord as one JSON object (no trailing newline).
std::string to_json_line(const TestRecord& record);

struct StudyConfig {
  catalog::JavaCatalogSpec java_spec;      ///< defaults: the paper's population
  catalog::DotNetCatalogSpec dotnet_spec;  ///< defaults: the paper's population
  std::size_t threads = 0;                 ///< 0 = hardware concurrency
  std::size_t samples_per_cell = 3;        ///< diagnostics kept for reporting

  /// Service complexity. kSimpleEcho is the paper's batch; kCrud runs its
  /// future-work extension (multi-operation services with array returns).
  frameworks::ServiceShape shape = frameworks::ServiceShape::kSimpleEcho;

  /// Ablation: the deploy-time WS-I gate the paper advocates (§IV.A).
  /// Flagged descriptions (WS-I failure or zero operations) are withdrawn
  /// before any client sees them; `ServerResult::gate_rejections` counts
  /// them. Off by default — the paper's measured reality.
  bool wsi_deploy_gate = false;

  /// The mixed-version axis (communication study): when non-empty, every
  /// server runs one round per listed policy — overriding its documented
  /// version-validation policy — while each client dresses its calls in
  /// the hybrid profile its own documented policy implies
  /// (frameworks::profile_for). Rounds are labeled "Server [policy]".
  /// Empty = classic pure-1.1 behaviour. The static study (steps 1–3)
  /// never touches the wire, so the axis only affects the communication
  /// and chaos campaigns.
  std::vector<frameworks::VersionPolicy> versions;

  /// Optional per-test observer (e.g. a JSON-lines logger). Called on the
  /// calling thread as the run folds its results, once per test in corpus
  /// order (server, then service, then client), so its stream is the same
  /// at any worker count.
  std::function<void(const TestRecord&)> observer;

  /// Observability sinks, both optional (null = off, zero overhead). The
  /// tracer receives the span tree (run → server → phase → cell); the
  /// registry receives counters and per-step wall-time histograms under
  /// the "study."/"comm." prefixes (see docs/OBSERVABILITY.md).
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

/// Runs one server's campaign against the given clients: the study engine
/// (run_study_tasks in supervised.hpp) with one task per bindable service.
/// `parent_span` nests the campaign's spans under the caller's span.
/// Throws std::runtime_error naming a task that failed on every attempt.
ServerResult run_server_campaign(const frameworks::ServerFramework& server,
                                 const std::vector<frameworks::ServiceSpec>& services,
                                 const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
                                 const StudyConfig& config, StudyResult* cross_totals = nullptr,
                                 obs::SpanId parent_span = obs::kNoSpan);

/// Runs the full study: both catalogs, all three servers, all 11 clients.
/// This is run_study_supervised with no journal; it throws
/// std::runtime_error naming a task that failed on every attempt.
StudyResult run_study(const StudyConfig& config = {});

// --- Testing-phase primitives ----------------------------------------------

/// Outcome of one client tool against one deployed service.
struct ClientTestOutcome {
  bool generation_warning = false;
  bool generation_error = false;
  bool compilation_warning = false;
  bool compilation_error = false;
  bool artifacts_generated = false;
  std::vector<Diagnostic> errors;  ///< error/crash diagnostics, tool order

  bool any_error() const { return generation_error || compilation_error; }
};

/// Steps (b)+(c) for one (service, client) pair: artifact generation, then
/// compilation or the instantiation check. `description` is the service's
/// shared parse of its served text; `compiler` is null for dynamic clients.
ClientTestOutcome run_client_test(const frameworks::SharedDescription& description,
                                  const frameworks::ClientFramework& client,
                                  const compilers::Compiler* compiler,
                                  obs::Registry* metrics);

/// The paper's same-framework / same-platform classification of a
/// (server, client) name pair (§V).
bool same_framework_pair(const std::string& server, const std::string& client);
bool same_platform_pair(const std::string& server, const std::string& client);

/// The description-step counters of one server, without the client tests.
struct PreparedServer {
  ServerResult result;  ///< deploy/WS-I/gate counters; cells empty
};

/// Deploys and describes every service of one server (the study engine
/// with no clients) and counts the facts. `parent_span` nests its spans.
PreparedServer prepare_server_campaign(const frameworks::ServerFramework& server,
                                       const std::vector<frameworks::ServiceSpec>& services,
                                       const StudyConfig& config,
                                       obs::SpanId parent_span = obs::kNoSpan);

}  // namespace wsx::interop
