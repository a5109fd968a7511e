#include "interop/study.hpp"

#include <utility>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/shared_description.hpp"
#include "interop/supervised.hpp"

namespace wsx::interop {
namespace {

/// Moves the error/crash diagnostics out of `sink` into `errors`. Clean
/// sinks — the overwhelmingly common case — skip the scan entirely, and
/// failing ones reserve once and move instead of copying string payloads.
void take_errors(DiagnosticSink& sink, std::vector<Diagnostic>& errors) {
  if (!sink.has_errors()) return;
  std::size_t count = 0;
  for (const Diagnostic& diagnostic : sink.diagnostics()) {
    if (diagnostic.severity == Severity::kError || diagnostic.severity == Severity::kCrash) {
      ++count;
    }
  }
  errors.reserve(errors.size() + count);
  for (Diagnostic& diagnostic : sink.diagnostics()) {
    if (diagnostic.severity == Severity::kError || diagnostic.severity == Severity::kCrash) {
      errors.push_back(std::move(diagnostic));
    }
  }
}

}  // namespace

bool same_framework_pair(const std::string& server, const std::string& client) {
  // Framework identity across the client/server subsystem split (the
  // paper's same-framework analysis, §V).
  if (starts_with(server, "Metro") && starts_with(client, "Oracle Metro")) return true;
  if (starts_with(server, "JBossWS") && starts_with(client, "JBossWS")) return true;
  if (starts_with(server, "WCF") && starts_with(client, ".NET")) return true;
  return false;
}

bool same_platform_pair(const std::string& server, const std::string& client) {
  // The strict reading behind the paper's 307: client and server running on
  // the very same installed platform (.NET hosts all three languages).
  return starts_with(server, "WCF") && starts_with(client, ".NET");
}

ClientTestOutcome run_client_test(const frameworks::SharedDescription& description,
                                  const frameworks::ClientFramework& client,
                                  const compilers::Compiler* compiler,
                                  obs::Registry* metrics) {
  ClientTestOutcome outcome;

  // Step (b): client artifact generation, against the service's shared
  // parse of its served text.
  obs::ScopedTimer generation_timer = obs::timer(metrics, "study.step.generation_us");
  frameworks::GenerationResult generation = client.generate(description);
  generation_timer.stop();
  outcome.generation_warning = generation.diagnostics.has_warnings();
  outcome.generation_error = generation.diagnostics.has_errors();
  take_errors(generation.diagnostics, outcome.errors);
  // Erratic tools may leave partial artifacts behind even after reporting
  // an error (§III.B.c); when they do, the artifacts proceed to step (c).
  if (!generation.produced_artifacts()) return outcome;
  outcome.artifacts_generated = true;

  // Step (c): compilation — or, for dynamic clients, the instantiation
  // check, whose outcome the study reports under the generation step
  // (Table II footnote 3: these clients have no compilation column).
  if (compiler == nullptr) {
    DiagnosticSink instantiation = compilers::check_instantiation(*generation.artifacts);
    outcome.generation_warning |= instantiation.has_warnings();
    outcome.generation_error |= instantiation.has_errors();
    take_errors(instantiation, outcome.errors);
    return outcome;
  }

  obs::ScopedTimer compilation_timer = obs::timer(metrics, "study.step.compilation_us");
  DiagnosticSink compile_diagnostics = compiler->compile(*generation.artifacts);
  compilation_timer.stop();
  outcome.compilation_warning = compile_diagnostics.has_warnings();
  outcome.compilation_error = compile_diagnostics.has_errors();
  take_errors(compile_diagnostics, outcome.errors);
  return outcome;
}

std::string to_json_line(const TestRecord& record) {
  return json::ObjectWriter{}
      .field("server", record.server)
      .field("client", record.client)
      .field("service", record.service)
      .field("type", record.type_name)
      .field("description_flagged", record.description_flagged)
      .field("generation_warning", record.generation_warning)
      .field("generation_error", record.generation_error)
      .field("compilation_warning", record.compilation_warning)
      .field("compilation_error", record.compilation_error)
      .str();
}

StepCounts ServerResult::generation_totals() const {
  StepCounts totals;
  for (const CellResult& cell : cells) totals += cell.generation;
  return totals;
}

StepCounts ServerResult::compilation_totals() const {
  StepCounts totals;
  for (const CellResult& cell : cells) totals += cell.compilation;
  return totals;
}

std::size_t StudyResult::total_tests() const {
  std::size_t total = 0;
  for (const ServerResult& server : servers) {
    for (const CellResult& cell : server.cells) total += cell.tests;
  }
  return total;
}

std::size_t StudyResult::total_services_created() const {
  std::size_t total = 0;
  for (const ServerResult& server : servers) total += server.services_created;
  return total;
}

std::size_t StudyResult::total_deployment_refusals() const {
  std::size_t total = 0;
  for (const ServerResult& server : servers) total += server.deployment_refusals;
  return total;
}

std::size_t StudyResult::total_description_warnings() const {
  std::size_t total = 0;
  for (const ServerResult& server : servers) total += server.description_warnings;
  return total;
}

StepCounts StudyResult::total_generation() const {
  StepCounts totals;
  for (const ServerResult& server : servers) totals += server.generation_totals();
  return totals;
}

StepCounts StudyResult::total_compilation() const {
  StepCounts totals;
  for (const ServerResult& server : servers) totals += server.compilation_totals();
  return totals;
}

std::size_t StudyResult::total_interop_errors() const {
  return total_generation().errors + total_compilation().errors;
}

namespace {

/// One server's campaign through the study engine, which must cover every
/// task.
StudyResult run_one_server(const frameworks::ServerFramework& server,
                           const std::vector<frameworks::ServiceSpec>& services,
                           const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
                           const StudyConfig& config, obs::SpanId parent_span) {
  const std::vector<frameworks::Round> rounds = {{&server, &services, std::nullopt, server.name()}};
  return resilience::require_complete(run_study_tasks(rounds, frameworks::bindable_services(rounds),
                                                      clients, config, {}, parent_span))
      .study;
}

}  // namespace

PreparedServer prepare_server_campaign(const frameworks::ServerFramework& server,
                                       const std::vector<frameworks::ServiceSpec>& services,
                                       const StudyConfig& config, obs::SpanId parent_span) {
  StudyResult described = run_one_server(server, services, /*clients=*/{}, config, parent_span);
  return PreparedServer{std::move(described.servers.front())};
}

ServerResult run_server_campaign(
    const frameworks::ServerFramework& server,
    const std::vector<frameworks::ServiceSpec>& services,
    const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
    const StudyConfig& config, StudyResult* cross_totals, obs::SpanId parent_span) {
  StudyResult result = run_one_server(server, services, clients, config, parent_span);
  if (cross_totals != nullptr) {
    cross_totals->same_framework_failures += result.same_framework_failures;
    cross_totals->same_platform_failures += result.same_platform_failures;
    cross_totals->flagged_services += result.flagged_services;
    cross_totals->flagged_services_with_downstream_error +=
        result.flagged_services_with_downstream_error;
    cross_totals->generation_errors_on_flagged += result.generation_errors_on_flagged;
    cross_totals->generation_errors_on_compliant += result.generation_errors_on_compliant;
  }
  return std::move(result.servers.front());
}

StudyResult run_study(const StudyConfig& config) {
  return resilience::require_complete(run_study_supervised(config, {})).study;
}

}  // namespace wsx::interop
