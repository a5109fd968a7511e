#include "interop/supervised.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "catalog/spec_json.hpp"
#include "common/json.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "frameworks/version_policy.hpp"
#include "wsi/profile.hpp"

namespace wsx::interop {
namespace {

Error bad_config(const std::string& what) {
  return Error{"resilience.bad-config", "campaign config: " + what};
}

Error bad_record(const std::string& id, const std::string& what) {
  return Error{"resilience.bad-record", "task record for '" + id + "': " + what};
}

bool shape_from_string(std::string_view text, frameworks::ServiceShape& out) {
  for (const frameworks::ServiceShape shape :
       {frameworks::ServiceShape::kSimpleEcho, frameworks::ServiceShape::kCrud}) {
    if (text == frameworks::to_string(shape)) {
      out = shape;
      return true;
    }
  }
  return false;
}

/// Compact Diagnostic round-trip for task records. Only the first error of
/// each test is journaled (the samples cap means nothing else is ever
/// reported), so the encoding favours smallness over self-description.
std::string diagnostic_json(const Diagnostic& diagnostic) {
  return json::ObjectWriter{}
      .field("sev", to_string(diagnostic.severity))
      .field("code", diagnostic.code)
      .field("msg", diagnostic.message)
      .field("subj", diagnostic.subject)
      .field("uri", diagnostic.location.uri)
      .field("line", diagnostic.location.line)
      .field("col", diagnostic.location.column)
      .field("fix", diagnostic.fixit)
      .str();
}

bool diagnostic_from_json(const json::Value& value, Diagnostic& out) {
  const json::Value* sev = value.find("sev");
  const json::Value* code = value.find("code");
  const json::Value* msg = value.find("msg");
  const json::Value* subj = value.find("subj");
  const json::Value* uri = value.find("uri");
  const json::Value* line = value.find("line");
  const json::Value* col = value.find("col");
  const json::Value* fix = value.find("fix");
  if (sev == nullptr || !sev->is_string() || !severity_from_string(sev->as_string(), out.severity)) {
    return false;
  }
  if (code == nullptr || !code->is_string() || msg == nullptr || !msg->is_string() ||
      subj == nullptr || !subj->is_string() || uri == nullptr || !uri->is_string() ||
      line == nullptr || !line->is_number() || col == nullptr || !col->is_number() ||
      fix == nullptr || !fix->is_string()) {
    return false;
  }
  out.code = code->as_string();
  out.message = msg->as_string();
  out.subject = subj->as_string();
  out.location.uri = uri->as_string();
  out.location.line = static_cast<std::size_t>(line->as_number());
  out.location.column = static_cast<std::size_t>(col->as_number());
  out.fixit = fix->as_string();
  return true;
}

/// Reads a required bool member; false return = missing or malformed.
bool read_bool(const json::Value& value, std::string_view key, bool& out) {
  const json::Value* member = value.find(key);
  if (member == nullptr || !member->is_bool()) return false;
  out = member->as_bool();
  return true;
}

Result<catalog::JavaCatalogSpec> java_spec_member(const json::Value& config) {
  const json::Value* spec = config.find("java");
  if (spec == nullptr || !spec->is_object()) {
    return bad_config("missing java catalog spec");
  }
  return catalog::java_spec_from_json(json::to_text(*spec));
}

Result<catalog::DotNetCatalogSpec> dotnet_spec_member(const json::Value& config) {
  const json::Value* spec = config.find("dotnet");
  if (spec == nullptr || !spec->is_object()) {
    return bad_config("missing dotnet catalog spec");
  }
  return catalog::dotnet_spec_from_json(json::to_text(*spec));
}

resilience::SupervisorOptions to_supervisor_options(const SupervisedOptions& options,
                                                    obs::Registry* metrics) {
  resilience::SupervisorOptions sup;
  sup.journal = options.journal;
  sup.jobs = options.jobs;
  sup.checkpoint_path = options.checkpoint_path;
  sup.resume = options.resume;
  sup.trip_after_tasks = options.trip_after_tasks;
  sup.metrics = metrics;
  return sup;
}

// --- The study task ----------------------------------------------------------

/// What the description step established about one service.
struct ServiceFacts {
  bool refused = false;          ///< deploy() refused the service
  bool wsi_failed = false;       ///< the published WSDL fails WS-I
  bool zero_operations = false;  ///< the published WSDL exposes no operations

  /// A description-step warning (§III.B.d): failed WS-I or unusable.
  bool flagged() const { return wsi_failed || zero_operations; }
  /// True when no client sees the service: refused, or withdrawn by the
  /// deploy-time WS-I gate.
  bool withdrawn(bool wsi_deploy_gate) const {
    return refused || (wsi_deploy_gate && flagged());
  }
};

/// One client test, reduced to what the fold reads. The journal record is
/// a pure serialisation of the rows and the round-trip is exact (the
/// interrupt/resume equivalence tests pin the byte-identity).
struct FoldRow {
  bool gw = false;
  bool ge = false;
  bool cw = false;
  bool ce = false;
  bool art = false;
  std::vector<std::string> codes;  ///< unique error codes, first-seen order
  /// First error, the cell-sample candidate; out of line because the fold
  /// keeps a row per test until the run ends and most tests have none.
  std::unique_ptr<Diagnostic> first;
};

FoldRow row_from_outcome(ClientTestOutcome outcome) {
  FoldRow row;
  row.gw = outcome.generation_warning;
  row.ge = outcome.generation_error;
  row.cw = outcome.compilation_warning;
  row.ce = outcome.compilation_error;
  row.art = outcome.artifacts_generated;
  for (const Diagnostic& diagnostic : outcome.errors) {
    if (std::find(row.codes.begin(), row.codes.end(), diagnostic.code) != row.codes.end()) {
      continue;
    }
    row.codes.push_back(diagnostic.code);
  }
  if (!outcome.errors.empty()) {
    row.first = std::make_unique<Diagnostic>(std::move(outcome.errors.front()));
  }
  return row;
}

bool row_from_json(const json::Value& value, FoldRow& row) {
  const json::Value* codes = value.find("codes");
  if (!read_bool(value, "gw", row.gw) || !read_bool(value, "ge", row.ge) ||
      !read_bool(value, "cw", row.cw) || !read_bool(value, "ce", row.ce) ||
      !read_bool(value, "art", row.art) || codes == nullptr || !codes->is_array()) {
    return false;
  }
  for (const json::Value& code : codes->items()) {
    if (!code.is_string()) return false;
    row.codes.push_back(code.as_string());
  }
  const json::Value* first = value.find("first");
  if (first != nullptr) {
    row.first = std::make_unique<Diagnostic>();
    if (!diagnostic_from_json(*first, *row.first)) return false;
  }
  return true;
}

/// A study task's journal record: the facts, then its `count` client rows
/// (none when the service is withdrawn).
std::string study_record_json(const ServiceFacts& facts, const FoldRow* rows,
                              std::size_t count) {
  json::ArrayWriter items;
  for (const FoldRow& row : std::span(rows, count)) {
    json::ObjectWriter item;
    item.field("gw", row.gw)
        .field("ge", row.ge)
        .field("cw", row.cw)
        .field("ce", row.ce)
        .field("art", row.art);
    json::ArrayWriter codes;
    for (const std::string& code : row.codes) codes.item(code);
    item.raw_field("codes", codes.str());
    if (row.first != nullptr) item.raw_field("first", diagnostic_json(*row.first));
    items.raw_item(item.str());
  }
  return json::ObjectWriter{}
      .field("refused", facts.refused)
      .field("wsi_failed", facts.wsi_failed)
      .field("zero_ops", facts.zero_operations)
      .raw_field("clients", items.str())
      .str();
}

/// Decodes a completed study task's record into its facts and its task's
/// `clients` row slots. A record without the facts was written by the
/// phase-by-phase engine, whose fold took them from its own deploy pass;
/// folding it now would count the service as compliant, so it is refused
/// and the facts it lacks are named.
Result<ServiceFacts> study_rows_from_record(const resilience::JournalEntry& entry,
                                            std::size_t clients, bool wsi_deploy_gate,
                                            FoldRow* rows) {
  Result<json::Value> record = json::parse(entry.record);
  if (!record.ok()) return bad_record(entry.id, record.error().message);
  ServiceFacts facts;
  std::string missing;
  for (const auto& [key, fact] : {std::pair{"refused", &facts.refused},
                                  std::pair{"wsi_failed", &facts.wsi_failed},
                                  std::pair{"zero_ops", &facts.zero_operations}}) {
    if (read_bool(*record, key, *fact)) continue;
    if (!missing.empty()) missing += ", ";
    missing += key;
  }
  if (!missing.empty()) {
    return bad_record(entry.id, "missing per-service facts (" + missing +
                                    "); the journal predates the per-service study engine, "
                                    "start the run afresh");
  }
  const json::Value* items = record->find("clients");
  if (items == nullptr || !items->is_array()) return bad_record(entry.id, "missing client rows");
  if (items->size() != (facts.withdrawn(wsi_deploy_gate) ? 0 : clients)) {
    return bad_record(entry.id, "client row count mismatch");
  }
  for (std::size_t i = 0; i < items->size(); ++i) {
    if (!row_from_json(items->items()[i], rows[i])) {
      return bad_record(entry.id, "malformed client row");
    }
  }
  return facts;
}

/// The Testing Phase of one service: step (a), description generation at
/// deployment, and the description check, then steps (b)+(c) for every
/// client, whose rows go to `rows` (one slot per client; untouched when
/// the service is withdrawn). Returns the service's facts. Deploy and
/// describe charge nothing; each client test charges one virtual ms.
ServiceFacts test_service(const frameworks::ServerFramework& server,
                          const frameworks::ServiceSpec& spec,
                          const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
                          const std::vector<std::unique_ptr<compilers::Compiler>>& compilers,
                          const StudyConfig& config, FoldRow* rows,
                          resilience::TaskContext& context) {
  ServiceFacts facts;
  obs::ScopedTimer deploy_timer = obs::timer(config.metrics, "study.step.deploy_us");
  Result<frameworks::DeployedService> deployed = server.deploy(spec);
  deploy_timer.stop();
  if (!deployed.ok()) {
    facts.refused = true;
    return facts;
  }

  // The description check (§III.B.d): with the parse cache on, the shared
  // parse every client consumes carries the WS-I verdict.
  obs::ScopedTimer describe_timer = obs::timer(config.metrics, "study.step.describe_us");
  std::optional<frameworks::SharedDescription> description;
  if (config.parse_cache) {
    description.emplace(frameworks::SharedDescription::from_deployed(*deployed));
    facts.wsi_failed = !description->wsi_report()->compliant();
    obs::add(config.metrics, "study.parse.wsdl_parses");
  } else {
    facts.wsi_failed = !wsi::check(deployed->wsdl).compliant();
  }
  describe_timer.stop();
  facts.zero_operations = deployed->wsdl.operation_count() == 0;
  if (facts.withdrawn(config.wsi_deploy_gate)) return facts;

  for (std::size_t i = 0; i < clients.size(); ++i) {
    rows[i] = row_from_outcome(
        run_client_test(*deployed, description.has_value() ? &*description : nullptr,
                        *clients[i], compilers[i].get(), config.metrics));
    context.charge(1);
  }
  return facts;
}

/// Adds one service's facts to its server's Fig. 4 counters, applying the
/// deploy-time gate. Returns false when no client sees the service.
bool count_service(const ServiceFacts& facts, bool wsi_deploy_gate, ServerResult& result) {
  if (facts.refused) {
    ++result.deployment_refusals;
    return false;
  }
  if (facts.wsi_failed) ++result.wsi_failures;
  if (facts.zero_operations) ++result.zero_operation_services;
  if (facts.flagged()) ++result.description_warnings;
  // Ablation: the deploy-time WS-I gate withdraws flagged descriptions
  // before any client consumes them.
  if (wsi_deploy_gate && facts.flagged()) {
    ++result.gate_rejections;
    return false;
  }
  ++result.services_deployed;
  return true;
}

// --- The communication task --------------------------------------------------

/// What one communication task hands the fold besides its invocation
/// slots (one per client, written only when deploy() accepted the service).
struct CommFacts {
  std::size_t sniffed = 0;
  bool deployed = false;
};

/// A communication task's journal record: the sniffer's count and its
/// `count` invocations (none when deploy() refused the service).
std::string comm_record_json(const CommFacts& facts, const InvocationOutcome* invocations,
                             std::size_t count) {
  json::ArrayWriter items;
  for (const InvocationOutcome& invocation : std::span(invocations, count)) {
    items.raw_item(json::ObjectWriter{}
                       .field("o", static_cast<std::size_t>(invocation.outcome))
                       .field("st", static_cast<long long>(invocation.http_status))
                       .str());
  }
  return json::ObjectWriter{}
      .field("sniffed", facts.sniffed)
      .raw_field("clients", items.str())
      .str();
}

/// Decodes a completed communication task's record into its facts and its
/// task's `clients` invocation slots.
Result<CommFacts> comm_rows_from_record(const resilience::JournalEntry& entry,
                                        std::size_t clients, InvocationOutcome* invocations) {
  Result<json::Value> record = json::parse(entry.record);
  if (!record.ok()) return bad_record(entry.id, record.error().message);
  const json::Value* sniffed = record->find("sniffed");
  const json::Value* items = record->find("clients");
  if (sniffed == nullptr || !sniffed->is_number() || items == nullptr || !items->is_array() ||
      (items->size() != 0 && items->size() != clients)) {
    return bad_record(entry.id, "malformed communication record");
  }
  CommFacts facts;
  facts.sniffed = static_cast<std::size_t>(sniffed->as_number());
  facts.deployed = items->size() != 0;
  for (std::size_t i = 0; i < items->size(); ++i) {
    const json::Value& row = items->items()[i];
    const json::Value* outcome = row.find("o");
    const json::Value* status = row.find("st");
    if (outcome == nullptr || !outcome->is_number() || status == nullptr ||
        !status->is_number()) {
      return bad_record(entry.id, "malformed invocation row");
    }
    const auto index = static_cast<std::size_t>(outcome->as_number());
    if (index >= kCommOutcomeCount) return bad_record(entry.id, "unknown outcome index");
    invocations[i] = {static_cast<CommOutcome>(index), static_cast<int>(status->as_number())};
  }
  return facts;
}

}  // namespace

std::string study_config_json(const StudyConfig& config) {
  return json::ObjectWriter{}
      .raw_field("java", catalog::to_json(config.java_spec))
      .raw_field("dotnet", catalog::to_json(config.dotnet_spec))
      .field("samples_per_cell", config.samples_per_cell)
      .field("shape", frameworks::to_string(config.shape))
      .field("wsi_deploy_gate", config.wsi_deploy_gate)
      .field("parse_cache", config.parse_cache)
      .str();
}

Result<StudyConfig> study_config_from_json(std::string_view text) {
  Result<json::Value> parsed = json::parse(text);
  if (!parsed.ok()) return parsed.error();
  StudyConfig config;
  Result<catalog::JavaCatalogSpec> java = java_spec_member(*parsed);
  if (!java.ok()) return java.error();
  config.java_spec = java.value();
  Result<catalog::DotNetCatalogSpec> dotnet = dotnet_spec_member(*parsed);
  if (!dotnet.ok()) return dotnet.error();
  config.dotnet_spec = dotnet.value();
  const json::Value* samples = parsed->find("samples_per_cell");
  if (samples == nullptr || !samples->is_number()) {
    return bad_config("missing samples_per_cell");
  }
  config.samples_per_cell = static_cast<std::size_t>(samples->as_number());
  const json::Value* shape = parsed->find("shape");
  if (shape == nullptr || !shape->is_string() ||
      !shape_from_string(shape->as_string(), config.shape)) {
    return bad_config("missing or unknown shape");
  }
  if (!read_bool(*parsed, "wsi_deploy_gate", config.wsi_deploy_gate)) {
    return bad_config("missing wsi_deploy_gate");
  }
  if (!read_bool(*parsed, "parse_cache", config.parse_cache)) {
    return bad_config("missing parse_cache");
  }
  return config;
}

std::string communication_config_json(const StudyConfig& config) {
  json::ArrayWriter versions;
  for (const frameworks::VersionPolicy policy : config.versions) {
    versions.item(frameworks::to_string(policy));
  }
  return json::ObjectWriter{}
      .raw_field("java", catalog::to_json(config.java_spec))
      .raw_field("dotnet", catalog::to_json(config.dotnet_spec))
      .field("parse_cache", config.parse_cache)
      .raw_field("versions", versions.str())
      .str();
}

Result<StudyConfig> communication_config_from_json(std::string_view text) {
  Result<json::Value> parsed = json::parse(text);
  if (!parsed.ok()) return parsed.error();
  StudyConfig config;
  Result<catalog::JavaCatalogSpec> java = java_spec_member(*parsed);
  if (!java.ok()) return java.error();
  config.java_spec = java.value();
  Result<catalog::DotNetCatalogSpec> dotnet = dotnet_spec_member(*parsed);
  if (!dotnet.ok()) return dotnet.error();
  config.dotnet_spec = dotnet.value();
  if (!read_bool(*parsed, "parse_cache", config.parse_cache)) {
    return bad_config("missing parse_cache");
  }
  const json::Value* versions = parsed->find("versions");
  if (versions == nullptr || !versions->is_array()) return bad_config("missing versions");
  for (const json::Value& policy : versions->items()) {
    if (!policy.is_string()) return bad_config("malformed version policy");
    const std::optional<frameworks::VersionPolicy> known =
        frameworks::parse_version_policy(policy.as_string());
    if (!known.has_value()) {
      return bad_config("unknown version policy '" + policy.as_string() + "'");
    }
    config.versions.push_back(*known);
  }
  return config;
}

Result<SupervisedStudyResult> run_study_tasks(
    const std::vector<frameworks::Round>& rounds,
    const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
    const StudyConfig& config, const SupervisedOptions& options, obs::SpanId parent_span) {
  SupervisedStudyResult out;
  StudyResult& result = out.study;
  std::vector<std::unique_ptr<compilers::Compiler>> compilers;
  for (const auto& client : clients) {
    compilers.push_back(compilers::make_compiler(client->language()));
  }

  frameworks::RoundTasks plan = frameworks::bindable_services(rounds);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    ServerResult& server = result.servers.emplace_back();
    server.server = rounds[r].label;
    server.application_server = rounds[r].server->application_server();
    server.services_created = rounds[r].services->size();
    server.deployment_refusals = plan.refused[r];
    for (const auto& client : clients) {
      CellResult& cell = server.cells.emplace_back();
      cell.client = client->name();
      cell.client_language = client->language();
      cell.compiled = client->requires_compilation();
    }
  }
  resilience::CampaignTasks tasks;
  tasks.campaign = "study";
  tasks.config_json = study_config_json(config);
  tasks.ids = std::move(plan.ids);

  // Fold input, allocated here up front: one facts slot per task and one
  // row slot per task × client. An executed task fills its own slots in
  // place (indices are distinct across workers, so no locking) and leaves
  // nothing allocated on its worker but the rare error rows, so peak memory
  // does not depend on how tasks interleave on the workers' heaps. A
  // resumed task is filled from its journal record before anything runs.
  const std::size_t width = clients.size();
  std::vector<ServiceFacts> facts(plan.tasks.size());
  std::vector<FoldRow> rows(plan.tasks.size() * width);
  for (const resilience::JournalEntry* entry :
       resilience::resumed_records(tasks, options.resume)) {
    Result<ServiceFacts> resumed = study_rows_from_record(
        *entry, width, config.wsi_deploy_gate, rows.data() + entry->task * width);
    if (!resumed.ok()) return resumed.error();
    facts[entry->task] = resumed.value();
  }
  const bool journaling = !options.checkpoint_path.empty();
  tasks.run = [&, journaling](std::size_t index, resilience::TaskContext& context) {
    const frameworks::RoundService& task = plan.tasks[index];
    FoldRow* task_rows = rows.data() + index * width;
    facts[index] = test_service(*rounds[task.round].server, *task.spec, clients, compilers,
                                config, task_rows, context);
    if (!journaling) return std::string{};
    return study_record_json(facts[index], task_rows,
                             facts[index].withdrawn(config.wsi_deploy_gate) ? 0 : width);
  };

  obs::Span testing_span(config.tracer, "phase:testing", parent_span);
  obs::ScopedTimer testing_timer = obs::timer(config.metrics, "study.phase.testing_us");
  Result<resilience::SupervisorReport> supervised =
      resilience::supervise(tasks, to_supervisor_options(options, config.metrics));
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Step (d), classification: the fold, in task order on this thread, so
  // the result and the observer's stream are the same at any worker count
  // and across interrupt/resume splits.
  std::size_t deployed = 0;
  std::size_t artifacts = 0;
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    if (outcome.state != resilience::TaskState::kCompleted) continue;
    const frameworks::RoundService& task = plan.tasks[outcome.task];
    const ServiceFacts& service = facts[outcome.task];
    const FoldRow* task_rows = rows.data() + outcome.task * width;
    ServerResult& server = result.servers[task.round];
    if (!service.refused) ++deployed;
    if (!count_service(service, config.wsi_deploy_gate, server)) continue;
    const bool flagged = service.flagged();
    TestRecord record;  // the observer's view of this service's tests
    if (config.observer) {
      record.server = server.server;
      record.service = task.spec->service_name();
      record.type_name = task.spec->type->qualified_name();
      record.description_flagged = flagged;
    }
    bool service_errored = false;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const FoldRow& row = task_rows[i];
      CellResult& cell = server.cells[i];
      ++cell.tests;
      if (row.art) ++artifacts;
      if (row.gw) ++cell.generation.warnings;
      if (row.ge) ++cell.generation.errors;
      if (row.cw) ++cell.compilation.warnings;
      if (row.ce) ++cell.compilation.errors;
      if (row.first != nullptr && cell.samples.size() < config.samples_per_cell) {
        cell.samples.push_back(*row.first);
      }
      for (const std::string& code : row.codes) ++cell.error_codes[code];
      if (config.observer) {
        record.client = cell.client;
        record.generation_warning = row.gw;
        record.generation_error = row.ge;
        record.compilation_warning = row.cw;
        record.compilation_error = row.ce;
        config.observer(record);
      }
      if (row.ge || row.ce) {
        service_errored = true;
        if (same_framework_pair(server.server, cell.client)) ++result.same_framework_failures;
        if (same_platform_pair(server.server, cell.client)) ++result.same_platform_failures;
      }
      if (row.ge) {
        if (flagged) {
          ++result.generation_errors_on_flagged;
        } else {
          ++result.generation_errors_on_compliant;
        }
      }
    }
    if (flagged && service_errored) ++result.flagged_services_with_downstream_error;
  }

  // One span per server, one per server×client cell annotated with its
  // Table III numbers.
  for (const ServerResult& server : result.servers) {
    result.flagged_services += server.description_warnings;
    obs::Span server_span(config.tracer, "server:" + server.server, testing_span);
    server_span.annotate("deployed", server.services_deployed);
    server_span.annotate("refused", server.deployment_refusals);
    server_span.annotate("flagged", server.description_warnings);
    for (const CellResult& cell : server.cells) {
      obs::Span cell_span(config.tracer, "cell:" + cell.client, server_span);
      cell_span.annotate("tests", cell.tests);
      cell_span.annotate("generation_errors", cell.generation.errors);
      cell_span.annotate("compilation_errors", cell.compilation.errors);
    }
  }
  obs::add(config.metrics, "study.services_created", result.total_services_created());
  obs::add(config.metrics, "study.services_deployed", deployed);
  obs::add(config.metrics, "study.deployment_refusals", result.total_deployment_refusals());
  obs::add(config.metrics, "study.description_flags", result.flagged_services);
  obs::add(config.metrics, "study.tests_total", result.total_tests());
  obs::add(config.metrics, "study.artifacts_generated", artifacts);
  obs::add(config.metrics, "study.generation_errors", result.total_generation().errors);
  obs::add(config.metrics, "study.compilation_errors", result.total_compilation().errors);
  return out;
}

Result<SupervisedStudyResult> run_study_supervised(const StudyConfig& config,
                                                   const SupervisedOptions& options) {
  obs::Span run_span(config.tracer, "study");
  const std::uint64_t started_us =
      config.metrics != nullptr ? config.metrics->clock().now_us() : 0;

  // Preparation phase: catalogs and services (§III.A).
  obs::Span prepare_span(config.tracer, "phase:prepare", run_span);
  obs::ScopedTimer prepare_timer = obs::timer(config.metrics, "study.phase.prepare_us");
  const catalog::TypeCatalog java_catalog = catalog::make_java_catalog(config.java_spec);
  const catalog::TypeCatalog dotnet_catalog = catalog::make_dotnet_catalog(config.dotnet_spec);
  const std::vector<frameworks::ServiceSpec> java_services =
      frameworks::make_services(java_catalog, config.shape);
  const std::vector<frameworks::ServiceSpec> dotnet_services =
      frameworks::make_services(dotnet_catalog, config.shape);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  const std::vector<frameworks::Round> rounds =
      frameworks::make_rounds(servers, java_services, dotnet_services);
  prepare_span.end();
  prepare_timer.stop();

  Result<SupervisedStudyResult> out =
      run_study_tasks(rounds, clients, config, options, run_span.id());
  if (out.ok() && config.metrics != nullptr) {
    // Throughput gauge (runtime-dependent, excluded from deterministic
    // exports; zero under a frozen clock).
    const std::uint64_t elapsed_us = config.metrics->clock().now_us() - started_us;
    const std::size_t tests = out->study.total_tests();
    config.metrics->gauge("study.tests_per_sec")
        .set(elapsed_us == 0 ? 0
                             : static_cast<std::int64_t>(tests * 1000000 / elapsed_us));
  }
  return out;
}

Result<SupervisedCommunicationResult> run_communication_supervised(
    const StudyConfig& config, const SupervisedOptions& options) {
  SupervisedCommunicationResult out;
  CommunicationResult& result = out.communication;

  obs::Span run_span(config.tracer, "communication");
  const catalog::TypeCatalog java_catalog = catalog::make_java_catalog(config.java_spec);
  const catalog::TypeCatalog dotnet_catalog = catalog::make_dotnet_catalog(config.dotnet_spec);
  const std::vector<frameworks::ServiceSpec> java_services =
      frameworks::make_services(java_catalog);
  const std::vector<frameworks::ServiceSpec> dotnet_services =
      frameworks::make_services(dotnet_catalog);
  const auto servers = frameworks::make_servers();
  const auto clients = frameworks::make_clients();
  std::vector<std::unique_ptr<compilers::Compiler>> compilers;
  for (const auto& client : clients) {
    compilers.push_back(compilers::make_compiler(client->language()));
  }
  const std::vector<soap::HybridProfile> profiles =
      frameworks::client_profiles(clients, config.versions);

  // One round per server, or per server × version policy on the
  // --versions axis; the round label scopes task ids so a resumed journal
  // can never splice a strict round's rows into a shaded one.
  const std::vector<frameworks::Round> rounds =
      frameworks::make_rounds(servers, java_services, dotnet_services, config.versions);
  frameworks::RoundTasks plan = frameworks::bindable_services(rounds);
  resilience::CampaignTasks tasks;
  tasks.campaign = "communication";
  tasks.config_json = communication_config_json(config);
  tasks.ids = std::move(plan.ids);

  // Fold input, allocated here up front like the study's: one facts slot
  // per task and one invocation slot per task × client, filled in place by
  // the task that owns them or from a resumed journal record.
  const std::size_t width = clients.size();
  std::vector<CommFacts> facts(plan.tasks.size());
  std::vector<InvocationOutcome> rows(plan.tasks.size() * width);
  for (const resilience::JournalEntry* entry :
       resilience::resumed_records(tasks, options.resume)) {
    Result<CommFacts> resumed =
        comm_rows_from_record(*entry, width, rows.data() + entry->task * width);
    if (!resumed.ok()) return resumed.error();
    facts[entry->task] = resumed.value();
  }
  const bool journaling = !options.checkpoint_path.empty();

  // One task: deploy one service, build its shared parse (no WS-I — the
  // communication study never consults the verdict), and invoke it from
  // every client, one virtual ms per invocation.
  tasks.run = [&, journaling](std::size_t index, resilience::TaskContext& context) {
    const frameworks::Round& round = rounds[plan.tasks[index].round];
    CommFacts& task = facts[index];
    task = CommFacts{};
    InvocationOutcome* invocations = rows.data() + index * width;
    Result<frameworks::DeployedService> service = round.server->deploy(*plan.tasks[index].spec);
    if (service.ok()) {
      std::optional<frameworks::SharedDescription> description;
      if (config.parse_cache) {
        description.emplace(
            frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false));
        obs::add(config.metrics, "comm.parse.wsdl_parses");
      }
      for (std::size_t i = 0; i < width; ++i) {
        invocations[i] = invoke_echo_once(
            *round.server, *service, description.has_value() ? &*description : nullptr,
            *clients[i], compilers[i].get(), &task.sniffed, profiles[i],
            round.policy.has_value() ? &*round.policy : nullptr);
        context.charge(1);
      }
      task.deployed = true;
    }
    if (!journaling) return std::string{};
    return comm_record_json(task, invocations, task.deployed ? width : 0);
  };

  obs::Span invoke_span(config.tracer, "phase:invoke", run_span);
  obs::ScopedTimer invoke_timer = obs::timer(config.metrics, "comm.phase.invoke_us");
  Result<resilience::SupervisorReport> supervised =
      resilience::supervise(tasks, to_supervisor_options(options, config.metrics));
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold in task order; one result row per round. A service counts as
  // deployed unless its task ran and found it refused.
  for (const frameworks::Round& round : rounds) {
    CommServerResult& server = result.servers.emplace_back();
    server.server = round.label;
    for (const auto& client : clients) server.cells.emplace_back().client = client->name();
  }
  std::size_t invocations = 0;
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    CommServerResult& server = result.servers[plan.tasks[outcome.task].round];
    const CommFacts& task = facts[outcome.task];
    const bool completed = outcome.state == resilience::TaskState::kCompleted;
    if (completed && !task.deployed) continue;
    ++server.services_deployed;
    if (!completed) continue;
    result.sniffed_violations += task.sniffed;
    invocations += width;
    for (std::size_t i = 0; i < width; ++i) {
      const InvocationOutcome& invocation = rows[outcome.task * width + i];
      CommCell& cell = server.cells[i];
      ++cell.outcomes[static_cast<std::size_t>(invocation.outcome)];
      if (invocation.outcome == CommOutcome::kTransportError) {
        if (invocation.http_status >= 400 && invocation.http_status < 500) {
          ++cell.transport_4xx;
        } else if (invocation.http_status >= 500 && invocation.http_status < 600) {
          ++cell.transport_5xx;
        }
      }
    }
  }
  std::size_t deployed = 0;
  for (const CommServerResult& server : result.servers) {
    deployed += server.services_deployed;
    obs::Span server_span(config.tracer, "server:" + server.server, invoke_span);
    server_span.annotate("deployed", server.services_deployed);
    for (const CommCell& cell : server.cells) {
      obs::Span cell_span(config.tracer, "cell:" + cell.client, server_span);
      cell_span.annotate("attempted", cell.attempted());
      cell_span.annotate("ok", cell.count(CommOutcome::kOk));
    }
  }
  obs::add(config.metrics, "comm.services_deployed", deployed);
  obs::add(config.metrics, "comm.invocations_total", invocations);
  obs::add(config.metrics, config.parse_cache ? "comm.parse.cache_hits" : "comm.parse.wsdl_parses",
           invocations);
  obs::add(config.metrics, "comm.failures", result.total_failures());
  obs::add(config.metrics, "comm.sniffed_violations", result.sniffed_violations);
  return out;
}

}  // namespace wsx::interop
