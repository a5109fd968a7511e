#include "interop/supervised.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "common/codec.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "frameworks/version_policy.hpp"

namespace wsx::interop {
namespace {

constexpr const char* kBadConfig = "resilience.bad-config";

/// The study fingerprint's fields.
constexpr auto study_fields = [](auto& v, StudyConfig& config) {
  v("java", config.java_spec);
  v("dotnet", config.dotnet_spec);
  v("samples_per_cell", config.samples_per_cell);
  v("shape", config.shape);
  v("wsi_deploy_gate", config.wsi_deploy_gate);
  v("parse_cache", codec::Fixed{true});
};

/// The communication fingerprint's fields: the study knobs it ignores
/// (samples, shape, gate) are left out, the version rounds are in.
constexpr auto communication_fields = [](auto& v, StudyConfig& config) {
  v("java", config.java_spec);
  v("dotnet", config.dotnet_spec);
  v("parse_cache", codec::Fixed{true});
  v("versions", config.versions);
};

// --- The study task ----------------------------------------------------------

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

  // The description check (§III.B.d): the shared parse every client
  // consumes carries the WS-I verdict.
  obs::ScopedTimer describe_timer = obs::timer(config.metrics, "study.step.describe_us");
  const frameworks::SharedDescription description =
      frameworks::SharedDescription::from_deployed(*deployed);
  facts.wsi_failed = !description.wsi_report()->compliant();
  describe_timer.stop();
  facts.zero_operations = deployed->wsdl.operation_count() == 0;
  if (facts.withdrawn(config.wsi_deploy_gate)) return facts;

  for (std::size_t i = 0; i < clients.size(); ++i) {
    rows[i] = row_from_outcome(
        run_client_test(description, *clients[i], compilers[i].get(), config.metrics));
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

}  // namespace

std::string study_config_json(const StudyConfig& config) {
  return codec::encode(config, study_fields);
}

Result<StudyConfig> study_config_from_json(std::string_view text) {
  return codec::decode_value<StudyConfig>(text, study_fields, kBadConfig, "study config");
}

std::string communication_config_json(const StudyConfig& config) {
  return codec::encode(config, communication_fields);
}

Result<StudyConfig> communication_config_from_json(std::string_view text) {
  return codec::decode_value<StudyConfig>(text, communication_fields, kBadConfig,
                                          "communication config");
}

Result<SupervisedStudyResult> run_study_tasks(
    const std::vector<frameworks::Round>& rounds, frameworks::RoundTasks plan,
    const std::vector<std::unique_ptr<frameworks::ClientFramework>>& clients,
    const StudyConfig& config, const resilience::Supervision& supervision,
    obs::SpanId parent_span) {
  SupervisedStudyResult out;
  StudyResult& result = out.study;
  std::vector<std::unique_ptr<compilers::Compiler>> compilers;
  for (const auto& client : clients) {
    compilers.push_back(compilers::make_compiler(client->language()));
  }

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

  // Fold input, allocated here up front: one record slot per task, spanning
  // the task's row slots, one per client. An executed task fills its own
  // slots in place (indices are distinct across workers, so no locking) and
  // leaves nothing allocated on its worker but the rare error rows, so peak
  // memory does not depend on how tasks interleave on the workers' heaps. A
  // resumed task is filled from its journal record before anything runs.
  const std::size_t width = clients.size();
  std::vector<FoldRow> rows(plan.tasks.size() * width);
  std::vector<StudyRecord> records(plan.tasks.size());
  const auto task_rows = [&](std::size_t index) {
    return std::span(rows).subspan(index * width, width);
  };
  for (std::size_t i = 0; i < records.size(); ++i) records[i].clients = task_rows(i);
  const auto run = [&](std::size_t index, StudyRecord& record, resilience::TaskContext& context) {
    const frameworks::RoundService& task = plan.tasks[index];
    record.facts = test_service(*rounds[task.round].server, *task.spec, clients, compilers,
                                config, task_rows(index).data(), context);
    record.clients =
        task_rows(index).first(record.facts.withdrawn(config.wsi_deploy_gate) ? 0 : width);
  };
  // A resumed record without the facts was written by the phase-by-phase
  // engine, whose fold took them from its own deploy pass; folding it now
  // would count the service as compliant, so the decode refuses it and
  // names every fact it lacks. A withdrawn service has no rows, any other
  // one a row per client.
  const auto check = [&config](const StudyRecord& record) {
    const bool rows_match =
        record.facts.withdrawn(config.wsi_deploy_gate) == record.clients.empty();
    return std::string(rows_match ? "" : "client row count mismatch");
  };

  obs::Span testing_span(config.tracer, "phase:testing", parent_span);
  obs::ScopedTimer testing_timer = obs::timer(config.metrics, "study.phase.testing_us");
  Result<resilience::SupervisorReport> supervised = resilience::supervise_slots(
      resilience::CampaignTasks{"study", study_config_json(config), std::move(plan.ids), {}},
      std::span(records),
      resilience::SupervisorOptions{supervision, config.threads, config.metrics}, run,
      "resilience.bad-record", check);
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
    const StudyRecord& service = records[outcome.task];
    ServerResult& server = result.servers[task.round];
    if (!service.facts.refused) ++deployed;
    if (!count_service(service.facts, config.wsi_deploy_gate, server)) continue;
    const bool flagged = service.facts.flagged();
    TestRecord record;  // the observer's view of this service's tests
    if (config.observer) {
      record.server = server.server;
      record.service = task.spec->service_name();
      record.type_name = task.spec->type->qualified_name();
      record.description_flagged = flagged;
    }
    bool service_errored = false;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const FoldRow& row = service.clients[i];
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
                                                   const resilience::Supervision& supervision) {
  obs::Span run_span(config.tracer, "study");
  const std::uint64_t started_us =
      config.metrics != nullptr ? config.metrics->clock().now_us() : 0;

  // Preparation phase: the corpus plan and the clients (§III.A).
  obs::Span prepare_span(config.tracer, "phase:prepare", run_span);
  obs::ScopedTimer prepare_timer = obs::timer(config.metrics, "study.phase.prepare_us");
  frameworks::Corpus corpus(config.java_spec, config.dotnet_spec, config.shape);
  const auto clients = frameworks::make_clients();
  prepare_span.end();
  prepare_timer.stop();

  Result<SupervisedStudyResult> out = run_study_tasks(
      corpus.rounds, std::move(corpus.plan), clients, config, supervision, run_span.id());
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
    const StudyConfig& config, const resilience::Supervision& supervision) {
  SupervisedCommunicationResult out;
  CommunicationResult& result = out.communication;

  obs::Span run_span(config.tracer, "communication");
  // One round per server, or per server × version policy on the
  // --versions axis; the round label scopes task ids so a resumed journal
  // can never splice a strict round's rows into a shaded one.
  frameworks::Corpus corpus(config.java_spec, config.dotnet_spec,
                            frameworks::ServiceShape::kSimpleEcho, config.versions);
  const auto clients = frameworks::make_clients();
  std::vector<std::unique_ptr<compilers::Compiler>> compilers;
  for (const auto& client : clients) {
    compilers.push_back(compilers::make_compiler(client->language()));
  }
  const std::vector<soap::HybridProfile> profiles =
      frameworks::client_profiles(clients, config.versions);

  // Fold input, allocated here up front like the study's: one record slot
  // per task, spanning its invocation slots, one per client, filled in place
  // by the task that owns them or from a resumed journal record. A task's
  // record holds its sniffer count and its slots, none when deploy()
  // refused the service.
  const std::size_t width = clients.size();
  const std::size_t count = corpus.plan.tasks.size();
  std::vector<InvocationOutcome> rows(count * width);
  std::vector<CommunicationRecord> records(count);
  const auto task_rows = [&](std::size_t index) {
    return std::span(rows).subspan(index * width, width);
  };
  for (std::size_t i = 0; i < count; ++i) records[i].clients = task_rows(i);

  // One task: deploy one service, build its shared parse (no WS-I — the
  // communication study never consults the verdict), and invoke it from
  // every client, one virtual ms per invocation.
  const auto run = [&](std::size_t index, CommunicationRecord& record,
                       resilience::TaskContext& context) {
    const frameworks::Round& round = corpus.round(index);
    record = CommunicationRecord{};
    Result<frameworks::DeployedService> service = corpus.deploy(index);
    if (!service.ok()) return;
    const frameworks::SharedDescription description =
        frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
    record.clients = task_rows(index);
    for (std::size_t i = 0; i < width; ++i) {
      record.clients[i] = invoke_echo_once(
          *round.server, *service, description, *clients[i], compilers[i].get(),
          &record.sniffed, profiles[i], round.policy.has_value() ? &*round.policy : nullptr);
      context.charge(1);
    }
  };

  obs::Span invoke_span(config.tracer, "phase:invoke", run_span);
  obs::ScopedTimer invoke_timer = obs::timer(config.metrics, "comm.phase.invoke_us");
  Result<resilience::SupervisorReport> supervised = resilience::supervise_slots(
      resilience::CampaignTasks{"communication", communication_config_json(config),
                                std::move(corpus.plan.ids), {}},
      std::span(records),
      resilience::SupervisorOptions{supervision, config.threads, config.metrics}, run);
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold in task order; one result row per round. A service counts as
  // deployed unless its task ran and found it refused.
  for (const frameworks::Round& round : corpus.rounds) {
    CommServerResult& server = result.servers.emplace_back();
    server.server = round.label;
    for (const auto& client : clients) server.cells.emplace_back().client = client->name();
  }
  std::size_t invocations = 0;
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    CommServerResult& server = result.servers[corpus.plan.tasks[outcome.task].round];
    const CommunicationRecord& record = records[outcome.task];
    const bool completed = outcome.state == resilience::TaskState::kCompleted;
    if (completed && record.clients.empty()) continue;
    ++server.services_deployed;
    if (!completed) continue;
    result.sniffed_violations += record.sniffed;
    invocations += width;
    for (std::size_t i = 0; i < width; ++i) {
      const InvocationOutcome& invocation = record.clients[i];
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
  obs::add(config.metrics, "comm.failures", result.total_failures());
  obs::add(config.metrics, "comm.sniffed_violations", result.sniffed_violations);
  return out;
}

}  // namespace wsx::interop
