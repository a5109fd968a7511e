#include "gen/supervised.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"

namespace wsx::gen {
namespace {

/// The propcheck fingerprint's fields.
constexpr auto gen_fields = [](auto& v, GenConfig& config) {
  v("java", config.java_spec);
  v("dotnet", config.dotnet_spec);
  v("seed", config.corpus.seed);
  v("cases_per_operation", config.corpus.cases_per_operation);
  v("max_depth", config.corpus.max_depth);
  v("sabotage", config.corpus.sabotage);
  v("shrink", config.shrink);
  v("parse_cache", codec::Fixed{true});
};

/// The size of a service's corpus. Every case resolves to exactly one
/// outcome in each pair, so any pair's outcome counts sum to it.
std::size_t corpus_size(const PairDelta& pair) {
  std::size_t cases = 0;
  for (const std::size_t count : pair.outcomes) cases += count;
  return cases;
}

}  // namespace

std::string gen_config_json(const GenConfig& config) {
  return codec::encode(config, gen_fields);
}

Result<GenConfig> gen_config_from_json(std::string_view text) {
  return codec::decode_value<GenConfig>(text, gen_fields, "resilience.bad-config",
                                        "propcheck config");
}

Result<SupervisedGenResult> run_propcheck_supervised(const GenConfig& config,
                                                     const SupervisedGenOptions& options) {
  SupervisedGenResult out;
  PropcheckResult& result = out.propcheck;
  result.corpus = config.corpus;
  result.shrink = config.shrink;

  obs::Span run_span(config.tracer, "propcheck");
  const catalog::TypeCatalog java_catalog = catalog::make_java_catalog(config.java_spec);
  const catalog::TypeCatalog dotnet_catalog =
      catalog::make_dotnet_catalog(config.dotnet_spec);
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
  const std::vector<frameworks::Round> rounds =
      frameworks::make_rounds(servers, java_services, dotnet_services);
  frameworks::RoundTasks plan = frameworks::bindable_services(rounds);
  resilience::CampaignTasks tasks;
  tasks.campaign = "propcheck";
  tasks.config_json = gen_config_json(config);
  tasks.ids = std::move(plan.ids);

  // Fold input, allocated here up front: one row of `width` pair deltas
  // per task, written in place by the task that owns it (indices are
  // distinct across workers, so no locking) or from a resumed journal
  // record. Task t's record spans its row once its service deployed.
  const std::size_t width = clients.size();
  std::vector<PairDelta> side(plan.tasks.size() * width);
  std::vector<PropcheckRecord> records(plan.tasks.size());
  const auto task_pairs = [&](std::size_t index) {
    return std::span(side).subspan(index * width, width);
  };
  for (const resilience::JournalEntry* entry :
       resilience::resumed_records(tasks, options.resume)) {
    records[entry->task] = {task_pairs(entry->task)};
    const Status decoded = resilience::decode_record(*entry, records[entry->task]);
    if (!decoded.ok()) return decoded.error();
  }
  const bool journaling = !options.checkpoint_path.empty();

  // One task: deploy one service, build its shared parse and its corpus
  // (each case's PRNG stream is keyed by case identity, so where the
  // corpus is built cannot change a byte), then replay the corpus through
  // every client pair, charging the virtual wire cost against the deadline.
  tasks.run = [&, journaling](std::size_t index, resilience::TaskContext& context) {
    const frameworks::RoundService& task = plan.tasks[index];
    const frameworks::ServerFramework& server = *rounds[task.round].server;
    PropcheckRecord& record = records[index];
    record = {};
    Result<frameworks::DeployedService> service = server.deploy(*task.spec);
    if (!service.ok()) return journaling ? codec::encode(record) : std::string{};
    const frameworks::SharedDescription description =
        frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
    const std::vector<GeneratedCase> corpus = generate_corpus(*service, config.corpus);
    const std::span<PairDelta> pairs = task_pairs(index);
    for (std::size_t i = 0; i < width; ++i) {
      pairs[i] = run_propcheck_pair(server, *service, description, corpus, *clients[i],
                                    compilers[i].get(), config);
      context.charge(pairs[i].virtual_ms);
    }
    record.clients = pairs;
    return journaling ? codec::encode(record) : std::string{};
  };

  obs::Span check_span(config.tracer, "phase:check", run_span);
  obs::ScopedTimer check_timer = obs::timer(config.metrics, "gen.phase.check_us");
  Result<resilience::SupervisorReport> supervised = resilience::supervise(
      tasks, resilience::supervisor_options(options, config.jobs, config.metrics));
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold in task order. Completed pairs add their deltas. A task without
  // pairs — quarantined, left out by a budget, or refused — re-derives its
  // corpus on this thread, so every deployed service counts its cases, and
  // a deadline quarantine folds kTimedOut for the whole corpus.
  for (const frameworks::Round& round : rounds) {
    PropServerResult& server = result.servers.emplace_back();
    server.server = round.label;
    for (const auto& client : clients) server.cells.emplace_back().client = client->name();
  }
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    const frameworks::RoundService& task = plan.tasks[outcome.task];
    PropServerResult& server = result.servers[task.round];
    const std::span<PairDelta> pairs = records[outcome.task].clients;
    if (outcome.state != resilience::TaskState::kCompleted) {
      Result<frameworks::DeployedService> service =
          rounds[task.round].server->deploy(*task.spec);
      if (!service.ok()) continue;
      ++server.services_deployed;
      const std::size_t cases = generate_corpus(*service, config.corpus).size();
      server.cases_generated += cases;
      if (outcome.state == resilience::TaskState::kQuarantined && outcome.timed_out) {
        for (PropCell& cell : server.cells) {
          cell.outcomes[static_cast<std::size_t>(PropOutcome::kTimedOut)] += cases;
        }
      }
      continue;
    }
    if (pairs.empty()) continue;
    ++server.services_deployed;
    server.cases_generated += corpus_size(pairs[0]);
    for (std::size_t i = 0; i < clients.size(); ++i) {
      PropCell& cell = server.cells[i];
      for (std::size_t o = 0; o < kPropOutcomeCount; ++o) cell.outcomes[o] += pairs[i].outcomes[o];
      for (PropFailure& failure : pairs[i].failures) cell.failures.push_back(std::move(failure));
      cell.virtual_ms += pairs[i].virtual_ms;
    }
  }
  std::size_t deployed = 0;
  std::size_t cases = 0;
  for (const PropServerResult& server : result.servers) {
    deployed += server.services_deployed;
    cases += server.cases_generated;
    obs::Span round_span(config.tracer, "round:" + server.server, check_span);
    round_span.annotate("deployed", server.services_deployed);
    round_span.annotate("cases", server.cases_generated);
  }
  obs::add(config.metrics, "gen.services_deployed", deployed);
  obs::add(config.metrics, "gen.cases_generated", cases);
  return out;
}

}  // namespace wsx::gen
