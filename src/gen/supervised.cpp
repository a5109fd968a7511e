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
                                                     const resilience::Supervision& supervision) {
  SupervisedGenResult out;
  PropcheckResult& result = out.propcheck;
  result.corpus = config.corpus;
  result.shrink = config.shrink;

  obs::Span run_span(config.tracer, "propcheck");
  frameworks::Corpus corpus(config.java_spec, config.dotnet_spec);
  const auto clients = frameworks::make_clients();
  std::vector<std::unique_ptr<compilers::Compiler>> compilers;
  for (const auto& client : clients) {
    compilers.push_back(compilers::make_compiler(client->language()));
  }

  // Fold input, allocated here up front: one record slot per task, spanning
  // its row of `width` pair deltas, written in place by the task that owns
  // it (indices are distinct across workers, so no locking) or from a
  // resumed journal record. Task t's record spans its row once its service
  // deployed.
  const std::size_t width = clients.size();
  const std::size_t count = corpus.plan.tasks.size();
  std::vector<PairDelta> side(count * width);
  std::vector<PropcheckRecord> records(count);
  const auto task_pairs = [&](std::size_t index) {
    return std::span(side).subspan(index * width, width);
  };
  for (std::size_t i = 0; i < count; ++i) records[i].clients = task_pairs(i);

  // One task: deploy one service, build its shared parse and its corpus
  // (each case's PRNG stream is keyed by case identity, so where the
  // corpus is built cannot change a byte), then replay the corpus through
  // every client pair, charging the virtual wire cost against the deadline.
  const auto run = [&](std::size_t index, PropcheckRecord& record,
                       resilience::TaskContext& context) {
    const frameworks::ServerFramework& server = *corpus.round(index).server;
    record = {};
    Result<frameworks::DeployedService> service = corpus.deploy(index);
    if (!service.ok()) return;
    const frameworks::SharedDescription description =
        frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
    const std::vector<GeneratedCase> cases = generate_corpus(*service, config.corpus);
    const std::span<PairDelta> pairs = task_pairs(index);
    for (std::size_t i = 0; i < width; ++i) {
      pairs[i] = run_propcheck_pair(server, *service, description, cases, *clients[i],
                                    compilers[i].get(), config);
      context.charge(pairs[i].virtual_ms);
    }
    record.clients = pairs;
  };

  obs::Span check_span(config.tracer, "phase:check", run_span);
  obs::ScopedTimer check_timer = obs::timer(config.metrics, "gen.phase.check_us");
  Result<resilience::SupervisorReport> supervised = resilience::supervise_slots(
      resilience::CampaignTasks{"propcheck", gen_config_json(config),
                                std::move(corpus.plan.ids), {}},
      std::span(records), resilience::SupervisorOptions{supervision, config.jobs, config.metrics},
      run);
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold in task order. Completed pairs add their deltas. A task without
  // pairs — quarantined, left out by a budget, or refused — re-derives its
  // corpus on this thread, so every deployed service counts its cases, and
  // a deadline quarantine folds kTimedOut for the whole corpus.
  for (const frameworks::Round& round : corpus.rounds) {
    PropServerResult& server = result.servers.emplace_back();
    server.server = round.label;
    for (const auto& client : clients) server.cells.emplace_back().client = client->name();
  }
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    PropServerResult& server = result.servers[corpus.plan.tasks[outcome.task].round];
    const std::span<PairDelta> pairs = records[outcome.task].clients;
    if (outcome.state != resilience::TaskState::kCompleted) {
      Result<frameworks::DeployedService> service = corpus.deploy(outcome.task);
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
