#include "chaos/supervised.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "chaos/wire.hpp"
#include "common/codec.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"

namespace wsx::chaos {
namespace {

/// The chaos fingerprint's fields.
constexpr auto chaos_fields = [](auto& v, ChaosConfig& config) {
  v("java", config.java_spec);
  v("dotnet", config.dotnet_spec);
  v("seed", config.plan.seed);
  v("rate_percent", config.plan.rate_percent);
  v("max_burst", config.plan.max_burst);
  v("kinds", config.plan.kinds);
  v("breaker_failure_threshold", config.breaker.failure_threshold);
  v("breaker_open_ms", config.breaker.open_ms);
  v("calls_per_pair", config.calls_per_pair);
  v("parse_cache", codec::Fixed{true});
  v("versions", config.versions);
};

}  // namespace

std::string chaos_config_json(const ChaosConfig& config) {
  return codec::encode(config, chaos_fields);
}

Result<ChaosConfig> chaos_config_from_json(std::string_view text) {
  return codec::decode_value<ChaosConfig>(text, chaos_fields, "resilience.bad-config",
                                          "chaos config");
}

Result<SupervisedChaosResult> run_chaos_supervised(const ChaosConfig& config,
                                                   const resilience::Supervision& supervision) {
  SupervisedChaosResult out;
  ChaosResult& result = out.chaos;
  result.plan = config.plan;
  result.calls_per_pair = config.calls_per_pair;

  obs::Span run_span(config.tracer, "chaos");
  // One round per server, or per server × version policy on the
  // --versions axis; each round has its own wire, and its label scopes the
  // task ids and the chains' fault schedules.
  frameworks::Corpus corpus(config.java_spec, config.dotnet_spec,
                            frameworks::ServiceShape::kSimpleEcho, config.versions);
  const auto clients = frameworks::make_clients();
  std::vector<std::unique_ptr<compilers::Compiler>> compilers;
  std::vector<ResiliencePolicy> policies;
  for (const auto& client : clients) {
    compilers.push_back(compilers::make_compiler(client->language()));
    policies.push_back(policy_for(client->name()));
  }
  const std::vector<soap::HybridProfile> profiles =
      frameworks::client_profiles(clients, config.versions);
  std::vector<FaultyWire> wires;
  for (const frameworks::Round& round : corpus.rounds) {
    FaultyWire& wire = wires.emplace_back(*round.server, config.plan);
    if (round.policy.has_value()) wire.set_server_policy(*round.policy);
  }

  // Fold input: one record slot per task, spanning its row of `width`
  // chain deltas, allocated here up front. A task writes its row in place
  // (indices are distinct across workers, so no locking) and leaves nothing
  // allocated on its worker, so peak memory does not depend on how tasks
  // interleave on the workers' heaps. Task t's record spans its row once its
  // service deployed; a resumed task is filled from its journal record
  // before anything runs.
  const std::size_t width = clients.size();
  const std::size_t count = corpus.plan.tasks.size();
  std::vector<ChainDelta> side(count * width);
  std::vector<ChaosRecord> records(count);
  const auto task_chains = [&](std::size_t index) {
    return std::span(side).subspan(index * width, width);
  };
  for (std::size_t i = 0; i < count; ++i) records[i].clients = task_chains(i);

  // One task: deploy one service, build its shared parse (faults are
  // injected on the wire, not on the WSDL bytes, so one parse serves every
  // call), and run every client's chain against it, charging each chain's
  // virtual milliseconds against the supervisor deadline.
  const auto run = [&](std::size_t index, ChaosRecord& record, resilience::TaskContext& context) {
    const std::size_t r = corpus.plan.tasks[index].round;
    const frameworks::Round& round = corpus.rounds[r];
    record = {};
    Result<frameworks::DeployedService> service = corpus.deploy(index);
    if (!service.ok()) return;
    const frameworks::SharedDescription description =
        frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false);
    const std::span<ChainDelta> chains = task_chains(index);
    for (std::size_t i = 0; i < width; ++i) {
      chains[i] = run_chaos_chain(wires[r], *round.server, *service, &description, *clients[i],
                                  compilers[i].get(), policies[i], config, profiles[i],
                                  round.label);
      context.charge(chains[i].virtual_ms);
    }
    record.clients = chains;
  };

  obs::Span calls_span(config.tracer, "phase:calls", run_span);
  obs::ScopedTimer calls_timer = obs::timer(config.metrics, "chaos.phase.calls_us");
  Result<resilience::SupervisorReport> supervised = resilience::supervise_slots(
      resilience::CampaignTasks{"chaos", chaos_config_json(config), std::move(corpus.plan.ids),
                                {}},
      std::span(records), resilience::SupervisorOptions{supervision, config.jobs, config.metrics},
      run);
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold in task order, one result row per round. A service counts as
  // deployed unless its task ran and found it refused; a deadline
  // quarantine folds kTimedOut for the service's whole call population.
  for (const frameworks::Round& round : corpus.rounds) {
    ChaosServerResult& server = result.servers.emplace_back();
    server.server = round.label;
    for (const auto& client : clients) server.cells.emplace_back().client = client->name();
  }
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    ChaosServerResult& server = result.servers[corpus.plan.tasks[outcome.task].round];
    const std::span<const ChainDelta> chains = records[outcome.task].clients;
    const bool completed = outcome.state == resilience::TaskState::kCompleted;
    if (completed && chains.empty()) continue;
    ++server.services_deployed;
    if (outcome.state == resilience::TaskState::kQuarantined && outcome.timed_out) {
      for (ChaosCell& cell : server.cells) {
        cell.outcomes[static_cast<std::size_t>(ChaosOutcome::kTimedOut)] +=
            config.calls_per_pair;
      }
      continue;
    }
    if (!completed) continue;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const ChainDelta& delta = chains[i];
      ChaosCell& cell = server.cells[i];
      for (std::size_t o = 0; o < kChaosOutcomeCount; ++o) cell.outcomes[o] += delta.outcomes[o];
      cell.retransmits += delta.retransmits;
      cell.faulted_attempts += delta.faulted_attempts;
      cell.challenged += delta.challenged;
      cell.challenged_ok += delta.challenged_ok;
      cell.breaker_trips += delta.breaker_trips;
      cell.virtual_ms += delta.virtual_ms;
    }
  }

  // One span per round, one per round×client cell.
  std::size_t deployed = 0;
  for (const ChaosServerResult& server : result.servers) {
    deployed += server.services_deployed;
    obs::Span round_span(config.tracer, "round:" + server.server, calls_span);
    round_span.annotate("deployed", server.services_deployed);
    for (const ChaosCell& cell : server.cells) {
      obs::add(config.metrics, "chaos.breaker_trips", cell.breaker_trips);
      obs::add(config.metrics, "chaos.challenged", cell.challenged);
      obs::add(config.metrics, "chaos.challenged_ok", cell.challenged_ok);
      obs::Span cell_span(config.tracer, "cell:" + cell.client, round_span);
      cell_span.annotate("attempted", cell.attempted());
      cell_span.annotate("challenged", cell.challenged);
      cell_span.annotate("retransmits", cell.retransmits);
    }
  }
  obs::add(config.metrics, "chaos.services_deployed", deployed);
  return out;
}

}  // namespace wsx::chaos
