#include "chaos/supervised.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "catalog/spec_json.hpp"
#include "chaos/wire.hpp"
#include "common/json.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"

namespace wsx::chaos {
namespace {

Error bad_config(const std::string& what) {
  return Error{"resilience.bad-config", "chaos config: " + what};
}

Error bad_record(const std::string& id, const std::string& what) {
  return Error{"resilience.bad-record", "task record for '" + id + "': " + what};
}

bool read_count(const json::Value& value, std::string_view key, std::size_t& out) {
  const json::Value* member = value.find(key);
  if (member == nullptr || !member->is_number()) return false;
  out = static_cast<std::size_t>(member->as_number());
  return true;
}

std::string chain_delta_json(const ChainDelta& delta) {
  json::ArrayWriter outcomes;
  for (const std::size_t count : delta.outcomes) {
    outcomes.raw_item(std::to_string(count));
  }
  return json::ObjectWriter{}
      .raw_field("o", outcomes.str())
      .field("rt", delta.retransmits)
      .field("fa", delta.faulted_attempts)
      .field("ch", delta.challenged)
      .field("cok", delta.challenged_ok)
      .field("bt", delta.breaker_trips)
      .field("vms", static_cast<std::size_t>(delta.virtual_ms))
      .str();
}

bool chain_delta_from_json(const json::Value& value, ChainDelta& out) {
  const json::Value* outcomes = value.find("o");
  if (outcomes == nullptr || !outcomes->is_array() ||
      outcomes->size() != kChaosOutcomeCount) {
    return false;
  }
  for (std::size_t i = 0; i < kChaosOutcomeCount; ++i) {
    const json::Value& count = outcomes->items()[i];
    if (!count.is_number()) return false;
    out.outcomes[i] = static_cast<std::size_t>(count.as_number());
  }
  std::size_t vms = 0;
  if (!read_count(value, "rt", out.retransmits) || !read_count(value, "fa", out.faulted_attempts) ||
      !read_count(value, "ch", out.challenged) || !read_count(value, "cok", out.challenged_ok) ||
      !read_count(value, "bt", out.breaker_trips) || !read_count(value, "vms", vms)) {
    return false;
  }
  out.virtual_ms = vms;
  return true;
}

/// A chaos task's journal record: one chain delta per client, none when
/// deploy() refused the service.
std::string chains_json(const std::vector<ChainDelta>& chains) {
  json::ArrayWriter rows;
  for (const ChainDelta& delta : chains) rows.raw_item(chain_delta_json(delta));
  return json::ObjectWriter{}.raw_field("clients", rows.str()).str();
}

Result<std::vector<ChainDelta>> chains_from_record(const resilience::JournalEntry& entry,
                                                   std::size_t clients) {
  Result<json::Value> record = json::parse(entry.record);
  if (!record.ok()) return bad_record(entry.id, record.error().message);
  const json::Value* rows = record->find("clients");
  if (rows == nullptr || !rows->is_array() || (rows->size() != 0 && rows->size() != clients)) {
    return bad_record(entry.id, "client row count mismatch");
  }
  std::vector<ChainDelta> chains(rows->size());
  for (std::size_t i = 0; i < chains.size(); ++i) {
    if (!chain_delta_from_json(rows->items()[i], chains[i])) {
      return bad_record(entry.id, "malformed chain delta");
    }
  }
  return chains;
}

}  // namespace

std::string chaos_config_json(const ChaosConfig& config) {
  json::ArrayWriter kinds;
  for (const FaultKind kind : config.plan.kinds) kinds.item(to_string(kind));
  json::ArrayWriter versions;
  for (const frameworks::VersionPolicy policy : config.versions) {
    versions.item(frameworks::to_string(policy));
  }
  return json::ObjectWriter{}
      .raw_field("java", catalog::to_json(config.java_spec))
      .raw_field("dotnet", catalog::to_json(config.dotnet_spec))
      .field("seed", static_cast<std::size_t>(config.plan.seed))
      .field("rate_percent", static_cast<std::size_t>(config.plan.rate_percent))
      .field("max_burst", static_cast<std::size_t>(config.plan.max_burst))
      .raw_field("kinds", kinds.str())
      .field("breaker_failure_threshold",
             static_cast<std::size_t>(config.breaker.failure_threshold))
      .field("breaker_open_ms", static_cast<std::size_t>(config.breaker.open_ms))
      .field("calls_per_pair", config.calls_per_pair)
      .field("parse_cache", config.parse_cache)
      .raw_field("versions", versions.str())
      .str();
}

Result<ChaosConfig> chaos_config_from_json(std::string_view text) {
  Result<json::Value> parsed = json::parse(text);
  if (!parsed.ok()) return parsed.error();
  ChaosConfig config;
  const json::Value* java = parsed->find("java");
  const json::Value* dotnet = parsed->find("dotnet");
  if (java == nullptr || !java->is_object() || dotnet == nullptr || !dotnet->is_object()) {
    return bad_config("missing catalog specs");
  }
  Result<catalog::JavaCatalogSpec> java_spec = catalog::java_spec_from_json(json::to_text(*java));
  if (!java_spec.ok()) return java_spec.error();
  config.java_spec = java_spec.value();
  Result<catalog::DotNetCatalogSpec> dotnet_spec =
      catalog::dotnet_spec_from_json(json::to_text(*dotnet));
  if (!dotnet_spec.ok()) return dotnet_spec.error();
  config.dotnet_spec = dotnet_spec.value();

  std::size_t seed = 0;
  std::size_t rate_percent = 0;
  std::size_t max_burst = 0;
  std::size_t failure_threshold = 0;
  std::size_t open_ms = 0;
  if (!read_count(*parsed, "seed", seed) || !read_count(*parsed, "rate_percent", rate_percent) ||
      !read_count(*parsed, "max_burst", max_burst) ||
      !read_count(*parsed, "breaker_failure_threshold", failure_threshold) ||
      !read_count(*parsed, "breaker_open_ms", open_ms) ||
      !read_count(*parsed, "calls_per_pair", config.calls_per_pair)) {
    return bad_config("missing plan/breaker counters");
  }
  config.plan.seed = seed;
  config.plan.rate_percent = static_cast<unsigned>(rate_percent);
  config.plan.max_burst = static_cast<unsigned>(max_burst);
  config.breaker.failure_threshold = static_cast<unsigned>(failure_threshold);
  config.breaker.open_ms = open_ms;
  const json::Value* kinds = parsed->find("kinds");
  if (kinds == nullptr || !kinds->is_array()) return bad_config("missing kinds");
  for (const json::Value& kind : kinds->items()) {
    if (!kind.is_string()) return bad_config("malformed fault kind");
    const std::optional<FaultKind> known = parse_fault_kind(kind.as_string());
    if (!known.has_value()) return bad_config("unknown fault kind '" + kind.as_string() + "'");
    config.plan.kinds.push_back(*known);
  }
  const json::Value* cache = parsed->find("parse_cache");
  if (cache == nullptr || !cache->is_bool()) return bad_config("missing parse_cache");
  config.parse_cache = cache->as_bool();
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

Result<SupervisedChaosResult> run_chaos_supervised(const ChaosConfig& config,
                                                   const SupervisedChaosOptions& options) {
  SupervisedChaosResult out;
  ChaosResult& result = out.chaos;
  result.plan = config.plan;
  result.calls_per_pair = config.calls_per_pair;

  obs::Span run_span(config.tracer, "chaos");
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
  std::vector<ResiliencePolicy> policies;
  for (const auto& client : clients) {
    compilers.push_back(compilers::make_compiler(client->language()));
    policies.push_back(policy_for(client->name()));
  }
  const std::vector<soap::HybridProfile> profiles =
      frameworks::client_profiles(clients, config.versions);

  // One round per server, or per server × version policy on the
  // --versions axis; each round has its own wire, and its label scopes the
  // task ids and the chains' fault schedules.
  const std::vector<frameworks::Round> rounds =
      frameworks::make_rounds(servers, java_services, dotnet_services, config.versions);
  std::vector<FaultyWire> wires;
  for (const frameworks::Round& round : rounds) {
    FaultyWire& wire = wires.emplace_back(*round.server, config.plan);
    if (round.policy.has_value()) wire.set_server_policy(*round.policy);
  }
  frameworks::RoundTasks plan = frameworks::bindable_services(rounds);
  resilience::CampaignTasks tasks;
  tasks.campaign = "chaos";
  tasks.config_json = chaos_config_json(config);
  tasks.ids = std::move(plan.ids);

  // Fold input: one row of `width` chain deltas per task, allocated here
  // up front. A task writes its row in place (indices are distinct across
  // workers, so no locking) and leaves nothing allocated on its worker, so
  // peak memory does not depend on how tasks interleave on the workers'
  // heaps. `bound[t]` is set when task t's service deployed; a resumed task
  // is filled from its journal record before anything runs.
  const std::size_t width = clients.size();
  std::vector<ChainDelta> side(plan.tasks.size() * width);
  std::vector<char> bound(plan.tasks.size(), 0);
  for (const resilience::JournalEntry* entry :
       resilience::resumed_records(tasks, options.resume)) {
    Result<std::vector<ChainDelta>> chains = chains_from_record(*entry, clients.size());
    if (!chains.ok()) return chains.error();
    bound[entry->task] = !chains->empty();
    std::copy(chains->begin(), chains->end(), side.begin() + entry->task * width);
  }
  const bool journaling = !options.checkpoint_path.empty();

  // One task: deploy one service, build its shared parse (faults are
  // injected on the wire, not on the WSDL bytes, so one parse serves every
  // call), and run every client's chain against it, charging each chain's
  // virtual milliseconds against the supervisor deadline.
  tasks.run = [&, journaling](std::size_t index, resilience::TaskContext& context) {
    const frameworks::RoundService& task = plan.tasks[index];
    const frameworks::Round& round = rounds[task.round];
    bound[index] = 0;
    Result<frameworks::DeployedService> service = round.server->deploy(*task.spec);
    if (!service.ok()) return journaling ? chains_json({}) : std::string{};
    std::optional<frameworks::SharedDescription> description;
    if (config.parse_cache) {
      description.emplace(
          frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false));
      obs::add(config.metrics, "chaos.parse.wsdl_parses");
    }
    ChainDelta* chains = side.data() + index * width;
    for (std::size_t i = 0; i < width; ++i) {
      chains[i] = run_chaos_chain(wires[task.round], *round.server, *service,
                                  description.has_value() ? &*description : nullptr,
                                  *clients[i], compilers[i].get(), policies[i], config,
                                  profiles[i], round.label);
      context.charge(chains[i].virtual_ms);
    }
    bound[index] = 1;
    return journaling ? chains_json({chains, chains + width}) : std::string{};
  };

  obs::Span calls_span(config.tracer, "phase:calls", run_span);
  obs::ScopedTimer calls_timer = obs::timer(config.metrics, "chaos.phase.calls_us");
  resilience::SupervisorOptions sup;
  sup.journal = options.journal;
  sup.jobs = config.jobs;
  sup.checkpoint_path = options.checkpoint_path;
  sup.resume = options.resume;
  sup.trip_after_tasks = options.trip_after_tasks;
  sup.metrics = config.metrics;
  Result<resilience::SupervisorReport> supervised = resilience::supervise(tasks, sup);
  if (!supervised.ok()) return supervised.error();
  out.supervisor = std::move(supervised.value());

  // Fold in task order, one result row per round. A service counts as
  // deployed unless its task ran and found it refused; a deadline
  // quarantine folds kTimedOut for the service's whole call population.
  for (const frameworks::Round& round : rounds) {
    ChaosServerResult& server = result.servers.emplace_back();
    server.server = round.label;
    for (const auto& client : clients) server.cells.emplace_back().client = client->name();
  }
  for (const resilience::TaskOutcome& outcome : out.supervisor.tasks) {
    ChaosServerResult& server = result.servers[plan.tasks[outcome.task].round];
    const ChainDelta* chains = side.data() + outcome.task * width;
    const bool completed = outcome.state == resilience::TaskState::kCompleted;
    if (completed && !bound[outcome.task]) continue;
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
