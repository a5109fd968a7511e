#include "gen/supervised.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "catalog/spec_json.hpp"
#include "common/json.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"

namespace wsx::gen {
namespace {

Error bad_config(const std::string& what) {
  return Error{"resilience.bad-config", "propcheck config: " + what};
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

std::string pair_delta_json(const PairDelta& delta) {
  json::ArrayWriter outcomes;
  for (const std::size_t count : delta.outcomes) {
    outcomes.raw_item(std::to_string(count));
  }
  json::ArrayWriter failures;
  for (const PropFailure& failure : delta.failures) {
    failures.raw_item(json::ObjectWriter{}
                          .field("id", failure.case_id)
                          .field("k", failure.kind)
                          .field("d", failure.detail)
                          .field("p", failure.payload)
                          .field("s", failure.shrunk)
                          .field("n", failure.shrink_steps)
                          .str());
  }
  return json::ObjectWriter{}
      .raw_field("o", outcomes.str())
      .raw_field("f", failures.str())
      .field("vms", static_cast<std::size_t>(delta.virtual_ms))
      .str();
}

bool pair_delta_from_json(const json::Value& value, PairDelta& out) {
  const json::Value* outcomes = value.find("o");
  if (outcomes == nullptr || !outcomes->is_array() ||
      outcomes->size() != kPropOutcomeCount) {
    return false;
  }
  for (std::size_t i = 0; i < kPropOutcomeCount; ++i) {
    const json::Value& count = outcomes->items()[i];
    if (!count.is_number()) return false;
    out.outcomes[i] = static_cast<std::size_t>(count.as_number());
  }
  const json::Value* failures = value.find("f");
  if (failures == nullptr || !failures->is_array()) return false;
  for (const json::Value& entry : failures->items()) {
    PropFailure failure;
    const json::Value* id = entry.find("id");
    const json::Value* kind = entry.find("k");
    const json::Value* detail = entry.find("d");
    const json::Value* payload = entry.find("p");
    const json::Value* shrunk = entry.find("s");
    if (id == nullptr || !id->is_string() || kind == nullptr || !kind->is_string() ||
        detail == nullptr || !detail->is_string() || payload == nullptr ||
        !payload->is_string() || shrunk == nullptr || !shrunk->is_string() ||
        !read_count(entry, "n", failure.shrink_steps)) {
      return false;
    }
    failure.case_id = id->as_string();
    failure.kind = kind->as_string();
    failure.detail = detail->as_string();
    failure.payload = payload->as_string();
    failure.shrunk = shrunk->as_string();
    out.failures.push_back(std::move(failure));
  }
  std::size_t vms = 0;
  if (!read_count(value, "vms", vms)) return false;
  out.virtual_ms = vms;
  return true;
}

/// A propcheck task's journal record: one pair delta per client, none
/// when deploy() refused the service.
std::string pairs_json(const std::vector<PairDelta>& pairs) {
  json::ArrayWriter rows;
  for (const PairDelta& delta : pairs) rows.raw_item(pair_delta_json(delta));
  return json::ObjectWriter{}.raw_field("clients", rows.str()).str();
}

Result<std::vector<PairDelta>> pairs_from_record(const resilience::JournalEntry& entry,
                                                 std::size_t clients) {
  Result<json::Value> record = json::parse(entry.record);
  if (!record.ok()) return bad_record(entry.id, record.error().message);
  const json::Value* rows = record->find("clients");
  if (rows == nullptr || !rows->is_array() || (rows->size() != 0 && rows->size() != clients)) {
    return bad_record(entry.id, "client row count mismatch");
  }
  std::vector<PairDelta> pairs(rows->size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!pair_delta_from_json(rows->items()[i], pairs[i])) {
      return bad_record(entry.id, "malformed pair delta");
    }
  }
  return pairs;
}

/// The size of a service's corpus. Every case resolves to exactly one
/// outcome in each pair, so any pair's outcome counts sum to it.
std::size_t corpus_size(const PairDelta& pair) {
  std::size_t cases = 0;
  for (const std::size_t count : pair.outcomes) cases += count;
  return cases;
}

}  // namespace

std::string gen_config_json(const GenConfig& config) {
  return json::ObjectWriter{}
      .raw_field("java", catalog::to_json(config.java_spec))
      .raw_field("dotnet", catalog::to_json(config.dotnet_spec))
      .field("seed", static_cast<std::size_t>(config.corpus.seed))
      .field("cases_per_operation", config.corpus.cases_per_operation)
      .field("max_depth", static_cast<std::size_t>(config.corpus.max_depth))
      .field("sabotage", config.corpus.sabotage)
      .field("shrink", config.shrink)
      .field("parse_cache", config.parse_cache)
      .str();
}

Result<GenConfig> gen_config_from_json(std::string_view text) {
  Result<json::Value> parsed = json::parse(text);
  if (!parsed.ok()) return parsed.error();
  GenConfig config;
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
  std::size_t max_depth = 0;
  if (!read_count(*parsed, "seed", seed) ||
      !read_count(*parsed, "cases_per_operation", config.corpus.cases_per_operation) ||
      !read_count(*parsed, "max_depth", max_depth)) {
    return bad_config("missing corpus counters");
  }
  config.corpus.seed = seed;
  config.corpus.max_depth = static_cast<int>(max_depth);
  const auto read_flag = [&](std::string_view key, bool& out) {
    const json::Value* member = parsed->find(key);
    if (member == nullptr || !member->is_bool()) return false;
    out = member->as_bool();
    return true;
  };
  if (!read_flag("sabotage", config.corpus.sabotage) ||
      !read_flag("shrink", config.shrink) || !read_flag("parse_cache", config.parse_cache)) {
    return bad_config("missing flags");
  }
  return config;
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
  // record. `bound[t]` is set when task t's service deployed.
  const std::size_t width = clients.size();
  std::vector<PairDelta> side(plan.tasks.size() * width);
  std::vector<char> bound(plan.tasks.size(), 0);
  for (const resilience::JournalEntry* entry :
       resilience::resumed_records(tasks, options.resume)) {
    Result<std::vector<PairDelta>> pairs = pairs_from_record(*entry, clients.size());
    if (!pairs.ok()) return pairs.error();
    bound[entry->task] = !pairs->empty();
    std::move(pairs->begin(), pairs->end(), side.begin() + entry->task * width);
  }
  const bool journaling = !options.checkpoint_path.empty();

  // One task: deploy one service, build its shared parse and its corpus
  // (each case's PRNG stream is keyed by case identity, so where the
  // corpus is built cannot change a byte), then replay the corpus through
  // every client pair, charging the virtual wire cost against the deadline.
  tasks.run = [&, journaling](std::size_t index, resilience::TaskContext& context) {
    const frameworks::RoundService& task = plan.tasks[index];
    const frameworks::ServerFramework& server = *rounds[task.round].server;
    bound[index] = 0;
    Result<frameworks::DeployedService> service = server.deploy(*task.spec);
    if (!service.ok()) return journaling ? pairs_json({}) : std::string{};
    std::optional<frameworks::SharedDescription> description;
    if (config.parse_cache) {
      description.emplace(
          frameworks::SharedDescription::from_deployed(*service, /*with_wsi=*/false));
    }
    const std::vector<GeneratedCase> corpus = generate_corpus(*service, config.corpus);
    PairDelta* pairs = side.data() + index * width;
    for (std::size_t i = 0; i < width; ++i) {
      pairs[i] = run_propcheck_pair(server, *service,
                                    description.has_value() ? &*description : nullptr, corpus,
                                    *clients[i], compilers[i].get(), config);
      context.charge(pairs[i].virtual_ms);
    }
    bound[index] = 1;
    return journaling ? pairs_json({pairs, pairs + width}) : std::string{};
  };

  obs::Span check_span(config.tracer, "phase:check", run_span);
  obs::ScopedTimer check_timer = obs::timer(config.metrics, "gen.phase.check_us");
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
    PairDelta* pairs = side.data() + outcome.task * width;
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
    if (!bound[outcome.task]) continue;
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
