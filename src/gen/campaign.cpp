#include "gen/campaign.hpp"

#include <iomanip>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "frameworks/invocation.hpp"
#include "gen/shrink.hpp"
#include "gen/supervised.hpp"

namespace wsx::gen {

const char* to_string(PropOutcome outcome) {
  switch (outcome) {
    case PropOutcome::kBlocked:
      return "blocked";
    case PropOutcome::kPass:
      return "pass";
    case PropOutcome::kSkipped:
      return "skipped";
    case PropOutcome::kInvalidValue:
      return "invalid value";
    case PropOutcome::kMismatch:
      return "mismatch";
    case PropOutcome::kTimedOut:
      return "timed out";
  }
  return "unknown";
}

std::size_t PropcheckResult::total(PropOutcome outcome) const {
  std::size_t total = 0;
  for (const PropServerResult& server : servers) {
    for (const PropCell& cell : server.cells) total += cell.count(outcome);
  }
  return total;
}

std::size_t PropcheckResult::total_failures() const {
  std::size_t total = 0;
  for (const PropServerResult& server : servers) {
    for (const PropCell& cell : server.cells) total += cell.failures.size();
  }
  return total;
}

namespace {

const char* to_string(frameworks::EchoOutcome outcome) {
  switch (outcome) {
    case frameworks::EchoOutcome::kTransportError:
      return "transport error";
    case frameworks::EchoOutcome::kVersionMismatch:
      return "version mismatch";
    case frameworks::EchoOutcome::kServerFault:
      return "server fault";
    case frameworks::EchoOutcome::kEchoMismatch:
      return "echo mismatch";
    case frameworks::EchoOutcome::kOk:
      return "ok";
  }
  return "unknown";
}

void add_outcome(PairDelta& delta, PropOutcome outcome, std::size_t count = 1) {
  delta.outcomes[static_cast<std::size_t>(outcome)] += count;
}

}  // namespace

PairDelta run_propcheck_pair(const frameworks::ServerFramework& server,
                             const frameworks::DeployedService& service,
                             const frameworks::SharedDescription& description,
                             const std::vector<GeneratedCase>& corpus,
                             const frameworks::ClientFramework& client,
                             const compilers::Compiler* compiler, const GenConfig& config) {
  PairDelta delta;
  const frameworks::PreparedCall baseline =
      frameworks::prepare_echo_call(service, description, client, compiler);
  if (baseline.status != frameworks::PreparedCall::Status::kReady) {
    add_outcome(delta, PropOutcome::kBlocked, corpus.size());
    return delta;
  }
  const frameworks::EchoClassification baseline_class = frameworks::classify_echo_response(
      server.handle_http(service, baseline.request), baseline.payload);
  delta.virtual_ms += kCaseCostMs;

  // Runs one candidate end to end; used for cases and shrink probes alike.
  const auto classify_candidate =
      [&](const GeneratedCase& candidate) -> std::optional<frameworks::EchoOutcome> {
    const frameworks::PreparedCall prepared =
        frameworks::prepare_call(service, description, client, compiler, &candidate.payload);
    if (prepared.status != frameworks::PreparedCall::Status::kReady) return std::nullopt;
    return frameworks::classify_echo_response(server.handle_http(service, prepared.request),
                                              prepared.payload)
        .outcome;
  };

  for (const GeneratedCase& generated : corpus) {
    // Property 1: validity. The corpus must live inside the contract.
    if (const std::optional<std::string> violation = validate_case(service, generated)) {
      PropFailure failure;
      failure.case_id = generated.case_id;
      failure.kind = "invalid-value";
      failure.detail = *violation;
      failure.payload = render_payload(generated.payload);
      if (config.shrink) {
        ShrinkStats stats;
        const GeneratedCase minimal = shrink_case(
            generated,
            [&](const GeneratedCase& candidate) {
              return validate_case(service, candidate).has_value();
            },
            &stats);
        failure.shrunk = render_payload(minimal.payload);
        failure.shrink_steps = stats.accepted;
      }
      add_outcome(delta, PropOutcome::kInvalidValue);
      delta.failures.push_back(std::move(failure));
      continue;
    }
    // Structured marshalling bypasses the uncommon-structure element these
    // pairs are defined by, so the comparison is not meaningful there.
    if (baseline.uncommon_marshalling && !generated.payload.fields.empty()) {
      add_outcome(delta, PropOutcome::kSkipped);
      continue;
    }
    delta.virtual_ms += kCaseCostMs;
    const std::optional<frameworks::EchoOutcome> observed = classify_candidate(generated);
    frameworks::EchoOutcome expected = baseline_class.outcome;
    // One documented normalisation: the uncommon-marshalling server drops
    // the argument and echoes "", so an empty expected echo *matches* even
    // though the non-empty baseline probe mismatched.
    if (baseline.uncommon_marshalling && generated.payload.expected_echo().empty() &&
        expected == frameworks::EchoOutcome::kEchoMismatch) {
      expected = frameworks::EchoOutcome::kOk;
    }
    if (observed.has_value() && *observed == expected) {
      add_outcome(delta, PropOutcome::kPass);
      continue;
    }
    // Property 2: stability. Record and minimise the drift.
    PropFailure failure;
    failure.case_id = generated.case_id;
    failure.kind = "mismatch";
    failure.detail = std::string("expected ") + to_string(expected) + ", got " +
                     (observed.has_value() ? to_string(*observed) : "no prepared call");
    failure.payload = render_payload(generated.payload);
    if (config.shrink) {
      ShrinkStats stats;
      const GeneratedCase minimal = shrink_case(
          generated,
          [&](const GeneratedCase& candidate) {
            if (validate_case(service, candidate).has_value()) return false;
            const std::optional<frameworks::EchoOutcome> probe = classify_candidate(candidate);
            return probe == observed;  // the same drift, not a new failure class
          },
          &stats);
      failure.shrunk = render_payload(minimal.payload);
      failure.shrink_steps = stats.accepted;
    }
    add_outcome(delta, PropOutcome::kMismatch);
    delta.failures.push_back(std::move(failure));
  }
  // The pair's totals go to the registry once: each add takes its lock.
  if (!corpus.empty()) obs::add(config.metrics, "gen.cases_total", corpus.size());
  if (!delta.failures.empty()) obs::add(config.metrics, "gen.failures", delta.failures.size());
  return delta;
}

PropcheckResult run_propcheck(const GenConfig& config) {
  return resilience::require_complete(run_propcheck_supervised(config, {})).propcheck;
}

std::string replay_command(const CorpusOptions& corpus) {
  std::ostringstream out;
  out << "wsinterop propcheck --seed " << corpus.seed << " --cases "
      << corpus.cases_per_operation;
  if (corpus.sabotage) out << " --sabotage";
  out << " --shrink";
  return out.str();
}

std::string format_propcheck(const PropcheckResult& result, bool with_shrink) {
  std::ostringstream out;
  out << "Property-based communication study (seed " << result.corpus.seed << ", "
      << result.corpus.cases_per_operation << " case(s) per operation"
      << (result.corpus.sabotage ? ", sabotage mode" : "") << ")\n";
  for (const PropServerResult& server : result.servers) {
    out << server.server << " — " << server.services_deployed << " services, "
        << server.cases_generated << " generated cases\n";
    const int client_width = name_column_width("client", server.cells, &PropCell::client);
    out << "  " << std::left << std::setw(client_width) << "client" << std::right << std::setw(8)
        << "blocked" << std::setw(7) << "pass" << std::setw(9) << "skipped" << std::setw(9)
        << "invalid" << std::setw(10) << "mismatch" << std::setw(10) << "timed-out"
        << "\n";
    for (const PropCell& cell : server.cells) {
      out << "  " << std::left << std::setw(client_width) << cell.client << std::right
          << std::setw(8)
          << cell.count(PropOutcome::kBlocked) << std::setw(7)
          << cell.count(PropOutcome::kPass) << std::setw(9)
          << cell.count(PropOutcome::kSkipped) << std::setw(9)
          << cell.count(PropOutcome::kInvalidValue) << std::setw(10)
          << cell.count(PropOutcome::kMismatch) << std::setw(10)
          << cell.count(PropOutcome::kTimedOut) << "\n";
    }
  }
  out << "totals: " << result.total(PropOutcome::kPass) << " passed, "
      << result.total(PropOutcome::kInvalidValue) + result.total(PropOutcome::kMismatch)
      << " property violation(s), " << result.total(PropOutcome::kSkipped) << " skipped, "
      << result.total(PropOutcome::kBlocked) << " blocked\n";
  if (with_shrink && result.total_failures() > 0) {
    out << "\nCounterexamples (shrunk to local minima)\n";
    for (const PropServerResult& server : result.servers) {
      for (const PropCell& cell : server.cells) {
        for (const PropFailure& failure : cell.failures) {
          out << "  " << server.server << " | " << cell.client << " | " << failure.case_id
              << "\n    " << failure.kind << ": " << failure.detail << "\n    payload:   '"
              << failure.payload << "'\n    minimized: '" << failure.shrunk << "' ("
              << failure.shrink_steps << " shrink step(s))\n    replay:    "
              << replay_command(result.corpus) << "\n";
        }
      }
    }
  }
  return out.str();
}

std::string propcheck_json(const PropcheckResult& result) {
  json::ArrayWriter servers;
  for (const PropServerResult& server : result.servers) {
    json::ArrayWriter cells;
    for (const PropCell& cell : server.cells) {
      json::ArrayWriter outcomes;
      for (const std::size_t count : cell.outcomes) outcomes.raw_item(std::to_string(count));
      json::ArrayWriter failures;
      for (const PropFailure& failure : cell.failures) {
        failures.raw_item(json::ObjectWriter{}
                              .field("id", failure.case_id)
                              .field("kind", failure.kind)
                              .field("detail", failure.detail)
                              .field("payload", failure.payload)
                              .field("shrunk", failure.shrunk)
                              .field("shrink_steps", failure.shrink_steps)
                              .str());
      }
      cells.raw_item(json::ObjectWriter{}
                         .field("client", cell.client)
                         .raw_field("outcomes", outcomes.str())
                         .raw_field("failures", failures.str())
                         .field("virtual_ms", static_cast<std::size_t>(cell.virtual_ms))
                         .str());
    }
    servers.raw_item(json::ObjectWriter{}
                         .field("server", server.server)
                         .field("services", server.services_deployed)
                         .field("cases", server.cases_generated)
                         .raw_field("clients", cells.str())
                         .str());
  }
  json::ObjectWriter root;
  root.field("experiment", "propcheck");
  root.field("seed", static_cast<std::size_t>(result.corpus.seed));
  root.field("cases_per_operation", result.corpus.cases_per_operation);
  root.field("sabotage", result.corpus.sabotage);
  root.field("shrink", result.shrink);
  root.field("passed", result.total(PropOutcome::kPass));
  root.field("violations",
             result.total(PropOutcome::kInvalidValue) + result.total(PropOutcome::kMismatch));
  root.raw_field("servers", servers.str());
  return root.str();
}

}  // namespace wsx::gen
