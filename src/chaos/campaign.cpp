#include "chaos/campaign.hpp"

#include <iomanip>
#include <sstream>

#include "chaos/clock.hpp"
#include "chaos/supervised.hpp"
#include "chaos/wire.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/invocation.hpp"
#include "frameworks/shared_description.hpp"

namespace wsx::chaos {

const char* to_string(ChaosOutcome outcome) {
  switch (outcome) {
    case ChaosOutcome::kBlockedEarlier:
      return "blocked earlier";
    case ChaosOutcome::kOk:
      return "ok";
    case ChaosOutcome::kRecovered:
      return "recovered";
    case ChaosOutcome::kDegradedOk:
      return "degraded ok";
    case ChaosOutcome::kAppFailure:
      return "app failure";
    case ChaosOutcome::kExhaustedRetries:
      return "exhausted retries";
    case ChaosOutcome::kFailedFast:
      return "failed fast";
    case ChaosOutcome::kHung:
      return "hung";
    case ChaosOutcome::kTimedOut:
      return "timed out";
    case ChaosOutcome::kVersionMismatch:
      return "version mismatch";
    case ChaosOutcome::kDowngraded:
      return "downgraded";
  }
  return "unknown";
}

std::size_t ChaosCell::attempted() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < kChaosOutcomeCount; ++i) total += outcomes[i];
  return total - count(ChaosOutcome::kBlockedEarlier);
}

std::size_t ChaosCell::succeeded() const {
  return count(ChaosOutcome::kOk) + count(ChaosOutcome::kRecovered) +
         count(ChaosOutcome::kDegradedOk) + count(ChaosOutcome::kDowngraded);
}

double ChaosCell::recovery_rate() const {
  if (challenged == 0) return 0.0;
  return 100.0 * static_cast<double>(challenged_ok) / static_cast<double>(challenged);
}

std::size_t ChaosResult::total(ChaosOutcome outcome) const {
  std::size_t total = 0;
  for (const ChaosServerResult& server : servers) {
    for (const ChaosCell& cell : server.cells) total += cell.count(outcome);
  }
  return total;
}

std::size_t ChaosResult::total_attempted() const {
  std::size_t total = 0;
  for (const ChaosServerResult& server : servers) {
    for (const ChaosCell& cell : server.cells) total += cell.attempted();
  }
  return total;
}

std::size_t ChaosResult::total_challenged() const {
  std::size_t total = 0;
  for (const ChaosServerResult& server : servers) {
    for (const ChaosCell& cell : server.cells) total += cell.challenged;
  }
  return total;
}

std::size_t ChaosResult::total_challenged_ok() const {
  std::size_t total = 0;
  for (const ChaosServerResult& server : servers) {
    for (const ChaosCell& cell : server.cells) total += cell.challenged_ok;
  }
  return total;
}

namespace {

/// Why one delivery attempt failed — decides retry eligibility.
enum class FailureClass {
  kReset,
  kConnectTimeout,
  kReadTimeout,
  kStatus,     ///< a delivered 4xx/5xx (or header-level rejection)
  kMalformed,  ///< delivered but unparseable / content mangled
};

struct CallRecord {
  ChaosOutcome outcome = ChaosOutcome::kFailedFast;
  unsigned retransmits = 0;
  unsigned faulted_attempts = 0;
};

/// One logical call under the client's resilience policy: attempts, waits,
/// backoffs, the idempotency gate and the circuit breaker — all on the
/// chain's virtual clock.
CallRecord execute_call(const FaultyWire& wire,
                        const frameworks::DeployedService& service,
                        const frameworks::PreparedCall& call,
                        const ResiliencePolicy& policy, const CallSchedule& schedule,
                        VirtualClock& clock, CircuitBreaker& breaker) {
  CallRecord record;
  const std::uint64_t deadline = clock.now_ms() + policy.call_budget_ms;
  unsigned attempt = 0;
  unsigned executions = 0;  // times the server executed this logical call
  bool downgraded = false;  // retransmitting the 1.1-coherent form

  for (;;) {
    if (!breaker.allows(clock.now_ms())) {
      // Open circuit: the stack refuses the call without touching the wire.
      record.outcome = ChaosOutcome::kFailedFast;
      return record;
    }

    const WireAttempt wire_attempt =
        wire.attempt(service, downgraded ? call.downgrade_request : call.request,
                     schedule, attempt, downgraded);
    if (wire_attempt.injected.has_value()) ++record.faulted_attempts;
    executions += wire_attempt.server_executions;

    const std::uint64_t remaining =
        deadline > clock.now_ms() ? deadline - clock.now_ms() : 0;
    const std::uint64_t wait_cap = std::min(policy.attempt_timeout_ms, remaining);

    FailureClass failure_class = FailureClass::kReset;
    int failure_status = 0;
    if (wire_attempt.latency_ms > wait_cap) {
      // The client gave up waiting on this attempt (or the response truly
      // never comes). Waiting consumed virtual time either way.
      clock.advance(wait_cap);
      if (wait_cap == remaining) {
        // The whole call budget went into waiting: the stack hung.
        breaker.record_failure(clock.now_ms());
        record.outcome = ChaosOutcome::kHung;
        return record;
      }
      failure_class = wire_attempt.status == WireAttempt::Status::kConnectTimeout
                          ? FailureClass::kConnectTimeout
                          : FailureClass::kReadTimeout;
    } else {
      clock.advance(wire_attempt.latency_ms);
      if (wire_attempt.status == WireAttempt::Status::kDelivered) {
        const frameworks::EchoClassification classified =
            frameworks::classify_echo_response(wire_attempt.response, call.payload);
        if (classified.outcome == frameworks::EchoOutcome::kOk) {
          breaker.record_success(clock.now_ms());
          record.outcome = downgraded             ? ChaosOutcome::kDowngraded
                           : executions > 1      ? ChaosOutcome::kDegradedOk
                           : record.retransmits > 0 ? ChaosOutcome::kRecovered
                                                    : ChaosOutcome::kOk;
          return record;
        }
        const bool version_rejection =
            classified.outcome == frameworks::EchoOutcome::kVersionMismatch ||
            wire_attempt.response.status == 415;
        if (version_rejection) {
          if (!downgraded && policy.downgrade_on_version_mismatch) {
            // Downgrade recovery: retransmit the 1.1-coherent form exactly
            // once. An injected skew counts against the breaker (the wire
            // really did misbehave); a clean policy mismatch does not.
            if (wire_attempt.injected.has_value()) {
              breaker.record_failure(clock.now_ms());
            }
            downgraded = true;
            ++record.retransmits;
            continue;
          }
          if (!wire_attempt.injected.has_value()) {
            // A clean attempt was rejected on version-coherence grounds and
            // the stack has no downgrade path: a pure policy mismatch. The
            // wire is innocent — the breaker stays untouched.
            record.outcome = ChaosOutcome::kVersionMismatch;
            return record;
          }
          // An injected skew the stack cannot downgrade away from: handled
          // below as an ordinary wire-level delivery failure.
        } else if (!wire_attempt.injected.has_value()) {
          // A clean attempt failed at the SOAP level: the wire is innocent
          // and no resilience policy helps. Does not trip the breaker.
          record.outcome = ChaosOutcome::kAppFailure;
          return record;
        }
        if (wire_attempt.response.is_client_error() ||
            wire_attempt.response.is_server_error()) {
          failure_class = FailureClass::kStatus;
          failure_status = wire_attempt.response.status;
        } else {
          failure_class = FailureClass::kMalformed;
        }
      } else {
        // kConnectionReset (timeouts always exceed wait_cap).
        failure_class = FailureClass::kReset;
      }
    }

    // The attempt failed for a wire-level reason.
    breaker.record_failure(clock.now_ms());
    if (policy.abort_on_first_wire_fault) {
      record.outcome = ChaosOutcome::kFailedFast;
      return record;
    }
    bool eligible = false;
    switch (failure_class) {
      case FailureClass::kReset:
        eligible = policy.retry_on_reset;
        break;
      case FailureClass::kConnectTimeout:
      case FailureClass::kReadTimeout:
        eligible = policy.retry_on_timeout;
        break;
      case FailureClass::kStatus:
        eligible = policy.retries_on_status(failure_status);
        break;
      case FailureClass::kMalformed:
        eligible = policy.retry_on_malformed_response;
        break;
    }
    if (!eligible) {
      record.outcome = ChaosOutcome::kFailedFast;
      return record;
    }
    if (executions > 0 && !policy.retransmit_after_server_execution) {
      // Idempotency gate: the server may already have executed this call;
      // a careful stack refuses the unsafe retransmit.
      record.outcome = ChaosOutcome::kFailedFast;
      return record;
    }
    if (attempt >= policy.max_retries) {
      record.outcome = ChaosOutcome::kExhaustedRetries;
      return record;
    }
    const std::uint64_t backoff = policy.backoff_before(attempt, schedule.salt());
    const std::uint64_t left = deadline - clock.now_ms();
    if (backoff >= left) {
      // The budget dies during backoff — retries are effectively exhausted.
      clock.advance(left);
      record.outcome = ChaosOutcome::kExhaustedRetries;
      return record;
    }
    clock.advance(backoff);
    ++attempt;
    ++record.retransmits;
  }
}

}  // namespace

ChainDelta run_chaos_chain(const FaultyWire& wire,
                           const frameworks::ServerFramework& server,
                           const frameworks::DeployedService& service,
                           const frameworks::SharedDescription* description,
                           const frameworks::ClientFramework& client,
                           const compilers::Compiler* compiler,
                           const ResiliencePolicy& policy, const ChaosConfig& config,
                           soap::HybridProfile profile, std::string_view round_label) {
  ChainDelta delta;
  const frameworks::PreparedCall call =
      frameworks::prepare_echo_call(service, *description, client, compiler, profile);
  if (call.status != frameworks::PreparedCall::Status::kReady) {
    delta.outcomes[static_cast<std::size_t>(ChaosOutcome::kBlockedEarlier)] +=
        config.calls_per_pair;
    return delta;
  }
  // One chain per (client, endpoint): clock and breaker persist across the
  // pair's calls, so bursts on an early call can fail-fast later ones.
  VirtualClock clock;
  CircuitBreaker breaker(config.breaker);
  // Call ids are "scope|service|client|N": the chain hashes the prefix
  // once, and each call folds in only its number.
  std::string prefix = round_label.empty() ? server.name() : std::string(round_label);
  prefix += '|';
  prefix += service.spec.service_name();
  prefix += '|';
  prefix += client.name();
  prefix += '|';
  const std::uint64_t prefix_state = call_id_prefix(prefix);
  for (std::size_t call_no = 0; call_no < config.calls_per_pair; ++call_no) {
    const CallSchedule schedule = wire.schedule(prefix_state, call_no);
    const CallRecord record =
        execute_call(wire, service, call, policy, schedule, clock, breaker);
    ++delta.outcomes[static_cast<std::size_t>(record.outcome)];
    delta.retransmits += record.retransmits;
    delta.faulted_attempts += record.faulted_attempts;
    if (record.faulted_attempts > 0) {
      ++delta.challenged;
      if (record.outcome == ChaosOutcome::kOk ||
          record.outcome == ChaosOutcome::kRecovered ||
          record.outcome == ChaosOutcome::kDegradedOk ||
          record.outcome == ChaosOutcome::kDowngraded) {
        ++delta.challenged_ok;
      }
    }
  }
  // The chain's totals go to the registry once: each add takes its lock.
  if (config.calls_per_pair > 0) {
    obs::add(config.metrics, "chaos.calls_total", config.calls_per_pair);
    obs::add(config.metrics, "chaos.retransmits", delta.retransmits);
    obs::add(config.metrics, "chaos.faults_injected", delta.faulted_attempts);
  }
  delta.breaker_trips = breaker.trips();
  delta.virtual_ms = clock.now_ms();
  return delta;
}

ChaosResult run_chaos_study(const ChaosConfig& config) {
  return resilience::require_complete(run_chaos_supervised(config, {})).chaos;
}

namespace {

std::string plan_summary(const ChaosResult& result) {
  std::ostringstream out;
  out << "seed " << result.plan.seed << ", fault rate " << result.plan.rate_percent
      << "%, max burst " << result.plan.max_burst << ", ";
  if (result.plan.kinds.empty()) {
    out << "all " << kFaultKindCount << " fault kinds";
  } else {
    out << result.plan.kinds.size() << " fault kind(s):";
    for (const FaultKind kind : result.plan.kinds) out << ' ' << to_string(kind);
  }
  out << ", " << result.calls_per_pair << " call(s) per pair";
  return out.str();
}

}  // namespace

std::string format_chaos(const ChaosResult& result) {
  std::ostringstream out;
  out << "Wire-fault resilience study (" << plan_summary(result) << ")\n";
  for (const ChaosServerResult& server : result.servers) {
    out << server.server << " — " << server.services_deployed << " services\n";
    const int client_width = name_column_width("client", server.cells, &ChaosCell::client);
    out << "  " << std::left << std::setw(client_width) << "client" << std::right << std::setw(6)
        << "calls" << std::setw(6) << "ok" << std::setw(10) << "recovered" << std::setw(11)
        << "downgraded" << std::setw(9) << "degraded" << std::setw(9) << "app-fail"
        << std::setw(10) << "vmismatch" << std::setw(10) << "exhausted"
        << std::setw(10) << "fail-fast" << std::setw(6) << "hung" << std::setw(10)
        << "timed-out" << std::setw(6) << "retx" << "\n";
    for (const ChaosCell& cell : server.cells) {
      out << "  " << std::left << std::setw(client_width) << cell.client << std::right
          << std::setw(6)
          << cell.attempted() << std::setw(6) << cell.count(ChaosOutcome::kOk)
          << std::setw(10) << cell.count(ChaosOutcome::kRecovered) << std::setw(11)
          << cell.count(ChaosOutcome::kDowngraded) << std::setw(9)
          << cell.count(ChaosOutcome::kDegradedOk) << std::setw(9)
          << cell.count(ChaosOutcome::kAppFailure) << std::setw(10)
          << cell.count(ChaosOutcome::kVersionMismatch) << std::setw(10)
          << cell.count(ChaosOutcome::kExhaustedRetries) << std::setw(10)
          << cell.count(ChaosOutcome::kFailedFast) << std::setw(6)
          << cell.count(ChaosOutcome::kHung) << std::setw(10)
          << cell.count(ChaosOutcome::kTimedOut) << std::setw(6) << cell.retransmits << "\n";
    }
  }
  out << "totals: " << result.total_attempted() << " calls, "
      << result.total_challenged() << " challenged by a fault, "
      << result.total_challenged_ok() << " of those still succeeded\n";
  return out.str();
}

std::string chaos_markdown(const ChaosResult& result) {
  // Aggregate per client across servers.
  struct Row {
    std::string client;
    std::array<std::size_t, kChaosOutcomeCount> outcomes{};
    std::size_t retransmits = 0;
    std::size_t challenged = 0;
    std::size_t challenged_ok = 0;
  };
  std::vector<Row> rows;
  for (const ChaosServerResult& server : result.servers) {
    for (const ChaosCell& cell : server.cells) {
      Row* row = nullptr;
      for (Row& candidate : rows) {
        if (candidate.client == cell.client) row = &candidate;
      }
      if (row == nullptr) {
        rows.push_back({});
        rows.back().client = cell.client;
        row = &rows.back();
      }
      for (std::size_t i = 0; i < kChaosOutcomeCount; ++i) {
        row->outcomes[i] += cell.outcomes[i];
      }
      row->retransmits += cell.retransmits;
      row->challenged += cell.challenged;
      row->challenged_ok += cell.challenged_ok;
    }
  }
  std::ostringstream out;
  out << "## Wire-fault resilience matrix\n\n";
  out << plan_summary(result) << "\n\n";
  out << "| client | ok | recovered | downgraded | degraded | app-failure | "
         "version-mismatch | exhausted | failed-fast | hung | timed-out | "
         "retransmits | recovery% |\n";
  out << "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  const auto count = [](const Row& row, ChaosOutcome outcome) {
    return row.outcomes[static_cast<std::size_t>(outcome)];
  };
  for (const Row& row : rows) {
    const double rate = row.challenged == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(row.challenged_ok) /
                                  static_cast<double>(row.challenged);
    out << "| " << row.client << " | "
        << count(row, ChaosOutcome::kOk) << " | " << count(row, ChaosOutcome::kRecovered)
        << " | " << count(row, ChaosOutcome::kDowngraded) << " | "
        << count(row, ChaosOutcome::kDegradedOk) << " | "
        << count(row, ChaosOutcome::kAppFailure) << " | "
        << count(row, ChaosOutcome::kVersionMismatch) << " | "
        << count(row, ChaosOutcome::kExhaustedRetries) << " | "
        << count(row, ChaosOutcome::kFailedFast) << " | "
        << count(row, ChaosOutcome::kHung) << " | " << count(row, ChaosOutcome::kTimedOut)
        << " | " << row.retransmits << " | "
        << std::fixed << std::setprecision(1) << rate << " |\n";
  }
  return out.str();
}

std::string chaos_csv(const ChaosResult& result) {
  std::ostringstream out;
  out << "server,client,blocked,ok,recovered,degraded,app_failure,exhausted,"
         "failed_fast,hung,timed_out,version_mismatch,downgraded,retransmits,"
         "faulted_attempts,challenged,challenged_ok,breaker_trips,virtual_ms\n";
  for (const ChaosServerResult& server : result.servers) {
    for (const ChaosCell& cell : server.cells) {
      out << server.server << ',' << cell.client << ','
          << cell.count(ChaosOutcome::kBlockedEarlier) << ','
          << cell.count(ChaosOutcome::kOk) << ',' << cell.count(ChaosOutcome::kRecovered)
          << ',' << cell.count(ChaosOutcome::kDegradedOk) << ','
          << cell.count(ChaosOutcome::kAppFailure) << ','
          << cell.count(ChaosOutcome::kExhaustedRetries) << ','
          << cell.count(ChaosOutcome::kFailedFast) << ','
          << cell.count(ChaosOutcome::kHung) << ',' << cell.count(ChaosOutcome::kTimedOut)
          << ',' << cell.count(ChaosOutcome::kVersionMismatch) << ','
          << cell.count(ChaosOutcome::kDowngraded) << ','
          << cell.retransmits << ','
          << cell.faulted_attempts << ',' << cell.challenged << ',' << cell.challenged_ok
          << ',' << cell.breaker_trips << ',' << cell.virtual_ms << '\n';
    }
  }
  return out.str();
}

std::string chaos_recovery_json(const ChaosResult& result) {
  // Per-client aggregates, in roster order (stable for trend tooling).
  std::vector<std::string> order;
  for (const ChaosServerResult& server : result.servers) {
    for (const ChaosCell& cell : server.cells) {
      bool seen = false;
      for (const std::string& client : order) seen = seen || client == cell.client;
      if (!seen) order.push_back(cell.client);
    }
  }
  json::ArrayWriter clients_json;
  for (const std::string& client : order) {
    std::size_t challenged = 0;
    std::size_t challenged_ok = 0;
    std::size_t recovered = 0;
    std::size_t downgraded = 0;
    std::size_t version_mismatch = 0;
    std::size_t hung = 0;
    std::size_t retransmits = 0;
    for (const ChaosServerResult& server : result.servers) {
      for (const ChaosCell& cell : server.cells) {
        if (cell.client != client) continue;
        challenged += cell.challenged;
        challenged_ok += cell.challenged_ok;
        recovered += cell.count(ChaosOutcome::kRecovered);
        downgraded += cell.count(ChaosOutcome::kDowngraded);
        version_mismatch += cell.count(ChaosOutcome::kVersionMismatch);
        hung += cell.count(ChaosOutcome::kHung);
        retransmits += cell.retransmits;
      }
    }
    json::ObjectWriter entry;
    entry.field("client", client);
    entry.field("challenged", challenged);
    entry.field("challenged_ok", challenged_ok);
    entry.field("recovered", recovered);
    entry.field("downgraded", downgraded);
    entry.field("version_mismatch", version_mismatch);
    entry.field("hung", hung);
    entry.field("retransmits", retransmits);
    entry.field("recovery_rate",
                challenged == 0 ? 0.0
                                : 100.0 * static_cast<double>(challenged_ok) /
                                      static_cast<double>(challenged));
    clients_json.raw_item(entry.str());
  }
  json::ObjectWriter root;
  root.field("experiment", "chaos");
  root.field("seed", static_cast<std::size_t>(result.plan.seed));
  root.field("rate_percent", static_cast<std::size_t>(result.plan.rate_percent));
  root.field("calls_per_pair", result.calls_per_pair);
  root.raw_field("clients", clients_json.str());
  return root.str();
}

}  // namespace wsx::chaos
