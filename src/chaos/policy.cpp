#include "chaos/policy.hpp"

#include <algorithm>
#include <sstream>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace wsx::chaos {

bool ResiliencePolicy::retries_on_status(int status) const {
  return std::find(retry_on_status.begin(), retry_on_status.end(), status) !=
         retry_on_status.end();
}

std::uint64_t ResiliencePolicy::backoff_before(unsigned retry_number,
                                               std::uint64_t salt) const {
  if (base_backoff_ms == 0 && jitter_ms == 0) return 0;
  std::uint64_t delay = base_backoff_ms;
  for (unsigned i = 0; i < retry_number && delay < max_backoff_ms; ++i) delay *= 2;
  if (max_backoff_ms != 0) delay = std::min(delay, max_backoff_ms);
  if (jitter_ms != 0) {
    // Deterministic jitter: same call, same retry, same delay — always.
    delay += splitmix64(salt + retry_number) % (jitter_ms + 1);
  }
  return delay;
}

namespace {

struct NamedPolicy {
  std::string_view prefix;
  ResiliencePolicy policy;
};

/// The calibration table. Values model each stack's documented or commonly
/// observed transport behaviour, scaled onto the virtual clock:
///  * Metro/JAX-WS retransmits a couple of times with modest backoff and
///    will blindly retransmit after a lost response.
///  * Axis1 rides commons-httpclient's default retry handler: up to three
///    retransmits on connection-level failures, no backoff, nothing else.
///  * Axis2 retries once on connection trouble.
///  * CXF retries with exponential backoff and honours 502/503, but gates
///    retransmits on idempotency — a lost response makes it fail fast.
///  * JBossWS (CXF-based) retries once on resets only.
///  * The .NET stacks retry aggressively on 503 and resets with real
///    backoff, but refuse to retransmit once the server may have executed.
///  * gSOAP aborts the call on the first wire fault of any kind.
///  * Zend gives up immediately on anything (no retry machinery at all).
///  * suds has no retries and a read timeout as long as its whole budget:
///    a lost response means it simply hangs until the budget is gone.
std::vector<NamedPolicy> policy_table() {
  std::vector<NamedPolicy> table;

  ResiliencePolicy metro;
  metro.max_retries = 2;
  metro.base_backoff_ms = 100;
  metro.max_backoff_ms = 2000;
  metro.jitter_ms = 50;
  metro.attempt_timeout_ms = 3000;
  metro.call_budget_ms = 15000;
  metro.retry_on_reset = true;
  metro.retry_on_timeout = true;
  metro.retry_on_status = {503};
  metro.downgrade_on_version_mismatch = true;
  table.push_back({"Oracle Metro", metro});

  ResiliencePolicy axis1;
  axis1.max_retries = 3;
  axis1.attempt_timeout_ms = 3000;
  axis1.call_budget_ms = 15000;
  axis1.retry_on_reset = true;
  table.push_back({"Apache Axis1", axis1});

  ResiliencePolicy axis2;
  axis2.max_retries = 1;
  axis2.attempt_timeout_ms = 3000;
  axis2.call_budget_ms = 8000;
  axis2.retry_on_reset = true;
  axis2.retry_on_timeout = true;
  axis2.downgrade_on_version_mismatch = true;
  table.push_back({"Apache Axis2", axis2});

  ResiliencePolicy cxf;
  cxf.max_retries = 2;
  cxf.base_backoff_ms = 50;
  cxf.max_backoff_ms = 1000;
  cxf.attempt_timeout_ms = 3000;
  cxf.call_budget_ms = 12000;
  cxf.retry_on_reset = true;
  cxf.retry_on_timeout = true;
  cxf.retry_on_malformed_response = true;
  cxf.retry_on_status = {502, 503};
  cxf.retransmit_after_server_execution = false;  // idempotency gate
  cxf.downgrade_on_version_mismatch = true;
  table.push_back({"Apache CXF", cxf});

  ResiliencePolicy jbossws;
  jbossws.max_retries = 1;
  jbossws.attempt_timeout_ms = 2000;
  jbossws.call_budget_ms = 8000;
  jbossws.retry_on_reset = true;
  table.push_back({"JBossWS", jbossws});

  ResiliencePolicy dotnet;
  dotnet.max_retries = 3;
  dotnet.base_backoff_ms = 200;
  dotnet.max_backoff_ms = 4000;
  dotnet.jitter_ms = 100;
  dotnet.attempt_timeout_ms = 3000;
  dotnet.call_budget_ms = 20000;
  dotnet.retry_on_reset = true;
  dotnet.retry_on_status = {503};
  dotnet.retransmit_after_server_execution = false;  // idempotency gate
  dotnet.downgrade_on_version_mismatch = true;
  table.push_back({".NET Framework", dotnet});

  ResiliencePolicy gsoap;
  gsoap.attempt_timeout_ms = 3000;
  gsoap.call_budget_ms = 6000;
  gsoap.abort_on_first_wire_fault = true;
  table.push_back({"gSOAP", gsoap});

  ResiliencePolicy zend;
  zend.attempt_timeout_ms = 2000;
  zend.call_budget_ms = 4000;
  table.push_back({"Zend", zend});

  ResiliencePolicy suds;
  suds.attempt_timeout_ms = 30000;
  suds.call_budget_ms = 30000;
  table.push_back({"suds", suds});

  return table;
}

}  // namespace

ResiliencePolicy policy_for(std::string_view client_name) {
  for (const NamedPolicy& entry : policy_table()) {
    if (starts_with(client_name, entry.prefix)) return entry.policy;
  }
  return {};  // conservative default: no retries, fail on first fault class
}

std::string format_policy_table() {
  std::ostringstream out;
  out << "| client family | retries | backoff (base/max+jitter ms) | attempt timeout | "
         "budget | retries on | idempotency gate | aborts on first fault | downgrades |\n";
  out << "|---|---|---|---|---|---|---|---|---|\n";
  for (const NamedPolicy& entry : policy_table()) {
    const ResiliencePolicy& p = entry.policy;
    out << "| " << entry.prefix << " | " << p.max_retries << " | " << p.base_backoff_ms
        << "/" << p.max_backoff_ms << "+" << p.jitter_ms << " | " << p.attempt_timeout_ms
        << " | " << p.call_budget_ms << " | ";
    std::vector<std::string> retries;
    if (p.retry_on_reset) retries.push_back("reset");
    if (p.retry_on_timeout) retries.push_back("timeout");
    if (p.retry_on_malformed_response) retries.push_back("malformed");
    for (const int status : p.retry_on_status) retries.push_back(std::to_string(status));
    out << (retries.empty() ? "—" : join(retries, "+")) << " | "
        << (p.retransmit_after_server_execution ? "off" : "on") << " | "
        << (p.abort_on_first_wire_fault ? "yes" : "no") << " | "
        << (p.downgrade_on_version_mismatch ? "yes" : "no") << " |\n";
  }
  return out.str();
}

CircuitBreaker::State CircuitBreaker::state(std::uint64_t now_ms) const {
  if (!open_) return State::kClosed;
  return now_ms >= opened_at_ms_ + settings_.open_ms ? State::kHalfOpen : State::kOpen;
}

bool CircuitBreaker::allows(std::uint64_t now_ms) const {
  return state(now_ms) != State::kOpen;
}

void CircuitBreaker::record_success(std::uint64_t now_ms) {
  (void)now_ms;
  open_ = false;
  consecutive_failures_ = 0;
}

void CircuitBreaker::record_failure(std::uint64_t now_ms) {
  if (open_) {
    if (state(now_ms) == State::kHalfOpen) {
      // The half-open probe failed: re-open for another cooldown.
      opened_at_ms_ = now_ms;
      ++trips_;
    }
    return;
  }
  ++consecutive_failures_;
  if (consecutive_failures_ >= settings_.failure_threshold) {
    open_ = true;
    opened_at_ms_ = now_ms;
    ++trips_;
  }
}

void CircuitBreaker::export_state(obs::Registry& registry, std::string_view prefix,
                                  std::uint64_t now_ms) const {
  const std::string base(prefix);
  registry.gauge(base + ".state").set(static_cast<std::int64_t>(state(now_ms)));
  registry.gauge(base + ".trips").set(static_cast<std::int64_t>(trips_));
  registry.gauge(base + ".consecutive_failures")
      .set(static_cast<std::int64_t>(consecutive_failures_));
}

}  // namespace wsx::chaos
