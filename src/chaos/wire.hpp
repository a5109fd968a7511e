// wire.hpp — the faulty wire: the HTTP wire model wrapped in a
// deterministic fault injector.
//
// FaultyWire sits between a client runtime and ServerFramework::handle_http
// and perturbs individual delivery attempts according to a CallSchedule:
// requests can be reset or lost, responses delayed, truncated, corrupted or
// replaced by intermediary errors, and headers dropped or duplicated in
// transit. Everything is virtual-time and seed-deterministic; the wire
// never sleeps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "chaos/fault.hpp"
#include "frameworks/server.hpp"
#include "soap/http.hpp"

namespace wsx::chaos {

/// Base latency of a clean exchange on the virtual clock.
inline constexpr std::uint64_t kBaseLatencyMs = 5;
/// Latency of a kSlowResponse delivery — longer than most stacks' read
/// timeouts, shorter than the patient ones'.
inline constexpr std::uint64_t kSlowLatencyMs = 2500;
/// "The answer never comes": larger than any policy's budget.
inline constexpr std::uint64_t kNeverMs = ~std::uint64_t{0};

/// What one delivery attempt looked like from the client's side.
struct WireAttempt {
  enum class Status {
    kDelivered,        ///< `response` holds what arrived (possibly mangled)
    kConnectionReset,  ///< connection torn down before any response
    kConnectTimeout,   ///< connection never established
    kReadTimeout,      ///< request delivered, response never arrived
  };
  Status status = Status::kDelivered;
  soap::HttpResponse response;            ///< valid iff kDelivered
  std::uint64_t latency_ms = kBaseLatencyMs;  ///< kNeverMs for timeouts
  /// Times the server actually executed the request during this attempt
  /// (0 for resets/intermediary errors, 2 for duplicate delivery). The
  /// resilience engine's idempotency gate and the duplicate-effect sniffer
  /// both key off this.
  unsigned server_executions = 0;
  std::optional<FaultKind> injected;      ///< the fault this attempt hit
};

/// Applies a response-body fault (truncation / byte corruption) to `body`.
/// Exposed so the fuzz-bridge tests can cross-check wire corruption against
/// the text-level WSDL mutation operators.
std::string apply_body_fault(FaultKind kind, std::string body, std::uint64_t salt);

class FaultyWire {
 public:
  FaultyWire(const frameworks::ServerFramework& server, FaultPlan plan)
      : server_(&server), plan_(std::move(plan)) {}

  const FaultPlan& plan() const { return plan_; }

  /// Overrides the server's documented version-validation policy for every
  /// delivery on this wire — the per-round knob of the `--versions` axis.
  void set_server_policy(frameworks::VersionPolicy policy) { server_policy_ = policy; }
  frameworks::VersionPolicy server_policy() const {
    return server_policy_.has_value() ? *server_policy_ : server_->version_policy();
  }

  /// Draws the deterministic schedule for one logical call.
  CallSchedule schedule(std::string_view call_id) const {
    return plan_call(plan_, call_id);
  }
  /// The same for call `call_no` of a chain whose ids share a prefix
  /// (call_id_prefix state).
  CallSchedule schedule(std::uint64_t prefix_state, std::size_t call_no) const {
    return plan_call(plan_, prefix_state, call_no);
  }

  /// Performs delivery attempt `attempt_no` of a call, injecting whatever
  /// the schedule dictates for that attempt. With `downgraded` set (the
  /// retransmit of a 1.1-coherent downgrade form), the version-skew fault
  /// kinds pass through clean: the downgrade handshake renegotiates the
  /// path around the skewing intermediary, which is precisely why the
  /// recovery works — every other fault kind still applies.
  WireAttempt attempt(const frameworks::DeployedService& service,
                      const soap::HttpRequest& request, const CallSchedule& schedule,
                      unsigned attempt_no, bool downgraded = false) const;

 private:
  const frameworks::ServerFramework* server_;
  FaultPlan plan_;
  std::optional<frameworks::VersionPolicy> server_policy_;
};

}  // namespace wsx::chaos
