// campaign.hpp — the chaos campaign: every surviving (service, client)
// pair driven over the faulty wire under each client's resilience policy.
//
// The wire-fault extension of the communication study: instead of asking
// "does the call succeed on a perfect wire", the campaign asks "does the
// client stack recover when the wire misbehaves". Each logical call runs
// through the shared invocation pipeline (frameworks/invocation.*), the
// FaultyWire perturbs delivery attempts per the FaultPlan, and the
// client's ResiliencePolicy plus a per-endpoint circuit breaker decide
// what happens next — all on the virtual clock, so a run is byte-for-byte
// reproducible at any worker count. With a zero fault rate the campaign
// degenerates to the communication study and must match its success
// counts exactly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "chaos/fault.hpp"
#include "chaos/policy.hpp"
#include "frameworks/version_policy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "soap/version.hpp"

namespace wsx::compilers {
class Compiler;
}  // namespace wsx::compilers

namespace wsx::frameworks {
class ClientFramework;
class ServerFramework;
class SharedDescription;
struct DeployedService;
}  // namespace wsx::frameworks

namespace wsx::chaos {

class FaultyWire;

/// How one logical call ended, resilience included.
enum class ChaosOutcome {
  kBlockedEarlier,    ///< steps 1–3 failed or the proxy is method-less —
                      ///< the call never reaches the wire
  kOk,                ///< succeeded on the first attempt
  kRecovered,         ///< succeeded after at least one retransmit
  kDegradedOk,        ///< succeeded, but the sniffer flagged duplicate
                      ///< server-side effects (replay or blind retransmit)
  kAppFailure,        ///< SOAP-level failure on a clean attempt — not the
                      ///< wire's doing (faults, mismatches, SOAPAction)
  kExhaustedRetries,  ///< the policy retried and ran out of allowance
  kFailedFast,        ///< the policy (or the circuit breaker, or the
                      ///< idempotency gate) aborted without retransmitting
  kHung,              ///< still waiting when the call budget ran out
  kTimedOut,          ///< the supervisor's per-task deadline aborted the
                      ///< chain before this call ran (resilience layer;
                      ///< only with --task-deadline-ms)
  kVersionMismatch,   ///< the endpoint rejected the call's version shape
                      ///< (VersionMismatch/MustUnderstand fault or HTTP
                      ///< 415) on a clean attempt and the client's policy
                      ///< has no downgrade path — a pure policy mismatch,
                      ///< not the wire's doing
  kDowngraded,        ///< succeeded after retransmitting the 1.1-coherent
                      ///< downgrade form of the call (counts as a success)
};
inline constexpr std::size_t kChaosOutcomeCount = 11;

const char* to_string(ChaosOutcome outcome);

/// Per client, per server: outcomes across all deployed services.
struct ChaosCell {
  std::string client;
  std::array<std::size_t, kChaosOutcomeCount> outcomes{};
  std::size_t retransmits = 0;       ///< total retransmits performed
  std::size_t faulted_attempts = 0;  ///< delivery attempts that hit a fault
  std::size_t challenged = 0;        ///< calls that saw >= 1 injected fault
  std::size_t challenged_ok = 0;     ///< challenged calls that still succeeded
  std::size_t breaker_trips = 0;     ///< circuit-breaker open transitions
  std::uint64_t virtual_ms = 0;      ///< virtual time consumed by this cell

  std::size_t count(ChaosOutcome outcome) const {
    return outcomes[static_cast<std::size_t>(outcome)];
  }
  std::size_t attempted() const;  ///< everything except kBlockedEarlier
  std::size_t succeeded() const;  ///< kOk + kRecovered + kDegradedOk + kDowngraded
  /// Share of fault-challenged calls that still succeeded, in percent.
  double recovery_rate() const;
};

struct ChaosServerResult {
  /// The round label: the server name, or "Server [policy]" under the
  /// --versions axis (one round per server × policy).
  std::string server;
  std::size_t services_deployed = 0;
  std::vector<ChaosCell> cells;
};

struct ChaosResult {
  FaultPlan plan;
  std::size_t calls_per_pair = 1;
  std::vector<ChaosServerResult> servers;

  std::size_t total(ChaosOutcome outcome) const;
  std::size_t total_attempted() const;
  std::size_t total_challenged() const;
  std::size_t total_challenged_ok() const;
};

struct ChaosConfig {
  catalog::JavaCatalogSpec java_spec;      ///< defaults: the paper's population
  catalog::DotNetCatalogSpec dotnet_spec;  ///< defaults: the paper's population
  FaultPlan plan;
  BreakerSettings breaker;
  /// Logical calls per surviving (service, client) pair. The virtual clock
  /// and circuit breaker persist across a pair's calls, so bursts on an
  /// early call can fail-fast later ones.
  std::size_t calls_per_pair = 1;
  std::size_t jobs = 0;  ///< worker threads; 0 = hardware concurrency

  /// The mixed-version axis: when non-empty, every server runs one round
  /// per listed policy (overriding its documented version policy), and each
  /// client dresses its calls in the hybrid profile its own documented
  /// policy implies (frameworks::profile_for). Empty = the classic campaign
  /// (every call pure 1.1, every server on its documented policy).
  std::vector<frameworks::VersionPolicy> versions;

  /// Observability sinks, both optional (null = off). Spans: run → round
  /// (per server) → phase → cell; metrics use the "chaos." prefix.
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

/// Runs the chaos campaign: run_chaos_supervised with no journal. Output
/// is a pure function of the config — identical for every `jobs` value.
/// Throws std::runtime_error naming a task that failed on every attempt.
ChaosResult run_chaos_study(const ChaosConfig& config = {});

/// Everything one client chain contributes to its (server, client) cell:
/// calls_per_pair logical calls against one endpoint over a persistent
/// virtual clock and circuit breaker. A chaos task runs one chain per
/// client against its service and journals their deltas.
struct ChainDelta {
  std::array<std::size_t, kChaosOutcomeCount> outcomes{};
  std::size_t retransmits = 0;
  std::size_t faulted_attempts = 0;
  std::size_t challenged = 0;
  std::size_t challenged_ok = 0;
  std::size_t breaker_trips = 0;
  std::uint64_t virtual_ms = 0;
};

/// Runs one chain. `description` is the service's shared parse and must
/// not be null; `compiler` is null for dynamic clients. Pure in its inputs
/// — the determinism guarantee of the chaos study rests on it.
/// `profile` is the hybrid dressing the client puts on its calls (kPure11
/// outside the --versions axis); `round_label` scopes the chain's call ids
/// (empty = the server name) so each versions round draws an independent
/// fault schedule.
ChainDelta run_chaos_chain(const FaultyWire& wire,
                           const frameworks::ServerFramework& server,
                           const frameworks::DeployedService& service,
                           const frameworks::SharedDescription* description,
                           const frameworks::ClientFramework& client,
                           const compilers::Compiler* compiler,
                           const ResiliencePolicy& policy, const ChaosConfig& config,
                           soap::HybridProfile profile = soap::HybridProfile::kPure11,
                           std::string_view round_label = {});

/// Human-readable per-server matrix.
std::string format_chaos(const ChaosResult& result);

/// Per-client resilience matrix as a Markdown table (aggregated over
/// servers).
std::string chaos_markdown(const ChaosResult& result);

/// Machine-readable form, one row per (server, client) cell.
std::string chaos_csv(const ChaosResult& result);

/// Per-client recovery rates as JSON (the BENCH_chaos.json payload).
std::string chaos_recovery_json(const ChaosResult& result);

}  // namespace wsx::chaos
