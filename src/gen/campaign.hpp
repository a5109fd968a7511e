// campaign.hpp — the propcheck campaign: WSDL-guided property-based
// testing of the communication phase. For every (server, service, client)
// pair it establishes the pair's baseline classification with the study's
// fixed echo probe, then replays the service's generated corpus through
// the exact same invocation pipeline and checks two properties:
//
//   1. validity  — every generated value is inside the contract's value
//      space (xsd::is_valid_value agrees with the generators);
//   2. stability — a schema-valid payload classifies exactly like the
//      baseline (payload content never changes the interop verdict).
//
// A violated property becomes a PropFailure carrying the offending payload
// and — when shrinking is on — a locally minimal counterexample plus a
// deterministic replay command.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/java_catalog.hpp"
#include "catalog/dotnet_catalog.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/client.hpp"
#include "frameworks/server.hpp"
#include "frameworks/shared_description.hpp"
#include "gen/request_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wsx::gen {

/// How one generated case resolved against its pair.
enum class PropOutcome {
  kBlocked,       ///< pair blocked before the wire — case never ran
  kPass,          ///< both properties held
  kSkipped,       ///< structured case on an uncommon-marshalling pair
  kInvalidValue,  ///< validity property violated (generator emitted outside the contract)
  kMismatch,      ///< stability property violated (classification drifted from baseline)
  kTimedOut,      ///< supervised run: the service's deadline quarantined the pair
};
inline constexpr std::size_t kPropOutcomeCount = 6;
const char* to_string(PropOutcome outcome);

/// One property violation, shrunk when shrinking is enabled.
struct PropFailure {
  std::string case_id;
  std::string kind;          ///< "invalid-value" | "mismatch"
  std::string detail;        ///< validator message / expected-vs-observed
  std::string payload;       ///< rendered offending payload
  std::string shrunk;        ///< rendered minimal counterexample ("" = not shrunk)
  std::size_t shrink_steps = 0;  ///< accepted shrink moves
  friend bool operator==(const PropFailure&, const PropFailure&) = default;
};

/// Everything one (service, client) pair contributes; a pure function of
/// (corpus, pair), so folding order never changes the result.
struct PairDelta {
  std::array<std::size_t, kPropOutcomeCount> outcomes{};
  std::vector<PropFailure> failures;
  std::uint64_t virtual_ms = 0;
};

struct PropCell {
  std::string client;
  std::array<std::size_t, kPropOutcomeCount> outcomes{};
  std::vector<PropFailure> failures;
  std::uint64_t virtual_ms = 0;

  std::size_t count(PropOutcome outcome) const {
    return outcomes[static_cast<std::size_t>(outcome)];
  }
};

struct PropServerResult {
  std::string server;
  std::size_t services_deployed = 0;
  std::size_t cases_generated = 0;  ///< corpus size across the server's services
  std::vector<PropCell> cells;
};

struct PropcheckResult {
  CorpusOptions corpus;
  bool shrink = true;
  std::vector<PropServerResult> servers;

  std::size_t total(PropOutcome outcome) const;
  std::size_t total_failures() const;
};

struct GenConfig {
  catalog::JavaCatalogSpec java_spec;
  catalog::DotNetCatalogSpec dotnet_spec;
  CorpusOptions corpus;
  bool shrink = true;
  std::size_t jobs = 0;  ///< 0 = hardware concurrency
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

/// Virtual cost charged per wire invocation (baseline + each case), the
/// chaos campaign's base latency.
inline constexpr std::uint64_t kCaseCostMs = 5;

/// Runs one pair: baseline probe, then the whole corpus, every call
/// against the service's shared parse `description`.
PairDelta run_propcheck_pair(const frameworks::ServerFramework& server,
                             const frameworks::DeployedService& service,
                             const frameworks::SharedDescription& description,
                             const std::vector<GeneratedCase>& corpus,
                             const frameworks::ClientFramework& client,
                             const compilers::Compiler* compiler, const GenConfig& config);

/// The full campaign: every server's catalog population, through
/// run_propcheck_supervised with no journal. Throws std::runtime_error
/// naming a task that failed on every attempt.
PropcheckResult run_propcheck(const GenConfig& config);

/// Plain-text matrix; `with_shrink` appends the counterexample report with
/// minimized payloads and replay commands.
std::string format_propcheck(const PropcheckResult& result, bool with_shrink);
/// Canonical JSON (byte-deterministic at any worker count).
std::string propcheck_json(const PropcheckResult& result);
/// The deterministic CLI invocation that reproduces this corpus.
std::string replay_command(const CorpusOptions& corpus);

}  // namespace wsx::gen
