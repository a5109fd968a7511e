// supervised.hpp — the chaos engine, run under the resilience supervisor
// (src/resilience/supervisor.hpp).
//
// One task per bindable service of each round deploys the service, builds
// its shared description and runs every client's chain against it,
// charging each chain's virtual milliseconds against the supervisor's
// per-task deadline. All rounds' tasks share one supervise() call and fold
// in task order. A deadline-quarantined service is not silently dropped:
// every client cell of that service folds as the kTimedOut chaos outcome
// (calls_per_pair calls each), so the resilience matrix still accounts for
// the full call population. run_chaos_study is this engine with no journal.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "chaos/campaign.hpp"
#include "common/codec.hpp"
#include "common/result.hpp"
#include "resilience/supervisor.hpp"

namespace wsx::chaos {

/// Canonical config fingerprint for the chaos campaign, and its inverse
/// (used by `wsinterop resume`). Round-trips byte-identically through
/// json::parse + to_text; jobs/sinks are deliberately excluded.
std::string chaos_config_json(const ChaosConfig& config);
Result<ChaosConfig> chaos_config_from_json(std::string_view text);

template <class V>
void fields(V& v, ChainDelta& delta) {
  v("o", delta.outcomes);
  v("rt", delta.retransmits);
  v("fa", delta.faulted_attempts);
  v("ch", delta.challenged);
  v("cok", delta.challenged_ok);
  v("bt", delta.breaker_trips);
  v("vms", delta.virtual_ms);
}

/// A chaos task's journal record: one chain delta per client, read and
/// written in place in the task's slots; none when deploy() refused the
/// service.
struct ChaosRecord {
  std::span<ChainDelta> clients;
};

template <class V>
void fields(V& v, ChaosRecord& record) {
  v("clients", record.clients);
}

struct SupervisedChaosResult {
  ChaosResult chaos;
  resilience::SupervisorReport supervisor;
};

/// Runs the chaos campaign. A service counts as deployed unless its task
/// ran and deploy() refused it.
Result<SupervisedChaosResult> run_chaos_supervised(const ChaosConfig& config,
                                                   const resilience::Supervision& supervision);

}  // namespace wsx::chaos
