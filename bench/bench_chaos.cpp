// bench_chaos — the wire-fault resilience study (experiment X5). Runs the
// chaos campaign in two phases and emits BENCH_chaos.json so the robustness
// trajectory is machine-readable across commits:
//
//   classic       the default plan (all fault kinds, documented per-server
//                 version policies, pure-1.1 traffic)
//   version_skew  the --versions axis: one round per server under each of
//                 strict/relaxed/shaded while clients dress their calls per
//                 their own documented policy — the downgrade-recovery and
//                 version-mismatch numbers come from this phase
//
// Every number lives on the virtual clock, so the report is byte-
// deterministic at any worker count and the CI gate can run with
// --tolerance 0: any drift is a behaviour change, not runner noise — an
// unexplained improvement is as suspicious as a regression. With --check
// BASELINE.json the run compares each scalar against the committed
// baseline and exits 1 when it drifts past --tolerance percent in either
// direction. Refresh the baseline with:
//   bench_chaos --scale 25 --out bench/baselines/BENCH_chaos.json
//
//   bench_chaos [--scale PCT] [--jobs N] [--out FILE.json]
//               [--check BASELINE.json] [--tolerance PCT]
#include <cmath>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/policy.hpp"
#include "frameworks/version_policy.hpp"
#include "harness.hpp"

namespace {

using namespace wsx;

/// One phase's scalars. Every chaos number is virtual-clock deterministic,
/// so the gate compares each for drift in either direction.
void tally(const chaos::ChaosResult& result, const std::string& prefix,
           std::vector<bench::Measurement>& out) {
  std::size_t challenged = 0;
  std::size_t challenged_ok = 0;
  std::size_t downgraded = 0;
  std::size_t version_mismatch = 0;
  std::size_t retransmits = 0;
  std::size_t breaker_trips = 0;
  for (const chaos::ChaosServerResult& server : result.servers) {
    for (const chaos::ChaosCell& cell : server.cells) {
      challenged += cell.challenged;
      challenged_ok += cell.challenged_ok;
      downgraded += cell.count(chaos::ChaosOutcome::kDowngraded);
      version_mismatch += cell.count(chaos::ChaosOutcome::kVersionMismatch);
      retransmits += cell.retransmits;
      breaker_trips += cell.breaker_trips;
    }
  }
  const auto add = [&](const char* name, double value) {
    out.push_back({prefix + name, value, bench::Better::kEither});
  };
  add("_attempted", static_cast<double>(result.total_attempted()));
  add("_challenged", static_cast<double>(challenged));
  add("_challenged_ok", static_cast<double>(challenged_ok));
  add("_downgraded", static_cast<double>(downgraded));
  add("_version_mismatch", static_cast<double>(version_mismatch));
  add("_retransmits", static_cast<double>(retransmits));
  add("_breaker_trips", static_cast<double>(breaker_trips));
  // Basis points rather than a raw percentage: integral values round-trip
  // through the JSON baseline exactly, which the --tolerance 0 gate needs.
  const double rate = challenged == 0 ? 0.0
                                      : 100.0 * static_cast<double>(challenged_ok) /
                                            static_cast<double>(challenged);
  add("_recovery_rate_bp", std::round(rate * 100.0));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Gate gate("chaos", /*scale=*/100, /*tolerance=*/0);
  std::size_t jobs = 0;  // hardware concurrency; the result is jobs-independent
  if (!gate.parse(argc, argv, {{"--scale", &gate.scale, nullptr, /*nonzero=*/true},
                               {"--jobs", &jobs}},
                  "usage: bench_chaos [--scale PCT] [--jobs N] [--out FILE.json] "
                  "[--check BASELINE.json] [--tolerance PCT]\n")) {
    return 2;
  }

  chaos::ChaosConfig config;
  config.jobs = jobs;
  config.java_spec = catalog::scaled(config.java_spec, gate.scale);
  config.dotnet_spec = catalog::scaled(config.dotnet_spec, gate.scale);

  const chaos::ChaosResult classic = chaos::run_chaos_study(config);
  std::cout << chaos::format_chaos(classic) << "\n";
  std::cout << chaos::format_policy_table() << "\n";

  chaos::ChaosConfig skew_config = config;
  skew_config.versions = {frameworks::VersionPolicy::kStrict,
                          frameworks::VersionPolicy::kRelaxed,
                          frameworks::VersionPolicy::kShadedCxf};
  const chaos::ChaosResult skew = chaos::run_chaos_study(skew_config);

  tally(classic, "classic", gate.measurements);
  tally(skew, "skew", gate.measurements);

  json::ObjectWriter doc = bench::report(gate.name, gate.scale);
  doc.raw_field("classic", chaos::chaos_recovery_json(classic));
  doc.raw_field("version_skew", chaos::chaos_recovery_json(skew));
  return gate.finish(doc, "chaos: two phases -> " + gate.out_path);
}
