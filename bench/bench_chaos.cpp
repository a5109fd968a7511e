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
// --tolerance 0: any drift is a behaviour change, not runner noise. With
// --check BASELINE.json the run compares each scalar against the committed
// baseline and exits 1 when it drifts past --tolerance percent in either
// direction. Refresh the baseline with:
//   bench_chaos --scale 25 --out bench/baselines/BENCH_chaos.json
//
//   bench_chaos [--scale PCT] [--jobs N] [--out FILE.json]
//               [--check BASELINE.json] [--tolerance PCT]
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/policy.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "frameworks/version_policy.hpp"

namespace {

using namespace wsx;

/// One scalar the baseline gate compares. All chaos numbers are virtual-
/// clock deterministic, so drift in either direction is a regression.
struct Measurement {
  std::string name;
  double value = 0.0;
};

void tally(const chaos::ChaosResult& result, const std::string& prefix,
           std::vector<Measurement>& out) {
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
  out.push_back({prefix + "_attempted", static_cast<double>(result.total_attempted())});
  out.push_back({prefix + "_challenged", static_cast<double>(challenged)});
  out.push_back({prefix + "_challenged_ok", static_cast<double>(challenged_ok)});
  out.push_back({prefix + "_downgraded", static_cast<double>(downgraded)});
  out.push_back({prefix + "_version_mismatch", static_cast<double>(version_mismatch)});
  out.push_back({prefix + "_retransmits", static_cast<double>(retransmits)});
  out.push_back({prefix + "_breaker_trips", static_cast<double>(breaker_trips)});
  // Basis points rather than a raw percentage: integral values round-trip
  // through the JSON baseline exactly, which the --tolerance 0 gate needs.
  const double rate = challenged == 0 ? 0.0
                                      : 100.0 * static_cast<double>(challenged_ok) /
                                            static_cast<double>(challenged);
  out.push_back({prefix + "_recovery_rate_bp", std::round(rate * 100.0)});
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t scale = 100;
  std::size_t jobs = 0;  // hardware concurrency; the result is jobs-independent
  std::size_t tolerance = 0;
  std::string out_path = "BENCH_chaos.json";
  std::string check_path;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!parse_count(args[++i], scale) || scale == 0) return 2;
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      if (!parse_count(args[++i], jobs)) return 2;
    } else if (args[i] == "--tolerance" && i + 1 < args.size()) {
      if (!parse_count(args[++i], tolerance)) return 2;
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--check" && i + 1 < args.size()) {
      check_path = args[++i];
    } else {
      std::cerr << "usage: bench_chaos [--scale PCT] [--jobs N] [--out FILE.json] "
                   "[--check BASELINE.json] [--tolerance PCT]\n";
      return 2;
    }
  }

  chaos::ChaosConfig config;
  config.jobs = jobs;
  config.java_spec = catalog::scaled(config.java_spec, scale);
  config.dotnet_spec = catalog::scaled(config.dotnet_spec, scale);

  const chaos::ChaosResult classic = chaos::run_chaos_study(config);
  std::cout << chaos::format_chaos(classic) << "\n";
  std::cout << chaos::format_policy_table() << "\n";

  chaos::ChaosConfig skew_config = config;
  skew_config.versions = {frameworks::VersionPolicy::kStrict,
                          frameworks::VersionPolicy::kRelaxed,
                          frameworks::VersionPolicy::kShadedCxf};
  const chaos::ChaosResult skew = chaos::run_chaos_study(skew_config);

  std::vector<Measurement> measurements;
  tally(classic, "classic", measurements);
  tally(skew, "skew", measurements);

  json::ObjectWriter doc;
  doc.field("benchmark", "chaos");
  doc.field("scale_percent", scale);
  for (const Measurement& m : measurements) doc.field(m.name, m.value);
  doc.raw_field("classic", chaos::chaos_recovery_json(classic));
  doc.raw_field("version_skew", chaos::chaos_recovery_json(skew));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_chaos: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << doc.str() << "\n";
  for (const Measurement& m : measurements) {
    std::cout << m.name << " = " << m.value << "\n";
  }
  std::cout << "chaos: two phases -> " << out_path << "\n";

  if (check_path.empty()) return 0;

  // Regression gate: every scalar must stay within `tolerance` percent of
  // the committed baseline in BOTH directions — the campaign is virtual-
  // clock deterministic, so an unexplained improvement is as suspicious as
  // a regression (it means the behaviour changed without a baseline
  // refresh).
  std::ifstream baseline_file(check_path);
  if (!baseline_file) {
    std::cerr << "bench_chaos: cannot open baseline " << check_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << baseline_file.rdbuf();
  Result<json::Value> baseline = json::parse(buffer.str());
  if (!baseline.ok()) {
    std::cerr << "bench_chaos: baseline: " << baseline.error().message << "\n";
    return 1;
  }
  const double slack = static_cast<double>(tolerance) / 100.0;
  bool drifted = false;
  for (const Measurement& m : measurements) {
    const json::Value* reference = baseline->find(m.name);
    if (reference == nullptr || !reference->is_number()) {
      std::cerr << "bench_chaos: baseline lacks " << m.name << "\n";
      drifted = true;
      continue;
    }
    const double ref = reference->as_number();
    const double allowed = std::abs(ref) * slack;
    if (std::abs(m.value - ref) > allowed) {
      std::cerr << "bench_chaos: DRIFT " << m.name << " = " << m.value
                << " vs baseline " << ref << " (allowed ±" << allowed << ")\n";
      drifted = true;
    }
  }
  if (!drifted) std::cout << "chaos: within " << tolerance << "% of baseline\n";
  return drifted ? 1 : 0;
}
