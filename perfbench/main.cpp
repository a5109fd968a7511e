// main.cpp — the benchmark's command line.
//
//   wsx_perfbench --workload study|chaos|serve_query|serve_lint --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//                 [--commit C] [--source-digest D]
//
// Prints the environment, every metric by name with its unit, and notes
// (digests, sample counts, unavailable layers); the last line of standard
// output is the JSON result. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones.
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Campaign workers and serve clients: the measured effective parallelism,
/// capped so every workload runs the same worker count on larger boxes.
constexpr std::size_t kMaxWorkers = 4;

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, as BENCHMARK.json lists them.
const std::vector<LayerMetric>& per_layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"catalog.build_ms", "ms"},
      {"frameworks.deploy_us", "us"},
      {"frameworks.deploy_refusals", "count"},
      {"frameworks.describe_us", "us"},
      {"xml.parse_ns_per_byte", "ns/B"},
      {"wsdl.parse_ns_per_byte", "ns/B"},
      {"wsi.check_us", "us"},
      {"xml.served_bytes", "B"},
      {"frameworks.generate_us", "us"},
      {"compilers.compile_us", "us"},
      {"compilers.instantiate_us", "us"},
      {"frameworks.artifact_ratio", "ratio"},
      {"interop.deploy_phase_ms", "ms"},
      {"interop.describe_phase_ms", "ms"},
      {"interop.testing_phase_ms", "ms"},
      {"interop.worker_idle_share", "ratio"},
      {"soap.build_ns_per_byte", "ns/B"},
      {"soap.parse_ns_per_byte", "ns/B"},
      {"soap.sniff_ns_per_byte", "ns/B"},
      {"soap.envelope_bytes", "B"},
      {"chaos.chain_us", "us"},
      {"chaos.calls", "count"},
      {"chaos.delivery_attempts", "count"},
      {"chaos.retransmits", "count"},
      {"chaos.faulted_attempts", "count"},
      {"chaos.breaker_trips", "count"},
      {"chaos.recovery_ratio", "ratio"},
      {"chaos.success_ratio", "ratio"},
      {"analysis.precompute_s", "s"},
      {"analysis.index_ms", "ms"},
      {"analysis.analyze_us", "us"},
      {"analysis.findings", "count"},
      {"serve.frame_ns", "ns"},
      {"serve.decode_ns", "ns"},
      {"serve.admission_ns", "ns"},
      {"serve.lookup_us.verdict", "us"},
      {"serve.lookup_us.explain", "us"},
      {"serve.lookup_us.substitute", "us"},
      {"serve.encode_ns", "ns"},
      {"serve.handle_us.verdict", "us"},
      {"serve.handle_us.explain", "us"},
      {"serve.handle_us.substitute", "us"},
      {"serve.handle_us.lint", "us"},
      {"serve.lint_wait_us", "us"},
      {"serve.status.ok", "count"},
      {"serve.status.shedded", "count"},
      {"serve.status.deadline-exceeded", "count"},
      {"serve.status.circuit-open", "count"},
      {"serve.status.quarantined", "count"},
      {"serve.status.not-found", "count"},
      {"serve.status.bad-request", "count"},
      {"obs.sink_overhead", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return metrics;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// Why a per-layer metric has no value on a workload (it reads 0 there).
std::string unavailable_reason(std::string_view workload, std::string_view metric) {
  const bool campaign = workload == "study" || workload == "chaos";
  if (starts_with(metric, "serve.") || starts_with(metric, "analysis.")) {
    return campaign ? "the workload runs no serve daemon" : "no oracle lookups on this workload";
  }
  if (starts_with(metric, "chaos.")) return "no wire calls on this workload";
  if (metric == "obs.sink_overhead") return "measured on the study workload";
  if (metric == "wsi.check_us") return "this workload's descriptions carry no WS-I verdict";
  if (starts_with(metric, "frameworks.generate") || starts_with(metric, "compilers.") ||
      metric == "frameworks.artifact_ratio") {
    return workload == "chaos"
               ? "generation and compilation run inside run_chaos_chain, not timed apart"
               : "the oracle predicts statically; no client generation runs";
  }
  if (starts_with(metric, "interop.")) return "no campaign pass on this workload";
  if (starts_with(metric, "soap.")) return "no envelopes on this workload";
  return "not on this workload's path";
}

bool parse_unsigned(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 19) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

int usage(const std::string& problem) {
  std::cerr << "wsx_perfbench: " << problem << "\n"
            << "usage: wsx_perfbench --workload study|chaos|serve_query|serve_lint --seed N\n"
               "                     --seconds S --trace 0|1 [--out-dir DIR]\n"
               "                     [--commit C] [--source-digest D]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  Environment env = probe_environment();
  bool have_seed = false;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) return usage("missing value after " + flag);
    const std::string& value = args[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && parse_unsigned(value, number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_unsigned(value, number) && number >= 1 &&
               number <= 600) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--commit") {
      env.commit = value;
    } else if (flag == "--source-digest") {
      env.source_digest = value;
    } else {
      return usage("bad flag or value: " + flag + " " + value);
    }
  }
  const std::map<std::string, std::function<RunResult(const RunOptions&)>> workloads = {
      {"study", run_study_workload},
      {"chaos", run_chaos_workload},
      {"serve_query", run_serve_query_workload},
      {"serve_lint", run_serve_lint_workload},
  };
  const auto found = workloads.find(workload);
  if (found == workloads.end()) return usage("unknown workload '" + workload + "'");
  if (!have_seed) return usage("--seed is required");

  options.workers = std::min(env.effective_cpus, kMaxWorkers);

  RunResult result;
  try {
    result = found->second(options);
  } catch (const std::exception& error) {
    std::cerr << "wsx_perfbench: " << workload << " failed: " << error.what() << "\n";
    return 1;
  }

  if (options.trace) {
    // Every per-layer metric, in the listed order; one the workload does
    // not reach reads 0 and says why.
    std::vector<Metric> ordered;
    for (const LayerMetric& layer : per_layer_metrics()) {
      Metric metric{layer.name, 0.0, layer.unit};
      bool measured = false;
      for (const Metric& candidate : result.metrics) {
        if (candidate.name == layer.name) {
          metric.value = candidate.value;
          measured = true;
        }
      }
      if (!measured) {
        result.notes.emplace_back(std::string("unavailable.") + layer.name,
                                  unavailable_reason(workload, layer.name));
      }
      ordered.push_back(std::move(metric));
    }
    result.metrics = std::move(ordered);
  }

  std::cout << "environment " << environment_json(env) << "\n";
  std::cout << "run workload=" << workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << (options.trace ? 1 : 0)
            << " scale=" << options.scale_percent << "% workers=" << options.workers << "\n";
  for (const Metric& metric : result.metrics) {
    std::cout << "metric " << metric.name << " = " << metric.value << " " << metric.unit << "\n";
  }
  std::cout << "metric error_rate = " << result.tally.error_rate() << " ratio ("
            << result.tally.failed << " failed of " << result.tally.attempted << ")\n";
  for (const auto& [reason, count] : result.tally.failures) {
    std::cout << "failure " << reason << ": " << count << "\n";
  }
  for (const auto& [key, value] : result.notes) std::cout << "note " << key << ": " << value << "\n";
  std::cout << result_json(result.correct && result.tally.failed == 0, result.tally,
                           result.metrics)
            << std::endl;
  return 0;
}
