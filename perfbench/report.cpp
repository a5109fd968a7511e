#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

Percentile select_percentile(std::vector<double> samples, double q) {
  Percentile result;
  result.samples = samples.size();
  if (samples.empty()) return result;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank, 1-based: the smallest rank whose share reaches q. The
  // epsilon keeps q·n = 990.0000001 (binary rounding) from skipping a rank.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  result.value = samples[rank - 1];
  result.beyond = samples.size() - rank;
  result.supported = result.beyond >= kMinSamplesBeyond;
  return result;
}

double median(std::vector<double> samples) {
  return select_percentile(std::move(samples), 0.5).value;
}

void Tally::fail(std::string_view reason) {
  ++attempted;
  ++failed;
  ++failures[std::string(reason)];
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [reason, count] : other.failures) failures[reason] += count;
}

double Tally::error_rate() const {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

std::string check_response(const wsx::serve::Response& response,
                           std::string_view reference_body) {
  if (response.status != wsx::serve::StatusCode::kOk) {
    return std::string("status:") + wsx::serve::to_string(response.status);
  }
  if (response.body != reference_body) return "body-mismatch";
  return "";
}

namespace {

/// First line of a small kernel file, or "" when it cannot be read.
std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// CPU quota ÷ period from cgroup v2 ("max 100000" or "200000 100000"),
/// falling back to cgroup v1's cfs files; 0 when neither limits the CPU.
double cgroup_cpu_quota() {
  const std::string v2 = read_first_line("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) {
    std::istringstream fields(v2);
    std::string quota;
    double period = 0.0;
    fields >> quota >> period;
    if (quota == "max" || period <= 0.0) return 0.0;
    try {
      return std::stod(quota) / period;
    } catch (...) {
      return 0.0;
    }
  }
  const std::string quota = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  const std::string period = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  try {
    const double q = quota.empty() ? -1.0 : std::stod(quota);
    const double p = period.empty() ? 0.0 : std::stod(period);
    return q > 0.0 && p > 0.0 ? q / p : 0.0;
  } catch (...) {
    return 0.0;
  }
}

}  // namespace

std::size_t effective_cpus(std::size_t affinity_cpus, double cgroup_cpus) {
  std::size_t cpus = std::max<std::size_t>(1, affinity_cpus);
  if (cgroup_cpus > 0.0) {
    cpus = std::min(cpus, std::max<std::size_t>(
                              1, static_cast<std::size_t>(std::ceil(cgroup_cpus - 1e-9))));
  }
  return cpus;
}

Environment probe_environment() {
  Environment env;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    env.affinity_cpus = static_cast<std::size_t>(CPU_COUNT(&mask));
  }
  env.cgroup_cpus = cgroup_cpu_quota();
  env.effective_cpus = effective_cpus(env.affinity_cpus, env.cgroup_cpus);
  env.build_type = PERFBENCH_BUILD_TYPE;
  env.build_flags = PERFBENCH_BUILD_FLAGS;
  env.compiler = PERFBENCH_COMPILER;
  return env;
}

std::string environment_json(const Environment& env) {
  return wsx::json::ObjectWriter{}
      .field("affinity_cpus", env.affinity_cpus)
      .field("cgroup_cpus", env.cgroup_cpus)
      .field("effective_cpus", env.effective_cpus)
      .field("build_type", env.build_type)
      .field("build_flags", env.build_flags)
      .field("compiler", env.compiler)
      .field("commit", env.commit)
      .field("source_digest", env.source_digest)
      .str();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string result_json(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  // Values keep every digit (%.17g): a time that printed identically on
  // every run would be indistinguishable from a constant.
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
