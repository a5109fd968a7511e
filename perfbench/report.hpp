// report.hpp — what every workload reports: percentile selection, the
// failed ÷ attempted tally, the environment stamp and the result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

/// A percentile is only given when at least this many samples rank above
/// the selected one; below that the tail is one or two outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// One nearest-rank percentile of a sample, with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count
  std::size_t beyond = 0;   ///< samples ranked above the selected one
  bool supported = false;   ///< beyond >= kMinSamplesBeyond
};

/// Nearest-rank selection: the ceil(q·n)-th smallest sample, q in (0, 1].
/// An empty sample selects 0 and is never supported.
Percentile select_percentile(std::vector<double> samples, double q);

/// The nearest-rank median (q = 0.5); 0 for an empty sample.
double median(std::vector<double> samples);

/// Failed ÷ attempted accounting. Every operation a workload checks lands
/// here exactly once, as a pass or as a failure with its reason.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  ///< reason → count

  void pass() { ++attempted; }
  void fail(std::string_view reason);
  void merge(const Tally& other);
  double error_rate() const;
};

/// Why one serve response fails its check, or "" when it passes: anything
/// but `ok` (shed, deadline, not-found, ...) fails as "status:<status>", and
/// an `ok` whose body differs from the single-threaded reference answer
/// fails as "body-mismatch".
std::string check_response(const wsx::serve::Response& response,
                           std::string_view reference_body);

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Where a result was measured.
struct Environment {
  std::size_t affinity_cpus = 0;  ///< CPUs in this process's affinity mask
  double cgroup_cpus = 0.0;       ///< CPU quota ÷ period; 0 = no quota
  std::size_t effective_cpus = 1; ///< min(affinity, ceil(quota)), at least 1
  std::string build_type;
  std::string build_flags;  ///< optimisation flags the libraries were compiled with
  std::string compiler;
  /// Given on the command line (run.py computes them on every run), so a
  /// rebuilt binary never names an earlier build's code.
  std::string commit = "unknown";         ///< git HEAD of the checkout
  std::string source_digest = "unknown";  ///< SHA-256 prefix over the library sources
};

/// Reads the affinity mask and the cgroup (v2, then v1) CPU quota, and the
/// build type, flags and compiler compiled into the binary.
Environment probe_environment();

/// The effective CPU count for a cgroup quota and an affinity count.
std::size_t effective_cpus(std::size_t affinity_cpus, double cgroup_cpus);

/// The environment as one JSON object.
std::string environment_json(const Environment& env);

/// Process peak resident set size, in MB.
double peak_rss_mb();

/// The last line of a run: {"correct","attempted","failed","metrics"}.
std::string result_json(bool correct, const Tally& tally, const std::vector<Metric>& metrics);

}  // namespace perfbench
