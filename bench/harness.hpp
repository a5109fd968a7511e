// harness.hpp — the one harness of the bench gate binaries.
//
// bench_pipeline, bench_predict, bench_gen and bench_chaos each measure a
// list of named values, write them to BENCH_<name>.json and, with --check
// BASELINE.json, gate them against a committed baseline: each value may
// move up to --tolerance percent in its bad direction. This header holds
// what they share: one timer, one measurement type, one flag parser, one
// report writer and one gate. bench_study uses the parser and the writer.
//
// Every report is stamped with where it ran: `effective_cpus` (the
// affinity mask capped by the cgroup CPU quota) and `build_type`.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/strings.hpp"

#ifndef WSX_BENCH_BUILD_TYPE
#define WSX_BENCH_BUILD_TYPE ""
#endif

namespace wsx::bench {

/// Mean wall nanoseconds of one call of `work`: one warm-up call, then
/// doubling batches until a batch takes ~0.3 s.
template <typename Fn>
double time_ns(Fn&& work) {
  using clock = std::chrono::steady_clock;
  work();
  std::size_t batch = 1;
  for (;;) {
    const auto start = clock::now();
    for (std::size_t i = 0; i < batch; ++i) work();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start).count());
    if (ns >= 3e8 || batch >= (1u << 24)) return ns / static_cast<double>(batch);
    batch *= 2;
  }
}

/// Which way a measurement may move before the gate calls it a miss.
enum class Better {
  kLower,   ///< a cost: a rise past the tolerance is a regression
  kHigher,  ///< a rate: a drop past the tolerance is a regression
  kEither,  ///< a virtual-clock count: a move either way is a drift
};

struct Measurement {
  std::string name;
  double value = 0.0;
  Better better = Better::kLower;
};

/// One `--name VALUE` flag: a count read by parse_count into `count`
/// (`nonzero` refuses 0 too), or else text into `text`.
struct Flag {
  std::string_view name;
  std::size_t* count = nullptr;
  std::string* text = nullptr;
  bool nonzero = false;
};

/// Reads argv against `flags` (the first flag of a name wins). A count
/// that does not parse fails quietly; any other argument, or a flag without
/// its value, prints `usage`. Either failure means exit code 2.
inline bool parse_flags(int argc, char** argv, const std::vector<Flag>& flags,
                        std::string_view usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [arg](const Flag& f) { return f.name == arg; });
    if (flag == flags.end() || i + 1 >= argc) {
      std::cerr << usage;
      return false;
    }
    const std::string_view value = argv[++i];
    if (flag->count == nullptr) {
      *flag->text = value;
    } else if (!parse_count(value, *flag->count) || (flag->nonzero && *flag->count == 0)) {
      return false;
    }
  }
  return true;
}

/// The first line of a small kernel file, or "" when it cannot be read.
inline std::string first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// CPUs the cgroup quota allows, quota ÷ period: cgroup v2's cpu.max
/// ("max 100000" or "200000 100000"), else cgroup v1's cfs files; 0 when
/// neither limits the CPU.
inline double cgroup_cpus() {
  double quota = 0.0;
  double period = 0.0;
  std::istringstream v2(first_line("/sys/fs/cgroup/cpu.max"));
  std::string quota_text;
  if (v2 >> quota_text >> period) {
    if (quota_text == "max") return 0.0;
    std::istringstream(quota_text) >> quota;
  } else {
    std::istringstream(first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")) >> quota;
    std::istringstream(first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us")) >> period;
  }
  return quota > 0.0 && period > 0.0 ? quota / period : 0.0;
}

/// The CPUs this process can use: its affinity mask, capped by the cgroup
/// quota rounded up.
inline std::size_t effective_cpus() {
  std::size_t cpus = 1;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    cpus = std::max<std::size_t>(1, static_cast<std::size_t>(CPU_COUNT(&mask)));
  }
  const double quota = cgroup_cpus();
  if (quota > 0.0) {
    cpus = std::min(cpus,
                    std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(quota - 1e-9))));
  }
  return cpus;
}

/// A report's first members: the benchmark's name, its scale and the stamp.
inline json::ObjectWriter report(std::string_view benchmark, std::size_t scale) {
  json::ObjectWriter doc;
  doc.field("benchmark", benchmark)
      .field("scale_percent", scale)
      .field("effective_cpus", effective_cpus())
      .field("build_type", WSX_BENCH_BUILD_TYPE);
  return doc;
}

/// Writes `doc` to `path`; false after saying so on stderr as `binary`.
inline bool write_report(std::string_view binary, const std::string& path,
                         const json::ObjectWriter& doc) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << binary << ": cannot open " << path << "\n";
    return false;
  }
  out << doc.str() << "\n";
  return true;
}

/// The gate's misses against `baseline`, one line each: a measurement the
/// baseline lacks, or one past its limit, `tolerance` percent from the
/// baseline value in the measurement's bad direction (both directions for
/// Better::kEither). A value at its limit passes.
inline std::vector<std::string> gate(const std::vector<Measurement>& measurements,
                                     const json::Value& baseline, std::size_t tolerance) {
  const double slack = static_cast<double>(tolerance) / 100.0;
  std::vector<std::string> misses;
  for (const Measurement& m : measurements) {
    const json::Value* reference = baseline.find(m.name);
    std::ostringstream miss;
    if (reference == nullptr || !reference->is_number()) {
      miss << "baseline lacks " << m.name;
    } else if (m.better == Better::kEither) {
      const double ref = reference->as_number();
      const double allowed = std::abs(ref) * slack;
      if (std::abs(m.value - ref) <= allowed) continue;
      miss << "DRIFT " << m.name << " = " << m.value << " vs baseline " << ref << " (allowed ±"
           << allowed << ")";
    } else {
      const double ref = reference->as_number();
      const bool lower = m.better == Better::kLower;
      const double limit = lower ? ref * (1.0 + slack) : ref * (1.0 - slack);
      if (lower ? m.value <= limit : m.value >= limit) continue;
      miss << "REGRESSION " << m.name << " = " << m.value << " vs baseline " << ref
           << " (limit " << limit << ")";
    }
    misses.push_back(miss.str());
  }
  return misses;
}

/// A gate binary's shared flags, its measurements and its ending.
struct Gate {
  std::string name;        ///< "pipeline": bench_pipeline, BENCH_pipeline.json
  std::size_t scale;       ///< --scale PCT
  std::size_t tolerance;   ///< --tolerance PCT
  std::string out_path;    ///< --out FILE.json
  std::string check_path;  ///< --check BASELINE.json; "" = no gate
  std::vector<Measurement> measurements;

  Gate(std::string gate_name, std::size_t default_scale, std::size_t default_tolerance)
      : name(std::move(gate_name)),
        scale(default_scale),
        tolerance(default_tolerance),
        out_path("BENCH_" + name + ".json") {}

  /// parse_flags over `extra`, then --scale, --out, --check and
  /// --tolerance; a flag in `extra` shadows a shared one of its name.
  bool parse(int argc, char** argv, std::vector<Flag> extra, std::string_view usage) {
    extra.push_back({"--scale", &scale});
    extra.push_back({"--tolerance", &tolerance});
    extra.push_back({"--out", nullptr, &out_path});
    extra.push_back({"--check", nullptr, &check_path});
    return parse_flags(argc, argv, extra, usage);
  }

  /// Ends the run: adds every measurement to `doc`, writes it to out_path,
  /// prints each measurement and `summary`, then gates against check_path
  /// when one was given. Returns the exit code: 1 when the report cannot be
  /// written, the baseline cannot be read or the gate misses, else 0.
  int finish(json::ObjectWriter& doc, const std::string& summary) const {
    const std::string binary = "bench_" + name;
    for (const Measurement& m : measurements) doc.field(m.name, m.value);
    if (!write_report(binary, out_path, doc)) return 1;
    for (const Measurement& m : measurements) std::cout << m.name << " = " << m.value << "\n";
    std::cout << summary << "\n";
    if (check_path.empty()) return 0;

    std::ifstream file(check_path);
    if (!file) {
      std::cerr << binary << ": cannot open baseline " << check_path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    Result<json::Value> baseline = json::parse(buffer.str());
    if (!baseline.ok()) {
      std::cerr << binary << ": baseline: " << baseline.error().message << "\n";
      return 1;
    }
    const std::vector<std::string> misses = gate(measurements, *baseline, tolerance);
    for (const std::string& miss : misses) std::cerr << binary << ": " << miss << "\n";
    if (!misses.empty()) return 1;
    std::cout << name << ": within " << tolerance << "% of baseline\n";
    return 0;
  }
};

}  // namespace wsx::bench
