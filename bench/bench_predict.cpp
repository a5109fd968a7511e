// bench_predict — the static predictor + substitution index benchmark;
// emits BENCH_predict.json.
//
// Measures the cost of the static path that replaces a dynamic rescan:
//
//   predict_ns_per_service      predict_service_job (parse + fingerprint +
//                               rule evaluation) per deployed description
//   index_build_ns_per_service  folding a predicted corpus into the
//                               substitution index
//   index_parse_ns_per_service  reloading the serialized index
//   substitute_lookups_per_sec  ranked "replace Y for client X" queries
//                               against the loaded index
//
// With --check BASELINE.json the run compares itself against a committed
// baseline and exits 1 when any per-service cost regresses past
// --tolerance percent (or the query rate drops past it) — the CI gate.
//
//   bench_predict [--scale PCT] [--out FILE.json]
//                 [--check BASELINE.json] [--tolerance PCT]
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/predict.hpp"
#include "analysis/substitution.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"

namespace {

using namespace wsx;
using namespace wsx::analysis::predict;

/// Runs `work` repeatedly until ~0.3 s of wall time has accumulated and
/// returns the mean nanoseconds per call.
template <typename Fn>
double time_ns(Fn&& work) {
  using clock = std::chrono::steady_clock;
  work();
  std::size_t batch = 1;
  for (;;) {
    const auto start = clock::now();
    for (std::size_t i = 0; i < batch; ++i) work();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start)
            .count());
    if (ns >= 3e8 || batch >= (1u << 24)) return ns / static_cast<double>(batch);
    batch *= 2;
  }
}

struct Measurement {
  std::string name;
  double value = 0.0;
  /// true: smaller is better (ns/service); false: larger is better (rates).
  bool lower_is_better = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t scale = 20;
  std::size_t tolerance = 40;
  std::string out_path = "BENCH_predict.json";
  std::string check_path;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!parse_count(args[++i], scale)) return 2;
    } else if (args[i] == "--tolerance" && i + 1 < args.size()) {
      if (!parse_count(args[++i], tolerance)) return 2;
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--check" && i + 1 < args.size()) {
      check_path = args[++i];
    } else {
      std::cerr << "usage: bench_predict [--scale PCT] [--out FILE.json] "
                   "[--check BASELINE.json] [--tolerance PCT]\n";
      return 2;
    }
  }

  PredictOptions options;
  options.join_study = false;  // the dynamic study is bench_pipeline's subject
  options.java_spec = catalog::scaled(options.java_spec, scale);
  options.dotnet_spec = catalog::scaled(options.dotnet_spec, scale);

  // The deploy pass is the fixture, not the subject: the predictor's whole
  // point is to run without it on already-published descriptions.
  PredictReport report;
  const std::vector<analysis::LintJob> jobs = build_predict_corpus(options, report);
  if (jobs.empty()) {
    std::cerr << "bench_predict: empty corpus\n";
    return 1;
  }
  const double services = static_cast<double>(jobs.size());

  std::vector<Measurement> measurements;
  measurements.push_back({"predict_ns_per_service", time_ns([&] {
                            for (const analysis::LintJob& job : jobs) {
                              const ServicePredictionRecord record = predict_service_job(job);
                              if (record.prediction.clients.empty()) std::exit(1);
                            }
                          }) / services});

  report.services.clear();
  report.services.reserve(jobs.size());
  for (const analysis::LintJob& job : jobs) {
    report.services.push_back(predict_service_job(job));
  }
  finalize_predict_report(report, options);

  measurements.push_back({"index_build_ns_per_service", time_ns([&] {
                            const SubstitutionIndex built = build_index(report);
                            if (built.entries.size() != jobs.size()) std::exit(1);
                          }) / services});

  const SubstitutionIndex index = build_index(report);
  const std::string serialized = index_json(index);
  measurements.push_back({"index_parse_ns_per_service", time_ns([&] {
                            Result<SubstitutionIndex> loaded = index_from_json(serialized);
                            if (!loaded.ok()) std::exit(1);
                          }) / services});

  // Query mix: every client against a fixed target, round-robin — the
  // shape of an "is there a safer provider" dashboard refresh.
  SubstituteQuery query;
  query.service = index.entries.front().server + "/" + index.entries.front().service;
  query.top = 5;
  std::size_t next_client = 0;
  const double query_ns = time_ns([&] {
    query.client = index.clients[next_client];
    next_client = (next_client + 1) % index.clients.size();
    Result<std::vector<Candidate>> candidates = substitute(index, query);
    if (!candidates.ok()) std::exit(1);
  });
  measurements.push_back({"substitute_lookups_per_sec",
                          query_ns > 0.0 ? 1e9 / query_ns : 0.0,
                          /*lower_is_better=*/false});

  json::ObjectWriter doc;
  doc.field("benchmark", "predict");
  doc.field("scale_percent", scale);
  doc.field("services", jobs.size());
  for (const Measurement& m : measurements) doc.field(m.name, m.value);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_predict: cannot open " << out_path << "\n";
    return 1;
  }
  out << doc.str() << "\n";
  for (const Measurement& m : measurements) {
    std::cout << m.name << " = " << m.value << "\n";
  }
  std::cout << "predict: " << jobs.size() << " services -> " << out_path << "\n";

  if (check_path.empty()) return 0;

  // Regression gate: each measurement may drift up to `tolerance` percent
  // in its bad direction relative to the committed baseline.
  std::ifstream baseline_file(check_path);
  if (!baseline_file) {
    std::cerr << "bench_predict: cannot open baseline " << check_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << baseline_file.rdbuf();
  Result<json::Value> baseline = json::parse(buffer.str());
  if (!baseline.ok()) {
    std::cerr << "bench_predict: baseline: " << baseline.error().message << "\n";
    return 1;
  }
  const double slack = static_cast<double>(tolerance) / 100.0;
  bool regressed = false;
  for (const Measurement& m : measurements) {
    const json::Value* reference = baseline->find(m.name);
    if (reference == nullptr || !reference->is_number()) {
      std::cerr << "bench_predict: baseline lacks " << m.name << "\n";
      regressed = true;
      continue;
    }
    const double limit = m.lower_is_better ? reference->as_number() * (1.0 + slack)
                                           : reference->as_number() * (1.0 - slack);
    const bool bad = m.lower_is_better ? m.value > limit : m.value < limit;
    if (bad) {
      std::cerr << "bench_predict: REGRESSION " << m.name << " = " << m.value
                << " vs baseline " << reference->as_number() << " (limit " << limit
                << ")\n";
      regressed = true;
    }
  }
  if (!regressed) std::cout << "predict: within " << tolerance << "% of baseline\n";
  return regressed ? 1 : 0;
}
