// bench_predict — the static predictor + substitution index benchmark;
// emits BENCH_predict.json.
//
// Measures the cost of the static path that replaces a dynamic rescan:
//
//   predict_ns_per_service      predict_service_job (parse + fingerprint +
//                               rule evaluation) per deployed description of
//                               the corpus plan
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
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/predict.hpp"
#include "analysis/substitution.hpp"
#include "frameworks/registry.hpp"
#include "harness.hpp"

using namespace wsx;
using namespace wsx::analysis::predict;
using bench::time_ns;

int main(int argc, char** argv) {
  bench::Gate gate("predict", /*scale=*/20, /*tolerance=*/40);
  if (!gate.parse(argc, argv, {},
                  "usage: bench_predict [--scale PCT] [--out FILE.json] "
                  "[--check BASELINE.json] [--tolerance PCT]\n")) {
    return 2;
  }

  PredictOptions options;
  options.java_spec = catalog::scaled(options.java_spec, gate.scale);
  options.dotnet_spec = catalog::scaled(options.dotnet_spec, gate.scale);

  // Deploying the plan's services is the fixture, not the subject: the
  // predictor's whole point is to run without it on already-published
  // descriptions.
  const frameworks::Corpus corpus(options.java_spec, options.dotnet_spec, options.shape);
  std::vector<std::pair<std::string, frameworks::DeployedService>> deployed;
  for (std::size_t i = 0; i < corpus.plan.tasks.size(); ++i) {
    Result<frameworks::DeployedService> service = corpus.deploy(i);
    if (service.ok()) deployed.emplace_back(corpus.round(i).server->name(), std::move(*service));
  }
  if (deployed.empty()) {
    std::cerr << "bench_predict: empty corpus\n";
    return 1;
  }
  const double services = static_cast<double>(deployed.size());

  std::vector<bench::Measurement>& measurements = gate.measurements;
  measurements.push_back({"predict_ns_per_service", time_ns([&] {
                            for (const auto& [server, service] : deployed) {
                              const ServicePredictionRecord record =
                                  predict_service_job(server, service);
                              if (record.prediction.clients.empty()) std::exit(1);
                            }
                          }) / services});

  PredictReport report;
  report.services.reserve(deployed.size());
  for (const auto& [server, service] : deployed) {
    report.services.push_back(predict_service_job(server, service));
  }

  measurements.push_back({"index_build_ns_per_service", time_ns([&] {
                            const SubstitutionIndex built = build_index(report);
                            if (built.entries.size() != deployed.size()) std::exit(1);
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
  measurements.push_back({"substitute_lookups_per_sec", query_ns > 0.0 ? 1e9 / query_ns : 0.0,
                          bench::Better::kHigher});

  json::ObjectWriter doc = bench::report(gate.name, gate.scale);
  doc.field("services", deployed.size());
  return gate.finish(doc, "predict: " + std::to_string(deployed.size()) + " services -> " +
                              gate.out_path);
}
