// bench_gen — the WSDL-guided property-based generator benchmark; emits
// BENCH_gen.json.
//
// Measures the cost of the generative path the propcheck campaign adds in
// front of the communication phase:
//
//   value_gen_ns_per_value        drawing one random member of a builtin
//                                 lexical space, round-robin over all
//                                 builtins
//   corpus_gen_ns_per_case        compiling one schema-valid request from
//                                 a deployed description (wrapper
//                                 resolution + per-type draws)
//   validate_ns_per_case          re-checking one generated case against
//                                 the service's XSD contract
//   shrink_ns_per_counterexample  minimising one sabotaged failing case to
//                                 a local minimum under validate_case
//
// With --check BASELINE.json the run compares itself against a committed
// baseline and exits 1 when any per-unit cost regresses past --tolerance
// percent — the CI gate.
//
//   bench_gen [--scale PCT] [--out FILE.json]
//             [--check BASELINE.json] [--tolerance PCT]
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/java_catalog.hpp"
#include "frameworks/registry.hpp"
#include "gen/request_gen.hpp"
#include "gen/shrink.hpp"
#include "gen/value_gen.hpp"
#include "harness.hpp"

using namespace wsx;
using bench::time_ns;

int main(int argc, char** argv) {
  bench::Gate gate("gen", /*scale=*/100, /*tolerance=*/60);
  if (!gate.parse(argc, argv, {},
                  "usage: bench_gen [--scale PCT] [--out FILE.json] "
                  "[--check BASELINE.json] [--tolerance PCT]\n")) {
    return 2;
  }

  // The deploy pass is the fixture, not the subject: generation starts
  // from already-published descriptions.
  const catalog::TypeCatalog catalog =
      catalog::make_java_catalog(catalog::scaled(catalog::JavaCatalogSpec{}, gate.scale));
  const auto server = frameworks::make_server("Metro 2.3");
  std::vector<frameworks::DeployedService> services;
  for (const catalog::TypeInfo& type : catalog.types()) {
    Result<frameworks::DeployedService> deployed =
        server->deploy(frameworks::ServiceSpec{&type});
    if (deployed.ok()) services.push_back(std::move(deployed.value()));
  }
  if (services.empty()) {
    std::cerr << "bench_gen: empty corpus\n";
    return 1;
  }

  std::vector<bench::Measurement>& measurements = gate.measurements;

  // Value draws round-robin over every builtin's lexical space.
  const std::vector<xsd::Builtin> builtins = [] {
    std::vector<xsd::Builtin> all;
    for (int i = 0; i <= static_cast<int>(xsd::Builtin::kQNameType); ++i) {
      all.push_back(static_cast<xsd::Builtin>(i));
    }
    return all;
  }();
  gen::Rng value_rng(7, "bench|value");
  std::size_t next_builtin = 0;
  measurements.push_back({"value_gen_ns_per_value", time_ns([&] {
                            const std::string value =
                                gen::generate_value(builtins[next_builtin], value_rng);
                            next_builtin = (next_builtin + 1) % builtins.size();
                            if (value.size() > 4096) std::exit(1);
                          })});

  gen::CorpusOptions options;
  options.cases_per_operation = 2;
  std::vector<std::pair<const frameworks::DeployedService*, gen::GeneratedCase>> corpus;
  for (const frameworks::DeployedService& service : services) {
    for (gen::GeneratedCase& generated : gen::generate_corpus(service, options)) {
      corpus.emplace_back(&service, std::move(generated));
    }
  }
  if (corpus.empty()) {
    std::cerr << "bench_gen: no generated cases\n";
    return 1;
  }
  const double cases = static_cast<double>(corpus.size());

  measurements.push_back({"corpus_gen_ns_per_case", time_ns([&] {
                            std::size_t generated = 0;
                            for (const frameworks::DeployedService& service : services) {
                              generated += gen::generate_corpus(service, options).size();
                            }
                            if (generated != corpus.size()) std::exit(1);
                          }) / cases});

  measurements.push_back({"validate_ns_per_case", time_ns([&] {
                            for (const auto& [service, generated] : corpus) {
                              if (gen::validate_case(*service, generated)) std::exit(1);
                            }
                          }) / cases});

  // Shrinking starts from a sabotaged failing case: the same injected
  // schema-violation bug the propcheck test pack proves gets minimised.
  gen::CorpusOptions sabotage = options;
  sabotage.sabotage = true;
  const frameworks::DeployedService* failing_service = nullptr;
  gen::GeneratedCase failing;
  for (const frameworks::DeployedService& service : services) {
    for (gen::GeneratedCase& generated : gen::generate_corpus(service, sabotage)) {
      if (gen::validate_case(service, generated)) {
        failing_service = &service;
        failing = std::move(generated);
        break;
      }
    }
    if (failing_service != nullptr) break;
  }
  if (failing_service == nullptr) {
    std::cerr << "bench_gen: sabotage produced no failing case\n";
    return 1;
  }
  const gen::CaseFails fails = [&](const gen::GeneratedCase& candidate) {
    return gen::validate_case(*failing_service, candidate).has_value();
  };
  measurements.push_back({"shrink_ns_per_counterexample", time_ns([&] {
                            const gen::GeneratedCase minimal =
                                gen::shrink_case(failing, fails);
                            if (!fails(minimal)) std::exit(1);
                          })});

  json::ObjectWriter doc = bench::report(gate.name, gate.scale);
  doc.field("services", services.size());
  doc.field("cases", corpus.size());
  return gate.finish(doc, "gen: " + std::to_string(services.size()) + " services, " +
                              std::to_string(corpus.size()) + " cases -> " + gate.out_path);
}
