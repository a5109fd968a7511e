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
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/java_catalog.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "frameworks/registry.hpp"
#include "gen/request_gen.hpp"
#include "gen/shrink.hpp"
#include "gen/value_gen.hpp"

namespace {

using namespace wsx;

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
  /// true: smaller is better (all of bench_gen's units are costs).
  bool lower_is_better = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t scale = 100;
  std::size_t tolerance = 60;
  std::string out_path = "BENCH_gen.json";
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
      std::cerr << "usage: bench_gen [--scale PCT] [--out FILE.json] "
                   "[--check BASELINE.json] [--tolerance PCT]\n";
      return 2;
    }
  }

  // The deploy pass is the fixture, not the subject: generation starts
  // from already-published descriptions.
  const catalog::TypeCatalog catalog =
      catalog::make_java_catalog(catalog::scaled(catalog::JavaCatalogSpec{}, scale));
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

  std::vector<Measurement> measurements;

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

  json::ObjectWriter doc;
  doc.field("benchmark", "gen");
  doc.field("scale_percent", scale);
  doc.field("services", services.size());
  doc.field("cases", corpus.size());
  for (const Measurement& m : measurements) doc.field(m.name, m.value);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_gen: cannot open " << out_path << "\n";
    return 1;
  }
  out << doc.str() << "\n";
  for (const Measurement& m : measurements) {
    std::cout << m.name << " = " << m.value << "\n";
  }
  std::cout << "gen: " << services.size() << " services, " << corpus.size()
            << " cases -> " << out_path << "\n";

  if (check_path.empty()) return 0;

  // Regression gate: each measurement may drift up to `tolerance` percent
  // in its bad direction relative to the committed baseline.
  std::ifstream baseline_file(check_path);
  if (!baseline_file) {
    std::cerr << "bench_gen: cannot open baseline " << check_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << baseline_file.rdbuf();
  Result<json::Value> baseline = json::parse(buffer.str());
  if (!baseline.ok()) {
    std::cerr << "bench_gen: baseline: " << baseline.error().message << "\n";
    return 1;
  }
  const double slack = static_cast<double>(tolerance) / 100.0;
  bool regressed = false;
  for (const Measurement& m : measurements) {
    const json::Value* reference = baseline->find(m.name);
    if (reference == nullptr || !reference->is_number()) {
      std::cerr << "bench_gen: baseline lacks " << m.name << "\n";
      regressed = true;
      continue;
    }
    const double limit = m.lower_is_better ? reference->as_number() * (1.0 + slack)
                                           : reference->as_number() * (1.0 - slack);
    const bool bad = m.lower_is_better ? m.value > limit : m.value < limit;
    if (bad) {
      std::cerr << "bench_gen: REGRESSION " << m.name << " = " << m.value
                << " vs baseline " << reference->as_number() << " (limit " << limit
                << ")\n";
      regressed = true;
    }
  }
  if (!regressed) std::cout << "gen: within " << tolerance << "% of baseline\n";
  return regressed ? 1 : 0;
}
