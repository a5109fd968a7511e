// bench_pipeline — the parse-once pipeline benchmark; emits
// BENCH_pipeline.json.
//
// Measures the per-stage cost of the description pipeline (P1–P6 in
// DESIGN.md terms) in ns/byte of WSDL text, plus end-to-end campaign
// throughput:
//
//   p1_xml_parse            raw XML tree construction
//   p2_wsdl_parse           XML + WSDL object model
//   p3_wsi_check            WS-I Basic Profile verdict (per parsed model)
//   p4_description_build    SharedDescription::from_deployed (the one
//                           per-service parse every campaign task builds)
//   p5_generate_uncached    client generate() from text (parse every call,
//                           the fuzz campaign's path)
//   p6_generate_cached      client generate() from a SharedDescription
//
// plus the SOAP envelope hot path (the per-call cost every communication /
// chaos / propcheck campaign pays on each request and response):
//
//   env_stream_parse        envelope parse via the streaming pull tokenizer
//   env_stream_sniff        zero-DOM request validation (validate_request_text)
//   envelopes_per_sec_16_workers
//                           streaming parse throughput across 16 workers
//   campaign_cached_tests_per_sec
//                           end-to-end study throughput
//
// With --check BASELINE.json the run compares itself against a committed
// baseline and exits 1 when any ns/byte stage regresses past --tolerance
// percent (or throughput drops past it) — the CI regression gate.
//
//   bench_pipeline [--scale PCT] [--threads N] [--out FILE.json]
//                  [--check BASELINE.json] [--tolerance PCT]
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/java_catalog.hpp"
#include "common/json.hpp"
#include "common/pool.hpp"
#include "common/strings.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "interop/study.hpp"
#include "soap/envelope.hpp"
#include "soap/message.hpp"
#include "soap/validate.hpp"
#include "wsdl/parser.hpp"
#include "wsi/profile.hpp"
#include "xml/parser.hpp"

namespace {

using namespace wsx;

/// The fixture every stage runs against: the first catalog type that both
/// deploys on Metro and generates clean artifacts for the Metro client, so
/// p5/p6 time real artifact construction rather than an early refusal.
/// Aborting on a missing fixture keeps a broken catalog from turning the
/// benchmark into a no-op.
frameworks::DeployedService sample_service() {
  const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  const auto server = frameworks::make_server("Metro 2.3");
  const auto client = frameworks::make_client("Oracle Metro 2.3");
  for (const catalog::TypeInfo& type : catalog.types()) {
    if (!server->can_deploy(type)) continue;
    Result<frameworks::DeployedService> deployed =
        server->deploy(frameworks::ServiceSpec{&type});
    if (!deployed.ok()) continue;
    if (client->generate(deployed->wsdl_text).produced_artifacts()) {
      return std::move(deployed.value());
    }
  }
  std::cerr << "bench_pipeline: no cleanly consumable type in the Java catalog\n";
  std::exit(1);
}

/// Runs `work` repeatedly until ~0.3 s of wall time has accumulated and
/// returns the mean nanoseconds per call.
template <typename Fn>
double time_ns(Fn&& work) {
  using clock = std::chrono::steady_clock;
  // Warm caches and pick an iteration batch that amortises clock reads.
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

double campaign_tests_per_sec(const interop::StudyConfig& config, std::size_t& tests_out) {
  const auto start = std::chrono::steady_clock::now();
  const interop::StudyResult result = interop::run_study(config);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  tests_out = result.total_tests();
  return elapsed.count() > 0.0 ? static_cast<double>(result.total_tests()) / elapsed.count()
                               : 0.0;
}

struct Measurement {
  std::string name;
  double value = 0.0;
  /// true: smaller is better (ns/byte); false: larger is better (rates).
  bool lower_is_better = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t scale = 20;
  std::size_t threads = 0;
  std::size_t tolerance = 40;
  std::string out_path = "BENCH_pipeline.json";
  std::string check_path;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scale" && i + 1 < args.size()) {
      if (!parse_count(args[++i], scale)) return 2;
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      if (!parse_count(args[++i], threads)) return 2;
    } else if (args[i] == "--tolerance" && i + 1 < args.size()) {
      if (!parse_count(args[++i], tolerance)) return 2;
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--check" && i + 1 < args.size()) {
      check_path = args[++i];
    } else {
      std::cerr << "usage: bench_pipeline [--scale PCT] [--threads N] "
                   "[--out FILE.json] [--check BASELINE.json] [--tolerance PCT]\n";
      return 2;
    }
  }

  const frameworks::DeployedService service = sample_service();
  const std::string& text = service.wsdl_text;
  const double bytes = static_cast<double>(text.size());
  const auto client = frameworks::make_client("Oracle Metro 2.3");
  const frameworks::SharedDescription description =
      frameworks::SharedDescription::from_deployed(service);

  std::vector<Measurement> measurements;
  measurements.push_back({"p1_xml_parse_ns_per_byte", time_ns([&] {
                            Result<xml::Element> root = xml::parse_element(text);
                            if (!root.ok()) std::exit(1);
                          }) / bytes});
  measurements.push_back({"p2_wsdl_parse_ns_per_byte", time_ns([&] {
                            Result<wsdl::Definitions> defs = wsdl::parse(text);
                            if (!defs.ok()) std::exit(1);
                          }) / bytes});
  measurements.push_back({"p3_wsi_check_ns_per_byte", time_ns([&] {
                            const wsi::ComplianceReport report = wsi::check(service.wsdl);
                            if (report.summary().empty()) std::exit(1);
                          }) / bytes});
  measurements.push_back({"p4_description_build_ns_per_byte", time_ns([&] {
                            const frameworks::SharedDescription built =
                                frameworks::SharedDescription::from_deployed(service);
                            if (!built.parsed_ok()) std::exit(1);
                          }) / bytes});
  measurements.push_back({"p5_generate_uncached_ns_per_byte", time_ns([&] {
                            frameworks::GenerationResult result = client->generate(text);
                            if (!result.produced_artifacts()) std::exit(1);
                          }) / bytes});
  measurements.push_back({"p6_generate_cached_ns_per_byte", time_ns([&] {
                            frameworks::GenerationResult result =
                                client->generate(description);
                            if (!result.produced_artifacts()) std::exit(1);
                          }) / bytes});

  // The envelope hot path: a real request off the same fixture service.
  Result<soap::Envelope> request =
      soap::build_request(service.wsdl, "echo", {{"arg0", "benchmark payload"}});
  if (!request.ok()) {
    std::cerr << "bench_pipeline: cannot build the envelope fixture\n";
    return 1;
  }
  const std::string envelope_text = soap::write(*request);
  const double envelope_bytes = static_cast<double>(envelope_text.size());

  const double stream_parse_ns = time_ns([&] {
    Result<soap::Envelope> env = soap::parse(envelope_text);
    if (!env.ok()) std::exit(1);
  });
  measurements.push_back({"env_stream_parse_ns_per_byte", stream_parse_ns / envelope_bytes});
  measurements.push_back({"env_stream_sniff_ns_per_byte", time_ns([&] {
                            Result<std::vector<soap::ValidationIssue>> issues =
                                soap::validate_request_text(service.wsdl, envelope_text);
                            if (!issues.ok()) std::exit(1);
                          }) / envelope_bytes});

  // Streaming parse throughput at 16 workers: each worker parses its slice
  // of a fixed envelope batch; the rate is envelopes over wall time.
  {
    const std::size_t per_slice =
        std::max<std::size_t>(1, static_cast<std::size_t>(3e8 / (stream_parse_ns * 16.0)));
    const std::size_t total = per_slice * 16;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::size_t> parsed = parallel_slices(
        16, 16, [&](std::size_t begin, std::size_t end) {
          std::size_t ok = 0;
          for (std::size_t i = begin; i < end; ++i) {
            for (std::size_t n = 0; n < per_slice; ++n) {
              if (soap::parse(envelope_text).ok()) ++ok;
            }
          }
          return ok;
        });
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    std::size_t ok_total = 0;
    for (const std::size_t ok : parsed) ok_total += ok;
    if (ok_total != total) {
      std::cerr << "bench_pipeline: envelope worker sweep dropped parses\n";
      return 1;
    }
    measurements.push_back({"envelopes_per_sec_16_workers",
                            elapsed.count() > 0.0
                                ? static_cast<double>(total) / elapsed.count()
                                : 0.0,
                            /*lower_is_better=*/false});
  }

  interop::StudyConfig config;
  config.java_spec = catalog::scaled(config.java_spec, scale);
  config.dotnet_spec = catalog::scaled(config.dotnet_spec, scale);
  config.threads = threads;
  std::size_t tests = 0;
  (void)campaign_tests_per_sec(config, tests);  // warm-up
  measurements.push_back({"campaign_cached_tests_per_sec", campaign_tests_per_sec(config, tests),
                          /*lower_is_better=*/false});

  json::ObjectWriter doc;
  doc.field("benchmark", "pipeline");
  doc.field("scale_percent", scale);
  doc.field("tests", tests);
  for (const Measurement& m : measurements) doc.field(m.name, m.value);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_pipeline: cannot open " << out_path << "\n";
    return 1;
  }
  out << doc.str() << "\n";
  for (const Measurement& m : measurements) {
    std::cout << m.name << " = " << m.value << "\n";
  }
  std::cout << "pipeline: " << tests << " tests -> " << out_path << "\n";

  if (check_path.empty()) return 0;

  // Regression gate: each measurement may drift up to `tolerance` percent
  // in its bad direction relative to the committed baseline.
  std::ifstream baseline_file(check_path);
  if (!baseline_file) {
    std::cerr << "bench_pipeline: cannot open baseline " << check_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << baseline_file.rdbuf();
  Result<json::Value> baseline = json::parse(buffer.str());
  if (!baseline.ok()) {
    std::cerr << "bench_pipeline: baseline: " << baseline.error().message << "\n";
    return 1;
  }
  const double slack = static_cast<double>(tolerance) / 100.0;
  bool regressed = false;
  for (const Measurement& m : measurements) {
    const json::Value* reference = baseline->find(m.name);
    if (reference == nullptr || !reference->is_number()) {
      std::cerr << "bench_pipeline: baseline lacks " << m.name << "\n";
      regressed = true;
      continue;
    }
    const double limit = m.lower_is_better ? reference->as_number() * (1.0 + slack)
                                           : reference->as_number() * (1.0 - slack);
    const bool bad = m.lower_is_better ? m.value > limit : m.value < limit;
    if (bad) {
      std::cerr << "bench_pipeline: REGRESSION " << m.name << " = " << m.value
                << " vs baseline " << reference->as_number() << " (limit " << limit
                << ")\n";
      regressed = true;
    }
  }
  if (!regressed) std::cout << "pipeline: within " << tolerance << "% of baseline\n";
  return regressed ? 1 : 0;
}
