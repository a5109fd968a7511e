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
//   env_write               soap::write of the fixture's request and response
//   env_stream_parse        envelope parse via the streaming pull tokenizer
//   env_stream_sniff        zero-DOM request validation (validate_request_text)
//   env_exchange_ns         one handle_http plus one classify_echo_response
//   envelopes_per_sec_{1_worker,2_workers,4_workers}
//                           streaming parse throughput at 1, 2 and 4 workers,
//                           up to the CPUs the process may use
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
#include <iostream>
#include <string>
#include <vector>

#include "catalog/java_catalog.hpp"
#include "common/pool.hpp"
#include "frameworks/invocation.hpp"
#include "frameworks/registry.hpp"
#include "frameworks/shared_description.hpp"
#include "harness.hpp"
#include "interop/study.hpp"
#include "soap/envelope.hpp"
#include "soap/http.hpp"
#include "soap/message.hpp"
#include "soap/validate.hpp"
#include "wsdl/parser.hpp"
#include "wsi/profile.hpp"
#include "xml/parser.hpp"

namespace {

using namespace wsx;
using bench::Better;
using bench::time_ns;

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

double campaign_tests_per_sec(const interop::StudyConfig& config, std::size_t& tests_out) {
  const auto start = std::chrono::steady_clock::now();
  const interop::StudyResult result = interop::run_study(config);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  tests_out = result.total_tests();
  return elapsed.count() > 0.0 ? static_cast<double>(result.total_tests()) / elapsed.count()
                               : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Gate gate("pipeline", /*scale=*/20, /*tolerance=*/40);
  std::size_t threads = 0;
  if (!gate.parse(argc, argv, {{"--threads", &threads}},
                  "usage: bench_pipeline [--scale PCT] [--threads N] "
                  "[--out FILE.json] [--check BASELINE.json] [--tolerance PCT]\n")) {
    return 2;
  }

  const frameworks::DeployedService service = sample_service();
  const std::string& text = service.wsdl_text;
  const double bytes = static_cast<double>(text.size());
  const auto client = frameworks::make_client("Oracle Metro 2.3");
  const frameworks::SharedDescription description =
      frameworks::SharedDescription::from_deployed(service);

  std::vector<bench::Measurement>& measurements = gate.measurements;
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

  // The envelope hot path: a real request off the same fixture service and
  // the response the server answers it with.
  const std::string payload = "benchmark payload";
  Result<soap::Envelope> request =
      soap::build_request(service.wsdl, "echo", {{"arg0", payload}});
  Result<soap::Envelope> response = soap::build_response(service.wsdl, "echo", payload);
  if (!request.ok() || !response.ok()) {
    std::cerr << "bench_pipeline: cannot build the envelope fixture\n";
    return 1;
  }
  const std::string envelope_text = soap::write(*request);
  const double envelope_bytes = static_cast<double>(envelope_text.size());
  const double written_bytes = envelope_bytes + static_cast<double>(soap::write(*response).size());

  measurements.push_back({"env_write_ns_per_byte", time_ns([&] {
                            if (soap::write(*request).empty() || soap::write(*response).empty()) {
                              std::exit(1);
                            }
                          }) / written_bytes});
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
  // One exchange as a campaign call makes it: the server reads the request
  // and writes its response, the client reads and classifies the response.
  const auto server = frameworks::make_server("Metro 2.3");
  const soap::HttpRequest http_request =
      soap::make_soap_request("http://localhost/echo", "", envelope_text);
  measurements.push_back({"env_exchange_ns", time_ns([&] {
                            const soap::HttpResponse reply =
                                server->handle_http(service, http_request);
                            if (frameworks::classify_echo_response(reply, payload).outcome !=
                                frameworks::EchoOutcome::kOk) {
                              std::exit(1);
                            }
                          })});

  // Streaming parse throughput at 1, 2 and 4 workers: each worker parses
  // its slice of a fixed envelope batch; the rate is envelopes over wall
  // time. The curve stops at the CPUs this process may use, since more
  // workers than cores measure the scheduler, not the parser.
  const std::size_t cpus = bench::effective_cpus();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    if (workers > cpus) break;
    const std::size_t per_worker =
        std::max<std::size_t>(1, static_cast<std::size_t>(3e8 / stream_parse_ns));
    const std::size_t total = per_worker * workers;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::size_t> parsed = parallel_slices(
        workers, workers, [&](std::size_t begin, std::size_t end) {
          std::size_t ok = 0;
          for (std::size_t i = begin; i < end; ++i) {
            for (std::size_t n = 0; n < per_worker; ++n) {
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
    measurements.push_back({"envelopes_per_sec_" + std::to_string(workers) +
                                (workers == 1 ? "_worker" : "_workers"),
                            elapsed.count() > 0.0
                                ? static_cast<double>(total) / elapsed.count()
                                : 0.0,
                            Better::kHigher});
  }

  interop::StudyConfig config;
  config.java_spec = catalog::scaled(config.java_spec, gate.scale);
  config.dotnet_spec = catalog::scaled(config.dotnet_spec, gate.scale);
  config.threads = threads;
  std::size_t tests = 0;
  (void)campaign_tests_per_sec(config, tests);  // warm-up
  measurements.push_back(
      {"campaign_cached_tests_per_sec", campaign_tests_per_sec(config, tests), Better::kHigher});

  json::ObjectWriter doc = bench::report(gate.name, gate.scale);
  doc.field("tests", tests);
  return gate.finish(doc, "pipeline: " + std::to_string(tests) + " tests -> " + gate.out_path);
}
