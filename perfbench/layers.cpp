#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "common/pool.hpp"
#include "frameworks/registry.hpp"
#include "soap/envelope.hpp"
#include "soap/message.hpp"
#include "soap/validate.hpp"
#include "wsdl/parser.hpp"
#include "wsi/profile.hpp"
#include "xml/parser.hpp"

namespace perfbench {

using namespace wsx;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

void add(std::vector<Metric>& metrics, std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string join_seconds(const std::vector<double>& values) {
  std::string out;
  for (const double value : values) {
    char text[32];
    std::snprintf(text, sizeof text, "%s%.3f", out.empty() ? "" : " ", value);
    out += text;
  }
  return out;
}

std::vector<frameworks::DeployedService> composed_deploy(
    const frameworks::ServerFramework& server,
    const std::vector<frameworks::ServiceSpec>& services, std::size_t& refusals) {
  trace::Scope phase("interop.deploy_phase");
  std::vector<frameworks::DeployedService> deployed;
  deployed.reserve(services.size());
  for (const frameworks::ServiceSpec& spec : services) {
    Result<frameworks::DeployedService> deployment = [&] {
      trace::Scope span("frameworks.deploy");
      return server.deploy(spec);
    }();
    if (!deployment.ok()) {
      ++refusals;
      continue;
    }
    deployed.push_back(std::move(deployment.value()));
  }
  return deployed;
}

std::vector<frameworks::SharedDescription> composed_describe(
    const std::vector<frameworks::DeployedService>& deployed, std::size_t workers,
    bool with_wsi) {
  trace::Scope phase("interop.describe_phase");
  const trace::SpanId parent = phase.id();
  std::vector<frameworks::SharedDescription> descriptions;
  descriptions.reserve(deployed.size());
  for (std::vector<frameworks::SharedDescription>& slice : parallel_slices(
           deployed.size(), workers, [&](std::size_t begin, std::size_t end) {
             trace::Scope worker("interop.worker", parent);
             std::vector<frameworks::SharedDescription> built;
             built.reserve(end - begin);
             for (std::size_t i = begin; i < end; ++i) {
               trace::Scope span("frameworks.describe");
               built.push_back(frameworks::SharedDescription::from_deployed(deployed[i], with_wsi));
             }
             return built;
           })) {
    for (frameworks::SharedDescription& description : slice) {
      descriptions.push_back(std::move(description));
    }
  }
  return descriptions;
}

std::vector<frameworks::DeployedService> deploy_corpus(
    const catalog::JavaCatalogSpec& java_spec, const catalog::DotNetCatalogSpec& dotnet_spec) {
  const catalog::TypeCatalog java = catalog::make_java_catalog(java_spec);
  const catalog::TypeCatalog dotnet = catalog::make_dotnet_catalog(dotnet_spec);
  std::vector<frameworks::DeployedService> deployed;
  for (const auto& server : frameworks::make_servers()) {
    const catalog::TypeCatalog& types = server->language() == "C#" ? dotnet : java;
    for (const frameworks::ServiceSpec& spec : frameworks::make_services(types)) {
      Result<frameworks::DeployedService> service = server->deploy(spec);
      if (service.ok()) deployed.push_back(std::move(service.value()));
    }
  }
  return deployed;
}

void probe_layers(const std::vector<frameworks::DeployedService>& deployed, bool with_wsi,
                  bool with_soap, ProbeBytes& bytes, Tally& tally) {
  const std::string operation = frameworks::ServiceSpec::operation_name();
  const std::string payload = "perfbench payload";
  for (const frameworks::DeployedService& service : deployed) {
    const std::string& text = service.wsdl_text;
    bytes.served += static_cast<double>(text.size());
    bool ok = true;
    {
      trace::Scope span("xml.parse");
      ok = ok && xml::parse_element(text).ok();
    }
    {
      trace::Scope span("wsdl.parse");
      ok = ok && wsdl::parse(text).ok();
    }
    if (with_wsi) {
      trace::Scope span("wsi.check");
      ok = ok && !wsi::check(service.wsdl).summary().empty();
    }
    if (!ok) {
      tally.fail("probe: a served WSDL does not parse");
      continue;
    }
    // Services without the echo operation (zero-operation descriptions)
    // have no envelope to build.
    if (!with_soap || service.wsdl.operation_count() == 0) {
      tally.pass();
      continue;
    }

    std::string request_text;
    std::string response_text;
    {
      trace::Scope span("soap.build");
      Result<soap::Envelope> request =
          soap::build_request(service.wsdl, operation, {{"arg0", payload}});
      if (request.ok()) request_text = soap::write(*request);
    }
    {
      trace::Scope span("soap.build");
      Result<soap::Envelope> response = soap::build_response(service.wsdl, operation, payload);
      if (response.ok()) response_text = soap::write(*response);
    }
    if (request_text.empty() || response_text.empty()) {
      tally.pass();
      continue;
    }
    const double pair_bytes = static_cast<double>(request_text.size() + response_text.size());
    bytes.built += pair_bytes;
    bytes.envelopes += 2;
    {
      trace::Scope span("soap.parse");
      ok = soap::parse(request_text).ok();
    }
    {
      trace::Scope span("soap.parse");
      ok = soap::parse(response_text).ok() && ok;
    }
    bytes.parsed += pair_bytes;
    {
      trace::Scope span("soap.sniff");
      ok = soap::validate_request_text(service.wsdl, request_text).ok() && ok;
    }
    bytes.sniffed += static_cast<double>(request_text.size());
    if (ok) {
      tally.pass();
    } else {
      tally.fail("probe: an echo envelope does not parse back");
    }
  }
}

namespace layers {
namespace {

double total_self(const Totals& totals, const char* name) {
  const auto found = totals.find(name);
  return found == totals.end() ? 0.0 : found->second.self_ns;
}

double total_wall(const Totals& totals, const char* name) {
  const auto found = totals.find(name);
  return found == totals.end() ? 0.0 : found->second.total_ns;
}

}  // namespace

double mean_self(const Totals& totals, const char* name, double scale) {
  const auto found = totals.find(name);
  if (found == totals.end() || found->second.count == 0) return 0.0;
  return found->second.self_ns / static_cast<double>(found->second.count) / scale;
}

void add_probe_metrics(std::vector<Metric>& metrics, const Totals& totals,
                       const ProbeBytes& bytes, bool with_wsi, bool with_soap) {
  const auto per_byte = [&](const char* name, double denominator) {
    return denominator > 0.0 ? total_self(totals, name) / denominator : 0.0;
  };
  add(metrics, "xml.parse_ns_per_byte", per_byte("xml.parse", bytes.served), "ns/B");
  add(metrics, "wsdl.parse_ns_per_byte", per_byte("wsdl.parse", bytes.served), "ns/B");
  add(metrics, "xml.served_bytes", bytes.served, "B");
  if (with_wsi) add(metrics, "wsi.check_us", mean_self(totals, "wsi.check", 1e3), "us");
  if (with_soap) {
    add(metrics, "soap.build_ns_per_byte", per_byte("soap.build", bytes.built), "ns/B");
    add(metrics, "soap.parse_ns_per_byte", per_byte("soap.parse", bytes.parsed), "ns/B");
    add(metrics, "soap.sniff_ns_per_byte", per_byte("soap.sniff", bytes.sniffed), "ns/B");
    add(metrics, "soap.envelope_bytes",
        bytes.envelopes == 0 ? 0.0 : bytes.built / static_cast<double>(bytes.envelopes), "B");
  }
}

void add_engine_metrics(std::vector<Metric>& metrics, const Totals& totals, std::size_t passes,
                        std::size_t workers, const char* pass_name) {
  const double n = static_cast<double>(std::max<std::size_t>(passes, 1));
  add(metrics, "interop.deploy_phase_ms", total_wall(totals, "interop.deploy_phase") / n / 1e6,
      "ms");
  add(metrics, "interop.describe_phase_ms",
      total_wall(totals, "interop.describe_phase") / n / 1e6, "ms");
  add(metrics, "interop.testing_phase_ms",
      total_wall(totals, "interop.testing_phase") / n / 1e6, "ms");
  const double wall = total_wall(totals, pass_name);
  const double busy = total_wall(totals, "catalog.build") +
                      total_wall(totals, "interop.deploy_phase") +
                      total_wall(totals, "interop.worker");
  add(metrics, "interop.worker_idle_share",
      wall > 0.0 ? 1.0 - busy / (static_cast<double>(workers) * wall) : 0.0, "ratio");
}

}  // namespace layers
}  // namespace perfbench
