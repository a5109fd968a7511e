// bench_ablation — ablations of the design choices DESIGN.md calls out:
//   A1: the deploy-time WS-I gate the paper advocates (§IV.A);
//   A2: JBossWS adopting Metro's refusal of operation-less descriptions;
//   A3: a hypothetical case-sensitive Visual Basic compiler (how much of
//       the same-platform failure count is due to one language rule).
// Each ablation reruns the full campaign with one behaviour changed and
// reports the delta against the paper-faithful baseline.
#include <iostream>

#include "frameworks/shared_description.hpp"
#include "frameworks/registry.hpp"
#include "interop/study.hpp"

using namespace wsx;

namespace {

constexpr const char* kVb = ".NET Framework 4.0.30319.17929 (Visual Basic .NET)";

/// A3's client: wsdl.exe targeting VB, but compiled with case-sensitive
/// member rules (i.e. csc semantics) — isolates the identifier-case rule.
class CaseSensitiveVbClient final : public frameworks::ClientFramework {
 public:
  std::string name() const override { return inner_->name(); }
  std::string tool() const override { return inner_->tool(); }
  code::Language language() const override { return code::Language::kCSharp; }
  frameworks::GenerationResult generate(
      const frameworks::SharedDescription& description) const override {
    return inner_->generate(description);
  }

 private:
  std::unique_ptr<frameworks::ClientFramework> inner_ = frameworks::make_client(kVb);
};

std::size_t java_generation_errors(const interop::ServerResult& server) {
  return server.generation_totals().errors;
}

}  // namespace

int main() {
  std::cout << "Ablation study (full-scale campaign per variant)\n\n";

  const interop::StudyResult baseline = interop::run_study();
  std::cout << "baseline (paper-faithful):\n";
  std::cout << "  interoperability errors: " << baseline.total_interop_errors() << "\n";
  std::cout << "  same-platform failures:  " << baseline.same_platform_failures << "\n\n";

  // --- A1: deploy-time WS-I gate. ---
  interop::StudyConfig gated;
  gated.wsi_deploy_gate = true;
  const interop::StudyResult with_gate = interop::run_study(gated);
  std::size_t gate_rejections = 0;
  for (const interop::ServerResult& server : with_gate.servers) {
    gate_rejections += server.gate_rejections;
  }
  std::cout << "A1 — deploy-time WS-I gate (paper §IV.A advocacy):\n";
  std::cout << "  descriptions withdrawn at deployment: " << gate_rejections << "\n";
  std::cout << "  interoperability errors: " << with_gate.total_interop_errors() << " (was "
            << baseline.total_interop_errors() << ", -"
            << baseline.total_interop_errors() - with_gate.total_interop_errors() << ")\n";
  std::cout << "  remaining errors come from WS-I-compliant descriptions — the gate is\n"
               "  necessary but not sufficient, as the paper concludes.\n\n";

  // --- A2: JBossWS refuses operation-less descriptions. ---
  {
    const catalog::TypeCatalog java = catalog::make_java_catalog();
    const auto services = frameworks::make_services(java);
    const auto clients = frameworks::make_clients();
    const interop::StudyConfig config;

    const auto lenient = frameworks::make_server("JBossWS CXF 4.2.3");  // paper behaviour
    const auto strict = frameworks::make_server("JBossWS CXF 4.2.3", /*remedied=*/true);
    const interop::ServerResult before =
        interop::run_server_campaign(*lenient, services, clients, config);
    const interop::ServerResult after =
        interop::run_server_campaign(*strict, services, clients, config);
    std::cout << "A2 — JBossWS refuses zero-operation deployments (Metro's behaviour):\n";
    std::cout << "  deployed services: " << before.services_deployed << " -> "
              << after.services_deployed << "\n";
    std::cout << "  description-step warnings: " << before.description_warnings << " -> "
              << after.description_warnings << "\n";
    std::cout << "  generation errors: " << java_generation_errors(before) << " -> "
              << java_generation_errors(after)
              << "  (the unusable-WSDL errors disappear at the source)\n\n";
  }

  // --- A3: case-sensitive VB compiler. ---
  {
    const catalog::TypeCatalog dotnet = catalog::make_dotnet_catalog();
    const auto services = frameworks::make_services(dotnet);
    const auto server = frameworks::make_server("WCF .NET 4.0.30319.17929");
    const interop::StudyConfig config;

    std::vector<std::unique_ptr<frameworks::ClientFramework>> vb_baseline;
    vb_baseline.push_back(frameworks::make_client(kVb));
    std::vector<std::unique_ptr<frameworks::ClientFramework>> vb_fixed;
    vb_fixed.push_back(std::make_unique<CaseSensitiveVbClient>());

    const interop::ServerResult before =
        interop::run_server_campaign(*server, services, vb_baseline, config);
    const interop::ServerResult after =
        interop::run_server_campaign(*server, services, vb_fixed, config);
    std::cout << "A3 — Visual Basic with case-sensitive identifiers:\n";
    std::cout << "  VB compilation errors on its own platform: "
              << before.cells.front().compilation.errors << " -> "
              << after.cells.front().compilation.errors
              << "  (every VB-only failure is the identifier-case rule)\n";
  }
  return 0;
}
