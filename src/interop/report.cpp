#include "interop/report.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/strings.hpp"
#include "frameworks/registry.hpp"
#include "interop/paper_reference.hpp"

namespace wsx::interop {

namespace paper {

std::string_view normalize_client_name(std::string_view client) {
  if (starts_with(client, ".NET Framework") && ends_with(client, "(C#)")) return ".NET (C#)";
  if (starts_with(client, ".NET Framework") && ends_with(client, "(Visual Basic .NET)")) {
    return ".NET (Visual Basic .NET)";
  }
  if (starts_with(client, ".NET Framework") && ends_with(client, "(JScript .NET)")) {
    return ".NET (JScript .NET)";
  }
  return client;
}

std::string_view normalize_server_name(std::string_view server) {
  if (starts_with(server, "Metro")) return "Metro";
  if (starts_with(server, "JBossWS")) return "JBossWS CXF";
  if (starts_with(server, "WCF")) return "WCF .NET";
  return server;
}

}  // namespace paper

namespace {

const char* marker(std::size_t paper_value, std::size_t measured) {
  return paper_value == measured ? "MATCH" : "DIVERGE";
}

void row(std::ostringstream& out, const std::string& label, std::size_t paper_value,
         std::size_t measured) {
  out << "  " << std::left << std::setw(44) << label << std::right << std::setw(8)
      << paper_value << std::setw(10) << measured << "   " << marker(paper_value, measured)
      << "\n";
}

}  // namespace

std::string format_table1() {
  std::ostringstream out;
  out << "Table I — server platforms\n";
  out << "  " << std::left << std::setw(28) << "Server" << std::setw(28) << "Framework"
      << "Language\n";
  for (const auto& server : frameworks::make_servers()) {
    out << "  " << std::left << std::setw(28) << server->application_server() << std::setw(28)
        << server->name() << server->language() << "\n";
  }
  return out.str();
}

std::string format_table2() {
  const auto clients = frameworks::make_clients();
  const int framework_width =
      name_column_width("Framework", clients, [](const auto& client) { return client->name(); });
  std::ostringstream out;
  out << "Table II — client-side frameworks\n";
  out << "  " << std::left << std::setw(framework_width) << "Framework" << std::setw(30) << "Tool"
      << std::setw(20) << "Language"
      << "Compilation\n";
  for (const auto& client : clients) {
    out << "  " << std::left << std::setw(framework_width) << client->name() << std::setw(30)
        << client->tool() << std::setw(20) << code::to_string(client->language())
        << (client->requires_compilation() ? "Yes" : "N/A (instantiation check)") << "\n";
  }
  return out.str();
}

std::string format_fig4(const StudyResult& result) {
  std::ostringstream out;
  out << "Fig. 4 — overview of the experimental results (paper vs measured)\n";
  for (const ServerResult& server : result.servers) {
    const std::string_view short_name = paper::normalize_server_name(server.server);
    const paper::Fig4Row* reference = nullptr;
    for (const paper::Fig4Row& candidate : paper::kFig4) {
      if (candidate.server == short_name) reference = &candidate;
    }
    out << server.server << " (" << server.application_server << ", "
        << server.services_deployed << " services)\n";
    if (reference == nullptr) {
      out << "  (no paper reference for this server)\n";
      continue;
    }
    out << "  " << std::left << std::setw(44) << "metric" << std::right << std::setw(8)
        << "paper" << std::setw(10) << "measured" << "\n";
    row(out, "service description generation warnings", reference->description_warnings,
        server.description_warnings);
    row(out, "service description generation errors", reference->description_errors,
        server.description_errors);
    const StepCounts generation = server.generation_totals();
    const StepCounts compilation = server.compilation_totals();
    row(out, "client artifacts generation warnings", reference->generation_warnings,
        generation.warnings);
    row(out, "client artifacts generation errors", reference->generation_errors,
        generation.errors);
    row(out, "client artifacts compilation warnings", reference->compilation_warnings,
        compilation.warnings);
    row(out, "client artifacts compilation errors", reference->compilation_errors,
        compilation.errors);
  }
  return out.str();
}

std::string format_table3(const StudyResult& result) {
  std::ostringstream out;
  out << "Table III — experimental results per client and server "
         "(Gw/Ge = generation warnings/errors, Cw/Ce = compilation; paper → measured)\n";
  for (const ServerResult& server : result.servers) {
    const std::string_view server_short = paper::normalize_server_name(server.server);
    out << server.server << " — " << server.services_deployed << " services, "
        << server.description_warnings << " flagged at description step\n";
    for (const CellResult& cell : server.cells) {
      const std::string_view client_short = paper::normalize_client_name(cell.client);
      const paper::Table3Cell* reference = nullptr;
      for (const paper::Table3Cell& candidate : paper::kTable3) {
        if (candidate.server == server_short && candidate.client == client_short) {
          reference = &candidate;
        }
      }
      out << "  " << std::left << std::setw(30) << client_short << std::right;
      const auto print_pair = [&](const char* label, std::size_t paper_value,
                                  std::size_t measured) {
        out << "  " << label << " " << std::setw(4) << paper_value << " -> " << std::setw(4)
            << measured << (paper_value == measured ? "  " : " !");
      };
      if (reference != nullptr) {
        print_pair("Gw", reference->generation_warnings, cell.generation.warnings);
        print_pair("Ge", reference->generation_errors, cell.generation.errors);
        if (cell.compiled) {
          print_pair("Cw", reference->compilation_warnings, cell.compilation.warnings);
          print_pair("Ce", reference->compilation_errors, cell.compilation.errors);
        } else {
          out << "  (no compilation step; instantiation checked)";
        }
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string format_findings(const StudyResult& result) {
  std::ostringstream out;
  out << "Headline aggregates (paper vs measured)\n";
  out << "  " << std::left << std::setw(44) << "metric" << std::right << std::setw(8)
      << "paper" << std::setw(10) << "measured" << "\n";
  row(out, "tests executed", paper::kTotalTests, result.total_tests());
  row(out, "services created", paper::kServicesCreated, result.total_services_created());
  row(out, "services without a WSDL (excluded)", paper::kWsdlFailures,
      result.total_deployment_refusals());
  row(out, "description-step warnings (WS-I/unusable)", paper::kDescriptionWarnings,
      result.total_description_warnings());
  row(out, "artifact generation warnings", paper::kGenerationWarnings,
      result.total_generation().warnings);
  row(out, "artifact generation errors", paper::kGenerationErrors,
      result.total_generation().errors);
  row(out, "artifact compilation warnings", paper::kCompilationWarnings,
      result.total_compilation().warnings);
  row(out, "artifact compilation errors", paper::kCompilationErrors,
      result.total_compilation().errors);
  row(out, "interoperability errors (gen+comp)", paper::kInteropErrors,
      result.total_interop_errors());
  row(out, "same-platform failures (.NET on .NET)", paper::kSamePlatformFailures,
      result.same_platform_failures);
  row(out, "description-flagged services", paper::kFlaggedServices, result.flagged_services);
  row(out, "flagged services erroring downstream", paper::kFlaggedWithDownstreamError,
      result.flagged_services_with_downstream_error);

  out << "\nDerived findings\n";
  if (result.flagged_services > 0) {
    const double share = 100.0 * static_cast<double>(result.flagged_services_with_downstream_error) /
                         static_cast<double>(result.flagged_services);
    out << "  flagged services that also error downstream: " << std::fixed
        << std::setprecision(1) << share << "% (paper: 95.3%)\n";
  }
  const std::size_t generation_errors =
      result.generation_errors_on_flagged + result.generation_errors_on_compliant;
  if (generation_errors > 0) {
    const double share = 100.0 * static_cast<double>(result.generation_errors_on_flagged) /
                         static_cast<double>(generation_errors);
    out << "  generation errors caused by WS-I-failing WSDLs: " << std::fixed
        << std::setprecision(1) << share << "% (paper: ~97%)\n";
  }
  out << "  same-framework failures incl. Java stacks: " << result.same_framework_failures
      << " (same-platform subset, the paper's 307: " << result.same_platform_failures << ")\n";

  // Tool maturity ranking (paper §IV.A discusses maturity qualitatively;
  // this quantifies it as errors caused per test across all servers).
  struct ToolScore {
    std::string client;
    std::size_t errors = 0;
    std::size_t tests = 0;
  };
  std::vector<ToolScore> scores;
  for (const ServerResult& server : result.servers) {
    for (const CellResult& cell : server.cells) {
      ToolScore* score = nullptr;
      for (ToolScore& candidate : scores) {
        if (candidate.client == cell.client) score = &candidate;
      }
      if (score == nullptr) {
        scores.push_back({cell.client, 0, 0});
        score = &scores.back();
      }
      score->errors += cell.generation.errors + cell.compilation.errors;
      score->tests += cell.tests;
    }
  }
  std::sort(scores.begin(), scores.end(),
            [](const ToolScore& a, const ToolScore& b) { return a.errors < b.errors; });
  out << "\nTool maturity ranking (errors caused across all steps, fewest first)\n";
  for (const ToolScore& score : scores) {
    out << "  " << std::left << std::setw(52)
        << std::string(paper::normalize_client_name(score.client)) << std::right
        << std::setw(6) << score.errors << " / " << score.tests << "\n";
  }
  return out.str();
}

std::string format_failure_catalog(const StudyResult& result) {
  struct CatalogEntry {
    std::size_t tests = 0;
    std::vector<std::string> tools;
    std::string sample_message;
  };
  std::map<std::string, CatalogEntry> catalog;
  for (const ServerResult& server : result.servers) {
    for (const CellResult& cell : server.cells) {
      for (const auto& [error_code, count] : cell.error_codes) {
        CatalogEntry& entry = catalog[error_code];
        entry.tests += count;
        const std::string tool(paper::normalize_client_name(cell.client));
        if (std::find(entry.tools.begin(), entry.tools.end(), tool) == entry.tools.end()) {
          entry.tools.push_back(tool);
        }
        if (entry.sample_message.empty()) {
          for (const Diagnostic& sample : cell.samples) {
            if (sample.code == error_code) entry.sample_message = sample.message;
          }
        }
      }
    }
  }

  // Most-frequent first.
  std::vector<std::pair<std::string, CatalogEntry>> ordered(catalog.begin(), catalog.end());
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.second.tests != b.second.tests ? a.second.tests > b.second.tests
                                            : a.first < b.first;
  });

  std::ostringstream out;
  out << "Failure catalog — " << ordered.size()
      << " distinct error codes across the campaign (auto-generated §IV.B inventory)\n";
  for (const auto& [error_code, entry] : ordered) {
    out << "  " << std::left << std::setw(36) << error_code << std::right << std::setw(6)
        << entry.tests << " test(s)  [" << join(entry.tools, ", ") << "]\n";
    if (!entry.sample_message.empty()) {
      out << "      e.g. " << entry.sample_message << "\n";
    }
  }
  return out.str();
}

}  // namespace wsx::interop
