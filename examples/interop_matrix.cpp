// interop_matrix — a scaled-down version of the paper's campaign: a few
// hundred services against all 3 servers and 11 clients, printing the
// per-cell error matrix. Shows how to parameterize StudyConfig.
#include <iomanip>
#include <iostream>

#include "common/strings.hpp"
#include "interop/report.hpp"
#include "interop/study.hpp"

using namespace wsx;

int main() {
  interop::StudyConfig config;
  // 1/10-scale populations: same structure, faster run.
  config.java_spec.plain_beans = 178;
  config.java_spec.throwable_clean = 41;
  config.java_spec.throwable_raw = 6;
  config.java_spec.raw_generic_beans = 18;
  config.java_spec.anytype_array_beans = 5;
  config.java_spec.no_default_ctor = 60;
  config.java_spec.abstract_classes = 30;
  config.java_spec.interfaces = 40;
  config.java_spec.generic_types = 18;
  config.dotnet_spec.plain_types = 211;
  config.dotnet_spec.dataset_plain = 6;
  config.dotnet_spec.dataset_duplicated = 2;
  config.dotnet_spec.dataset_nested = 1;
  config.dotnet_spec.dataset_array = 1;
  config.dotnet_spec.encoded_binding = 1;
  config.dotnet_spec.missing_soap_action = 1;
  config.dotnet_spec.deep_nesting_clean = 28;
  config.dotnet_spec.deep_nesting_pathological = 2;
  config.dotnet_spec.generator_crash = 1;
  config.dotnet_spec.non_serializable = 400;
  config.dotnet_spec.no_default_ctor = 350;
  config.dotnet_spec.generic_types = 208;
  config.dotnet_spec.abstract_classes = 120;
  config.dotnet_spec.interfaces = 80;

  const interop::StudyResult result = interop::run_study(config);

  std::cout << "Scaled interoperability matrix (" << result.total_tests() << " tests)\n\n";
  for (const interop::ServerResult& server : result.servers) {
    std::cout << server.server << " — " << server.services_deployed << "/"
              << server.services_created << " services deployed, "
              << server.description_warnings << " flagged by WS-I\n";
    const int client_width = name_column_width("", server.cells, &interop::CellResult::client);
    for (const interop::CellResult& cell : server.cells) {
      std::cout << "  " << std::left << std::setw(client_width) << cell.client << std::right
                << " gen " << std::setw(4) << cell.generation.warnings << "w/" << std::setw(3)
                << cell.generation.errors << "e";
      if (cell.compiled) {
        std::cout << "   compile " << std::setw(4) << cell.compilation.warnings << "w/"
                  << std::setw(3) << cell.compilation.errors << "e";
      }
      std::cout << "\n";
    }
    std::cout << "\n";
  }
  std::cout << "interoperability errors: " << result.total_interop_errors() << "\n";
  return 0;
}
