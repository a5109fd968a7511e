// Tests for the textual report builders and the paper-reference helpers
// (src/interop/report.*, paper_reference.hpp).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "frameworks/registry.hpp"
#include "interop/paper_reference.hpp"
#include "interop/report.hpp"

namespace wsx::interop {
namespace {

TEST(PaperReference, ClientNameNormalization) {
  EXPECT_EQ(paper::normalize_client_name(".NET Framework 4.0.30319.17929 (C#)"),
            ".NET (C#)");
  EXPECT_EQ(
      paper::normalize_client_name(".NET Framework 4.0.30319.17929 (Visual Basic .NET)"),
      ".NET (Visual Basic .NET)");
  EXPECT_EQ(paper::normalize_client_name(".NET Framework 4.0.30319.17929 (JScript .NET)"),
            ".NET (JScript .NET)");
  EXPECT_EQ(paper::normalize_client_name("Apache Axis1 1.4"), "Apache Axis1 1.4");
}

TEST(PaperReference, ServerNameNormalization) {
  EXPECT_EQ(paper::normalize_server_name("Metro 2.3"), "Metro");
  EXPECT_EQ(paper::normalize_server_name("JBossWS CXF 4.2.3"), "JBossWS CXF");
  EXPECT_EQ(paper::normalize_server_name("WCF .NET 4.0.30319.17929"), "WCF .NET");
  EXPECT_EQ(paper::normalize_server_name("Other"), "Other");
}

TEST(PaperReference, Fig4RowsSumToHeadlineAggregates) {
  std::size_t generation_warnings = 0;
  std::size_t generation_errors = 0;
  std::size_t compilation_warnings = 0;
  std::size_t compilation_errors = 0;
  std::size_t description_warnings = 0;
  for (const paper::Fig4Row& row : paper::kFig4) {
    description_warnings += row.description_warnings;
    generation_warnings += row.generation_warnings;
    generation_errors += row.generation_errors;
    compilation_warnings += row.compilation_warnings;
    compilation_errors += row.compilation_errors;
  }
  EXPECT_EQ(description_warnings, paper::kDescriptionWarnings);
  EXPECT_EQ(generation_warnings, paper::kGenerationWarnings);
  EXPECT_EQ(generation_errors, paper::kGenerationErrors);
  EXPECT_EQ(compilation_warnings, paper::kCompilationWarnings);
  EXPECT_EQ(compilation_errors, paper::kCompilationErrors);
}

TEST(PaperReference, Table3CellsSumToFig4Rows) {
  for (const paper::Fig4Row& row : paper::kFig4) {
    std::size_t generation_warnings = 0;
    std::size_t generation_errors = 0;
    std::size_t compilation_warnings = 0;
    std::size_t compilation_errors = 0;
    for (const paper::Table3Cell& cell : paper::kTable3) {
      if (cell.server != row.server) continue;
      generation_warnings += cell.generation_warnings;
      generation_errors += cell.generation_errors;
      compilation_warnings += cell.compilation_warnings;
      compilation_errors += cell.compilation_errors;
    }
    EXPECT_EQ(generation_warnings, row.generation_warnings) << row.server;
    EXPECT_EQ(generation_errors, row.generation_errors) << row.server;
    EXPECT_EQ(compilation_warnings, row.compilation_warnings) << row.server;
    EXPECT_EQ(compilation_errors, row.compilation_errors) << row.server;
  }
}

TEST(PaperReference, SamePlatformFailuresDecompose) {
  // 307 = VB(4) + JScript generation(2) + JScript compilation(301) on WCF.
  std::size_t dotnet_on_dotnet = 0;
  for (const paper::Table3Cell& cell : paper::kTable3) {
    if (cell.server != "WCF .NET") continue;
    if (cell.client.rfind(".NET", 0) != 0) continue;
    dotnet_on_dotnet += cell.generation_errors + cell.compilation_errors;
  }
  EXPECT_EQ(dotnet_on_dotnet, paper::kSamePlatformFailures);
}

TEST(StaticTables, TableIListsAllServers) {
  const std::string table = format_table1();
  EXPECT_NE(table.find("GlassFish 4.0"), std::string::npos);
  EXPECT_NE(table.find("JBoss AS 7.2"), std::string::npos);
  EXPECT_NE(table.find("IIS 8.0.8418.0 (Express)"), std::string::npos);
  EXPECT_NE(table.find("Metro 2.3"), std::string::npos);
}

TEST(StaticTables, TableIIListsAllElevenClients) {
  const std::string table = format_table2();
  for (const char* tool : {"wsimport", "wsdl2java", "wsconsume", "wsdl.exe",
                           "wsdl2h.exe and soapcpp2.exe", "Zend_Soap_Client",
                           "suds Python client"}) {
    EXPECT_NE(table.find(tool), std::string::npos) << tool;
  }
  EXPECT_NE(table.find("N/A (instantiation check)"), std::string::npos);
}

TEST(StaticTables, TableIIToolColumnStartsUnderItsHeader) {
  std::istringstream lines(format_table2());
  std::string line;
  std::getline(lines, line);  // the title
  std::getline(lines, line);
  const std::size_t tool_at = line.find("Tool");
  ASSERT_NE(tool_at, std::string::npos);
  std::size_t rows = 0;
  for (const auto& client : frameworks::make_clients()) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.substr(2, client->name().size()), client->name()) << line;
    EXPECT_EQ(line.find_first_not_of(' ', 2 + client->name().size()), tool_at) << line;
    EXPECT_EQ(line.substr(tool_at, client->tool().size()), client->tool()) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 11u);
}

}  // namespace
}  // namespace wsx::interop
