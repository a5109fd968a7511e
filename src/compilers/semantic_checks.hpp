// semantic_checks.hpp — the semantic analyses the compiler simulator runs,
// parameterized by one language's row of its policy table.
#pragma once

#include "codemodel/model.hpp"
#include "common/diagnostics.hpp"

namespace wsx::compilers {

struct CheckPolicy {
  /// Diagnostic code prefix, e.g. "javac", "csc", "vbc", "jsc".
  std::string tool;
  /// VB.NET compares identifiers without case; everything else with case.
  bool case_insensitive_members = false;
  /// javac: emit one "unchecked or unsafe operations" note per unit that
  /// declares a raw collection.
  bool warn_on_raw_collections = false;
};

/// Runs duplicate-member, duplicate-parameter, identifier-resolution,
/// missing-body and raw-collection checks on every class of `unit`.
void check_unit(const code::CompilationUnit& unit, const CheckPolicy& policy,
                DiagnosticSink& sink);

}  // namespace wsx::compilers
