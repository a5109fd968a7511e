// compiler.hpp — the compiler simulator for the artifact languages.
//
// One simulator runs the semantic checks a real compiler performs on
// generated proxy code: member collision detection (case-sensitive or not),
// identifier resolution, body presence, and the javac raw-types warning.
// Each compiled language is one row of the policy table in compiler.cpp,
// and the rows differ exactly where the real compilers differ — e.g. Visual
// Basic compares identifiers case-insensitively, which is why artifacts
// that C# accepts fail under VB (paper §IV.B.3).
#pragma once

#include <memory>

#include "codemodel/model.hpp"
#include "common/diagnostics.hpp"

namespace wsx::compilers {

struct CheckPolicy;

class Compiler {
 public:
  /// The language this compiler accepts.
  code::Language language() const { return language_; }

  /// Compiles `artifacts`, returning all diagnostics. An empty sink means a
  /// clean compile.
  DiagnosticSink compile(const code::Artifacts& artifacts) const;

 private:
  friend std::unique_ptr<Compiler> make_compiler(code::Language language);
  Compiler(code::Language language, const CheckPolicy& policy)
      : language_(language), policy_(&policy) {}

  code::Language language_;
  const CheckPolicy* policy_;  ///< a row of the static policy table
};

/// Returns the compiler simulator for `language`; nullptr for dynamic
/// languages (use check_instantiation instead).
std::unique_ptr<Compiler> make_compiler(code::Language language);

/// True when `language`'s compiler compares member names without case
/// (vbc); false for the others and for dynamic languages.
bool folds_member_case(code::Language language);

/// Instantiation check for dynamic-language clients (PHP Zend, Python
/// suds): verifies the client object can be created and reports a warning
/// when it exposes no invocable operations.
DiagnosticSink check_instantiation(const code::Artifacts& artifacts);

}  // namespace wsx::compilers
