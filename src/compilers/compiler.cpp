#include "compilers/compiler.hpp"

#include "compilers/semantic_checks.hpp"

namespace wsx::compilers {

DiagnosticSink Compiler::compile(const code::Artifacts& artifacts) const {
  DiagnosticSink sink;
  for (const code::CompilationUnit& unit : artifacts.units) {
    if (language_ == code::Language::kJScript && unit.pathological) {
      // jsc aborts the whole compilation with an internal error on the
      // pathological units the JScript generator emits.
      sink.crash("jsc.internal-crash", "131 INTERNAL COMPILER CRASH", unit.name);
      return sink;
    }
    check_unit(unit, *policy_, sink);
  }
  return sink;
}

namespace {

struct Row {
  code::Language language;
  CheckPolicy policy;
};

/// The row of `language`, or nullptr for a dynamic language.
const Row* find_row(code::Language language) {
  // One row per compiled language. The tool name prefixes every diagnostic
  // code; a flag marks where that compiler differs from the rest.
  static const Row kPolicies[] = {
      // javac: one "unchecked or unsafe operations" note per raw collection.
      {code::Language::kJava, {.tool = "javac", .warn_on_raw_collections = true}},
      {code::Language::kCSharp, {.tool = "csc"}},
      // vbc: members differing only in case collide.
      {code::Language::kVisualBasic, {.tool = "vbc", .case_insensitive_members = true}},
      {code::Language::kJScript, {.tool = "jsc"}},
      {code::Language::kCpp, {.tool = "g++"}},
  };
  for (const Row& row : kPolicies) {
    if (row.language == language) return &row;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Compiler> make_compiler(code::Language language) {
  const Row* row = find_row(language);
  if (row == nullptr) return nullptr;  // PHP, Python: dynamic languages use check_instantiation
  return std::unique_ptr<Compiler>(new Compiler(language, row->policy));
}

bool folds_member_case(code::Language language) {
  const Row* row = find_row(language);
  return row != nullptr && row->policy.case_insensitive_members;
}

}  // namespace wsx::compilers
