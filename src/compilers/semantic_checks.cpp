#include "compilers/semantic_checks.hpp"

#include <algorithm>
#include <string>
#include <string_view>

#include "common/strings.hpp"

namespace wsx::compilers {
namespace {

bool names_equal(const CheckPolicy& policy, std::string_view a, std::string_view b) {
  return policy.case_insensitive_members ? iequals(a, b) : a == b;
}

std::string_view name_of(const code::Field& field) { return field.name; }
std::string_view name_of(const code::Param& param) { return param.name; }
std::string_view name_of(const std::string& local) { return local; }

/// True when a declaration in [first, last) is named `needle` under the
/// policy's comparison; compares in place, copying no name.
template <typename It>
bool declares(const CheckPolicy& policy, It first, It last, std::string_view needle) {
  return std::any_of(first, last, [&](const auto& declaration) {
    return names_equal(policy, name_of(declaration), needle);
  });
}

void check_class(const code::CompilationUnit& unit, const code::Class& cls,
                 const CheckPolicy& policy, DiagnosticSink& sink) {
  // Member collision: two fields, or a field and a method, with the same
  // (possibly case-folded) name.
  for (auto field = cls.fields.begin(); field != cls.fields.end(); ++field) {
    if (declares(policy, cls.fields.begin(), field, field->name)) {
      sink.error(policy.tool + ".duplicate-member",
                 "member '" + field->name + "' is already declared in '" + cls.name + "'",
                 unit.name);
    }
  }
  for (const code::Method& method : cls.methods) {
    if (declares(policy, cls.fields.begin(), cls.fields.end(), method.name)) {
      sink.error(policy.tool + ".duplicate-member",
                 "'" + method.name + "' collides with a member of the same name in '" +
                     cls.name + "'",
                 unit.name);
    }
  }

  for (const code::Method& method : cls.methods) {
    // Duplicate parameters.
    for (auto param = method.params.begin(); param != method.params.end(); ++param) {
      if (declares(policy, method.params.begin(), param, param->name)) {
        sink.error(policy.tool + ".duplicate-parameter",
                   "parameter '" + param->name + "' is declared twice in '" + cls.name + "." +
                       method.name + "'",
                   unit.name);
      }
      // A parameter colliding with the method itself (the VB.NET failure:
      // "a parameter and a method share the same name").
      if (names_equal(policy, param->name, method.name)) {
        sink.error(policy.tool + ".duplicate-member",
                   "parameter '" + param->name + "' collides with method '" + method.name + "'",
                   unit.name);
      }
    }

    if (!method.has_body) {
      sink.error(policy.tool + ".missing-body",
                 "method '" + cls.name + "." + method.name + "' has no implementation",
                 unit.name);
    }

    // Identifier resolution: every referenced symbol must be a parameter, a
    // declared local, or a field of the class.
    for (const std::string& symbol : method.referenced_symbols) {
      const bool resolved =
          declares(policy, method.params.begin(), method.params.end(), symbol) ||
          declares(policy, method.local_decls.begin(), method.local_decls.end(), symbol) ||
          declares(policy, cls.fields.begin(), cls.fields.end(), symbol);
      if (!resolved) {
        sink.error(policy.tool + ".unresolved-identifier",
                   "cannot find symbol '" + symbol + "' in '" + cls.name + "." + method.name +
                       "'",
                   unit.name);
      }
    }
  }
}

}  // namespace

void check_unit(const code::CompilationUnit& unit, const CheckPolicy& policy,
                DiagnosticSink& sink) {
  for (const code::Class& cls : unit.classes) check_class(unit, cls, policy, sink);

  // Base classes must resolve within the unit (generated artifacts are
  // self-contained).
  for (const code::Class& cls : unit.classes) {
    if (cls.base.empty()) continue;
    const bool resolved =
        std::any_of(unit.classes.begin(), unit.classes.end(), [&](const code::Class& other) {
          return names_equal(policy, other.name, cls.base);
        });
    if (!resolved) {
      sink.error(policy.tool + ".unknown-base",
                 "base class '" + cls.base + "' of '" + cls.name + "' is not defined",
                 unit.name);
    }
  }

  if (policy.warn_on_raw_collections) {
    const bool has_raw = std::any_of(
        unit.classes.begin(), unit.classes.end(), [](const code::Class& cls) {
          return std::any_of(cls.fields.begin(), cls.fields.end(),
                             [](const code::Field& field) { return field.raw_collection; });
        });
    if (has_raw) {
      sink.warn(policy.tool + ".unchecked",
                "Note: " + unit.name + " uses unchecked or unsafe operations.", unit.name);
    }
  }
}

}  // namespace wsx::compilers
