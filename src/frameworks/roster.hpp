// roster.hpp — the rows of Table II: everything that sets one studied
// client tool apart. make_clients() (registry.hpp) runs one client tool per
// row, and the static predictor (analysis/predict.hpp) reads the same rows,
// so a tool's generation rules and artifact defects are stated once.
#pragma once

#include <span>
#include <string_view>

#include "codemodel/model.hpp"
#include "frameworks/artifact_builder.hpp"
#include "frameworks/client.hpp"
#include "frameworks/version_policy.hpp"

namespace wsx::frameworks {

/// One row of Table II.
struct ClientPolicy {
  std::string_view name = {};  ///< "Apache Axis1 1.4"
  std::string_view tool = {};  ///< "wsdl2java"
  code::Language language = code::Language::kJava;
  /// "wsimport": the prefix of the rules' codes and of "<prefix>.parse".
  std::string_view code_prefix = {};
  std::span<const FeatureRule> rules = {};  ///< in report order
  /// The erratic tools (Axis1, Axis2) leave partial artifacts behind even
  /// when they report an error — they "might silently reach" compilation
  /// (§III.B.c). The others build nothing once an error is reported.
  bool artifacts_survive_errors = false;
  ArtifactBuildOptions artifacts = {};  ///< the tool's code-generation defects
  ClientFramework::InvocationPolicy invocation = {};
  VersionPolicy version_policy = VersionPolicy::kStrict;
};

/// Table II's rows, in table order (make_clients() order).
std::span<const ClientPolicy> client_table();

}  // namespace wsx::frameworks
