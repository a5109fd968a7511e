// artifact_builder.hpp — shared client-artifact generation.
//
// Translates a parsed description into the generated-code model the way
// the wsdl2java-family tools do: one class per schema complexType (fields
// mirror the schema elements), plus a service proxy class with one method
// per operation. Tool-specific defects are injected through options; each
// defect produces *code* that the compiler simulators then genuinely
// reject, mirroring how the real failures were discovered.
#pragma once

#include "codemodel/model.hpp"
#include "frameworks/features.hpp"
#include "wsdl/model.hpp"

namespace wsx::frameworks {

struct ArtifactBuildOptions {
  code::Language language = code::Language::kJava;

  /// Axis1/Axis2 stubs use raw collections internally; javac then reports
  /// "unchecked or unsafe operations" on every compile.
  bool raw_collection_stubs = false;

  /// Axis1: the wrapper generated for Exception/Error-style types renames
  /// the "message" field but keeps referencing the original name
  /// (paper §IV.B.3, 889 compilation errors).
  bool throwable_wrapper_defect = false;

  /// Axis2: parameters follow the "local_<name>" convention, but for the
  /// XMLGregorianCalendar mapping the reference drops the underscore
  /// (paper §IV.B.3).
  bool local_suffix_defect = false;

  /// Axis2: each xs:any wildcard becomes an "extraElement" member; two
  /// wildcards in one type yield a duplicate member.
  bool wildcard_member_per_any = false;

  /// Axis2: enumeration wrappers declare the backing "value" member twice.
  bool enum_wrapper_defect = false;

  /// JScript: accessors for content nested catalog::kDeepNestingDepth
  /// levels or more, or for anyType-array content, are emitted without
  /// bodies ("did not produce the necessary functions").
  bool missing_body_on_complex_shapes = false;

  /// JScript: the generated unit for content nested
  /// catalog::kPathologicalNestingDepth levels or more drives the compiler
  /// into its internal crash.
  bool pathological_marker_on_very_deep = false;
};

/// Builds artifacts for `defs` (already parsed from served text).
code::Artifacts build_artifacts(const wsdl::Definitions& defs, const WsdlFeatures& features,
                                const ArtifactBuildOptions& options);

}  // namespace wsx::frameworks
