// diagnostics.hpp — structured diagnostics emitted by every pipeline stage.
//
// The study classifies each testing-phase step outcome by the diagnostics
// the tool produced: errors abort the pipeline for a service, warnings are
// recorded and the pipeline continues (paper §III.B.d).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace wsx {

enum class Severity {
  kNote,     ///< informational; never affects classification
  kWarning,  ///< tool produced output but flagged an issue
  kError,    ///< tool failed to produce (usable) output
  kCrash,    ///< tool itself crashed (counts as an error in classification)
};

const char* to_string(Severity severity);

/// Inverse of to_string(Severity); false when `text` names no severity.
/// The codec (common/codec.hpp) reads journaled severities through it.
bool from_string(std::string_view text, Severity& out);

/// Position of a diagnostic inside a source document. Lines and columns are
/// 1-based; 0 means "unknown" (e.g. for models built programmatically
/// rather than parsed from text).
struct SourceLocation {
  std::string uri;          ///< document path/URI; "" = unknown document
  std::size_t line = 0;
  std::size_t column = 0;

  bool known() const { return line != 0; }
  /// "uri:line:col", omitting unknown parts.
  std::string str() const;

  friend bool operator==(const SourceLocation&, const SourceLocation&) = default;
};

/// One message from a tool (WSDL generator, artifact generator, compiler,
/// lint rule).
struct Diagnostic {
  Severity severity = Severity::kNote;
  std::string code;     ///< stable identifier, e.g. "axis1.unresolved-ident"
  std::string message;  ///< human-readable text
  std::string subject;  ///< what the diagnostic is about (class, file, symbol)
  SourceLocation location;  ///< where in the source document, when known
  std::string fixit;    ///< suggested remedy; "" = none

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// A diagnostic's fields under the compact keys of a journaled study row
/// (common/codec.hpp).
template <class V>
void fields(V& v, Diagnostic& diagnostic) {
  v("sev", diagnostic.severity);
  v("code", diagnostic.code);
  v("msg", diagnostic.message);
  v("subj", diagnostic.subject);
  v("uri", diagnostic.location.uri);
  v("line", diagnostic.location.line);
  v("col", diagnostic.location.column);
  v("fix", diagnostic.fixit);
}

/// Accumulates diagnostics produced during one tool invocation.
class DiagnosticSink {
 public:
  void add(Diagnostic diagnostic) { diagnostics_.push_back(std::move(diagnostic)); }
  void note(std::string code, std::string message, std::string subject = {});
  void warn(std::string code, std::string message, std::string subject = {});
  void error(std::string code, std::string message, std::string subject = {});
  void crash(std::string code, std::string message, std::string subject = {});

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  /// Mutable access, for consumers that aggregate by moving diagnostics out
  /// of a sink they own instead of copying them.
  std::vector<Diagnostic>& diagnostics() { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }

  std::size_t count(Severity severity) const;
  bool has_errors() const;    ///< true if any kError or kCrash
  bool has_warnings() const;  ///< true if any kWarning

  /// Appends all diagnostics from `other`.
  void merge(const DiagnosticSink& other);

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace wsx
