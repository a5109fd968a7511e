#include "common/diagnostics.hpp"

#include <algorithm>

namespace wsx {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
    case Severity::kCrash:
      return "crash";
  }
  return "unknown";
}

bool from_string(std::string_view text, Severity& out) {
  if (text == "note") {
    out = Severity::kNote;
  } else if (text == "warning") {
    out = Severity::kWarning;
  } else if (text == "error") {
    out = Severity::kError;
  } else if (text == "crash") {
    out = Severity::kCrash;
  } else {
    return false;
  }
  return true;
}

std::string SourceLocation::str() const {
  std::string out = uri;
  if (known()) {
    if (!out.empty()) out += ':';
    out += std::to_string(line);
    out += ':';
    out += std::to_string(column);
  }
  return out;
}

void DiagnosticSink::note(std::string code, std::string message, std::string subject) {
  add({Severity::kNote, std::move(code), std::move(message), std::move(subject), {}, {}});
}

void DiagnosticSink::warn(std::string code, std::string message, std::string subject) {
  add({Severity::kWarning, std::move(code), std::move(message), std::move(subject), {}, {}});
}

void DiagnosticSink::error(std::string code, std::string message, std::string subject) {
  add({Severity::kError, std::move(code), std::move(message), std::move(subject), {}, {}});
}

void DiagnosticSink::crash(std::string code, std::string message, std::string subject) {
  add({Severity::kCrash, std::move(code), std::move(message), std::move(subject), {}, {}});
}

std::size_t DiagnosticSink::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [severity](const Diagnostic& d) { return d.severity == severity; }));
}

bool DiagnosticSink::has_errors() const {
  return std::any_of(diagnostics_.begin(), diagnostics_.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kError || d.severity == Severity::kCrash;
  });
}

bool DiagnosticSink::has_warnings() const {
  return std::any_of(diagnostics_.begin(), diagnostics_.end(),
                     [](const Diagnostic& d) { return d.severity == Severity::kWarning; });
}

void DiagnosticSink::merge(const DiagnosticSink& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(), other.diagnostics_.end());
}

}  // namespace wsx
