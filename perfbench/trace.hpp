// trace.hpp — the benchmark's in-memory span recorder.
//
// Spans are recorded by the benchmark's own code around each public call it
// makes into a layer; nothing inside the libraries is instrumented. Each
// thread appends to its own buffer (no lock on the hot path), so a span
// costs two clock reads and one push. A span holds its name, start, end,
// parent span and thread; spans are gathered and written out once the run
// has ended and its worker threads have joined.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover. Children may run on other threads (a
// phase span parents the slices its workers run), so the covered part is
// the union of the child intervals, not their sum.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Identifies a span; 0 means "no span" (a root).
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  const char* name = "";  ///< a string literal; spans compare names by content
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Nanoseconds on the steady clock since the recorder's epoch.
std::uint64_t now_ns();

/// Recording is off until enabled; a disabled Scope records nothing.
void set_enabled(bool enabled);
bool enabled();

/// One span, open from construction until end() or destruction. Without an
/// explicit parent, the innermost open Scope on this thread is the parent.
class Scope {
 public:
  explicit Scope(const char* name);
  Scope(const char* name, SpanId parent);
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  SpanId id() const { return span_.id; }
  /// Closes the span; later calls do nothing.
  void end();

 private:
  void open(const char* name, SpanId parent);

  Span span_;
  Scope* outer_ = nullptr;  ///< the Scope that was innermost before this one
  bool open_ = false;
};

/// Moves every recorded span out of the per-thread buffers, releases their
/// storage and frees the buffers of threads that have ended, so memory holds
/// only what was recorded since the last drain. Call only when no other
/// thread is recording.
std::vector<Span> drain();

/// Per-name totals over a set of spans.
struct NameTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;  ///< sum of durations
  double self_ns = 0.0;   ///< sum of durations minus covered child time
};

/// Self time of every span, in the order given.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Groups spans by name.
std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans);

/// Writes one span per line: id, parent, thread, name, start_ns, end_ns,
/// self_ns (tab-separated, with a header). Returns false when the file
/// cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench::trace
