#include "catalog/name_pool.hpp"

#include <array>
#include <string_view>

namespace wsx::catalog {
namespace {

constexpr std::array kRoots = {
    "Buffer",   "Channel", "Stream",  "Format",   "Event",    "Context",  "Session",
    "Registry", "Monitor", "Cursor",  "Document", "Element",  "Resource", "Socket",
    "Gradient", "Layout",  "Palette", "Renderer", "Index",    "Token",    "Lexer",
    "Schema",   "Binding", "Adapter", "Bridge",   "Cache",    "Cluster",  "Config",
    "Snapshot", "Journal", "Ledger",  "Metric",   "Quota",    "Routing",  "Sampler",
    "Timeline", "Vector",  "Matrix",  "Polygon",  "Spline",   "Texture",  "Widget",
    "Toolbar",  "Dialog",  "Wizard",  "Tracker",  "Profiler", "Decoder",  "Encoder",
    "Splitter",
};

constexpr std::array kQualifiers = {
    "Buffered",  "Cached",   "Chunked",   "Composite", "Concurrent", "Deferred",
    "Delegating", "Filtered", "Immutable", "Indexed",   "Inline",     "Lazy",
    "Managed",   "Mapped",   "Nested",    "Paged",     "Pooled",     "Remote",
    "Rolling",   "Scoped",   "Shared",    "Sorted",    "Streaming",  "Synced",
    "Threaded",  "Tracked",  "Typed",     "Versioned", "Virtual",    "Weighted",
};

constexpr std::array kSuffixes = {
    "",       "Reader",  "Writer",   "Handler", "Manager",  "Factory", "Builder",
    "Helper", "Support", "Provider", "Info",    "Entry",    "Spec",    "Descriptor",
    "Model",  "State",   "Result",   "Request", "Response", "Options",
};

constexpr std::array kFieldNames = {
    "value",  "name",    "id",     "count",  "flags",   "data",   "items",  "label",
    "offset", "length",  "status", "weight", "ratio",   "source", "target", "key",
    "index",  "version", "scale",  "bound",  "capacity", "mode",  "level",  "order",
};

constexpr std::array kFieldTypes = {
    xsd::Builtin::kString,  xsd::Builtin::kInt,      xsd::Builtin::kLong,
    xsd::Builtin::kBoolean, xsd::Builtin::kDouble,   xsd::Builtin::kFloat,
    xsd::Builtin::kShort,   xsd::Builtin::kDateTime, xsd::Builtin::kDecimal,
    xsd::Builtin::kByte,
};

}  // namespace

std::string NamePool::next_class_name(const std::string& suffix) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    // Root before qualifier, one draw per statement: the catalogs were
    // rendered when both draws sat in one `+` expression, whose operands
    // GCC 12 evaluates right to left.
    const std::string_view root = kRoots[rng_.below(kRoots.size())];
    const std::string_view qualifier = kQualifiers[rng_.below(kQualifiers.size())];
    const std::string_view tail =
        suffix.empty() ? std::string_view(kSuffixes[rng_.below(kSuffixes.size())]) : suffix;
    candidate_.assign(qualifier).append(root).append(tail);
    if (used_.insert(candidate_)) return std::string(candidate_);
  }
  // Pool exhausted for this shape: fall back to an indexed name, still
  // unique and deterministic.
  std::string name;
  do {
    name = std::string(kRoots[rng_.below(kRoots.size())]) + std::to_string(used_.size()) +
           suffix;
  } while (!used_.insert(name));
  return name;
}

std::string NamePool::next_field_name() {
  return std::string(kFieldNames[rng_.below(kFieldNames.size())]);
}

xsd::Builtin NamePool::next_field_type() {
  return kFieldTypes[rng_.below(kFieldTypes.size())];
}

}  // namespace wsx::catalog
