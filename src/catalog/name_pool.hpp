// name_pool.hpp — deterministic realistic-looking type-name synthesis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/intern.hpp"
#include "common/rng.hpp"
#include "xsd/builtin.hpp"

namespace wsx::catalog {

/// The catalogs' PRNG: the common splitmix64 stream (common/rng.hpp),
/// seeded with the catalog spec's raw seed.
using Rng = wsx::Rng;

/// Synthesizes unique class names that look like platform API types
/// ("BufferedChannelWriter", "DataGridViewCell", ...). Names are unique per
/// pool instance; deterministic for a given seed and call sequence.
class NamePool {
 public:
  /// `expected_names`, when known, sizes the used-name set up front.
  explicit NamePool(std::uint64_t seed, std::size_t expected_names = 0) : rng_(seed) {
    used_.reserve(expected_names);
  }

  /// A fresh class name, optionally forced to end with `suffix`
  /// (e.g. "Exception").
  std::string next_class_name(const std::string& suffix = "");

  /// A field name (camelCase), unique within nothing — callers dedupe.
  std::string next_field_name();

  /// A random built-in schema type for a field.
  xsd::Builtin next_field_type();

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  StringInterner used_;
  std::string candidate_;  ///< next_class_name's buffer, reused across calls
};

}  // namespace wsx::catalog
