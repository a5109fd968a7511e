// intern.hpp — a deduplicating string table.
//
// Grown out of catalog::NamePool's used-name set: several subsystems keep
// a set of strings that repeat heavily (QName prefixes and namespace URIs
// during parsing, synthesized type names in the catalogs, diagnostic codes
// in aggregation) and only ever need one canonical copy. StringInterner
// stores that copy and hands out stable references, with heterogeneous
// lookup so queries never allocate.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_set>

namespace wsx {

class StringInterner {
 public:
  /// Canonical instance of `text`; inserted on first use. The reference
  /// stays valid for the interner's lifetime (node-based storage).
  const std::string& intern(std::string_view text);

  /// Inserts `text` if absent; true when it was newly added. This is the
  /// NamePool uniqueness primitive (insert(...).second), without building
  /// a temporary std::string for strings already present.
  bool insert(std::string_view text);

  bool contains(std::string_view text) const;
  std::size_t size() const { return entries_.size(); }
  /// Room for `count` strings without rehashing.
  void reserve(std::size_t count) { entries_.reserve(count); }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  std::unordered_set<std::string, Hash, std::equal_to<>> entries_;
};

}  // namespace wsx
