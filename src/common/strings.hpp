// strings.hpp — small string utilities used across the library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace wsx {

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

/// Splits `text` on `separator`; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char separator);

/// Joins `parts` with `separator`.
std::string join(const std::vector<std::string>& parts, std::string_view separator);

/// Removes leading/trailing XML whitespace (space, tab, CR, LF).
std::string_view trim(std::string_view text);

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

/// True if the strings are equal ignoring ASCII case (VB.NET identifier rule).
bool iequals(std::string_view a, std::string_view b);

/// Uppercases the first character (ASCII); used by artifact generators to
/// derive bean-style accessor names.
std::string capitalize(std::string_view text);

/// The width of a text table's name column: the longest of its header and
/// every row's name, plus a two-space gutter. `name` gives a row's name: a
/// data member (&Cell::client) or a callable.
template <typename Rows, typename Name>
int name_column_width(std::string_view header, const Rows& rows, Name name) {
  std::size_t longest = header.size();
  for (const auto& row : rows) {
    longest = std::max(longest, std::string_view(std::invoke(name, row)).size());
  }
  return static_cast<int>(longest + 2);
}

/// Replaces every occurrence of `from` in `text` with `to`.
std::string replace_all(std::string text, std::string_view from, std::string_view to);

/// Parses a non-negative decimal count (a command-line number). Rejects an
/// empty text, anything but digits (no sign, no space, no trailing junk)
/// and any value above SIZE_MAX; `out` is set only on success.
bool parse_count(std::string_view text, std::size_t& out);

}  // namespace wsx
