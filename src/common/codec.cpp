#include "common/codec.hpp"

namespace wsx::codec::detail {

void open_member(std::string& out, bool& first, std::string_view key) {
  if (!first) out += ',';
  first = false;
  write_string(out, key);
  out += ':';
}

void write_string(std::string& out, std::string_view text) {
  out += '"';
  out += json::escape(text);
  out += '"';
}

std::string member_path(const std::string& parent, std::string_view key) {
  return parent.empty() ? std::string(key) : parent + "." + std::string(key);
}

bool read_integer(const json::Value& value, bool is_signed, std::uint64_t max,
                  const std::string& where, Problems& problems, std::uint64_t& magnitude,
                  bool& negative) {
  if (value.is_integer()) {
    magnitude = value.magnitude();
    negative = value.is_negative();
    if (negative ? is_signed && magnitude - 1 <= max : magnitude <= max) return true;
  }
  const std::string low = is_signed ? "-" + std::to_string(max + 1) : "0";
  problems.push_back("'" + where + "' is not an integer in [" + low + ", " +
                     std::to_string(max) + "]");
  return false;
}

Error failure(std::string_view code, std::string_view what, const Problems& problems) {
  std::string message(what);
  message += ": ";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i != 0) message += "; ";
    message += problems[i];
  }
  return Error{std::string(code), std::move(message)};
}

}  // namespace wsx::codec::detail
