// Locale-independent numeric parsing and formatting.
//
// std::strtod / std::to_string / printf-family formatting all read the
// process C locale (LC_NUMERIC): under a comma-decimal locale, "0.1" stops
// parsing at the '.' and 0.1 formats as "0,1". Every text grammar in this
// repo (fault specs, JSON) is defined in the classic locale, so parsing and
// formatting route through std::from_chars / std::to_chars, which are
// locale-independent by specification. Persisted models are binary .plbin
// records (io/binary.hpp) and never format a number as text.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace powerlens::util {

// Parses `text` as a double in the classic locale ("0.5", "1e-3", "inf",
// "nan"; no leading/trailing junk, no leading whitespace). Returns false —
// leaving `out` untouched — when the text is not a complete number.
inline bool parse_double(std::string_view text, double& out) noexcept {
  double v = 0.0;
  const char* const first = text.data();
  const char* const last = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(first, last, v);
  if (r.ec != std::errc{} || r.ptr != last) return false;
  out = v;
  return true;
}

// Shortest round-trip decimal form of `v` in the classic locale.
inline std::string format_double(double v) {
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace powerlens::util
