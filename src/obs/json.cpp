#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace powerlens::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  // Integers below 2^53 print exactly and without an exponent or trailing
  // fraction; everything else keeps round-trip precision. std::to_chars
  // with an explicit format and precision prints what printf's "%.0f" and
  // "%.12g" print in the C locale, whatever the process locale is.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    // Every such value is an exact int64, and the integer formatter prints
    // the digits "%.0f" would, several times faster. Only -0.0 differs:
    // "%.0f" keeps its sign.
    if (v == 0.0 && std::signbit(v)) {
      out += "-0";
      return;
    }
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), static_cast<std::int64_t>(v));
    out.append(buf, r.ptr);
    return;
  }
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 12);
  out.append(buf, r.ptr);
}

void append_json_number_or_null(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  append_json_number(out, v);
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

std::string hex_signature(std::uint64_t sig) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(sig));
  return buf;
}

JsonWriter& JsonWriter::field(std::string_view key, double value) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  append_json_escaped(body_, key);
  body_ += "\": ";
  append_json_number(body_, value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  append_json_escaped(body_, key);
  body_ += "\": \"";
  append_json_escaped(body_, value);
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field_or_null(std::string_view key, double value) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  append_json_escaped(body_, key);
  body_ += "\": ";
  append_json_number_or_null(body_, value);
  return *this;
}

JsonWriter& JsonWriter::fields(std::string_view rendered) {
  if (rendered.empty()) return *this;
  if (!body_.empty()) body_ += ", ";
  body_ += rendered;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  append_json_escaped(body_, key);
  body_ += "\": ";
  body_ += value ? "true" : "false";
  return *this;
}

std::string JsonWriter::str() const { return "{" + body_ + "}"; }

}  // namespace powerlens::obs
