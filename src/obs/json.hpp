// Minimal JSON emission helpers shared by every observability sink.
//
// One escaping routine and one number formatter serve the trace writer, the
// metrics exporters, and the bench record emitters, so there is exactly one
// place that knows how to keep output parseable (`python3 -m json.tool`
// clean): control characters are \u-escaped and non-finite doubles are
// clamped to 0, which JSON cannot represent.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace powerlens::obs {

// Appends `s` escaped for use inside a JSON string literal (no quotes).
void append_json_escaped(std::string& out, std::string_view s);

std::string json_escape(std::string_view s);

// Appends `v` as a valid JSON number. Non-finite values become 0 — use
// only where 0 is an honest stand-in (counter tracks, histogram sums);
// report fields where 0 would read as a perfect measurement should use
// append_json_number_or_null instead.
void append_json_number(std::string& out, double v);

// Appends `v` as a JSON number, or the literal `null` when it is NaN or
// infinite — the unambiguous encoding for "not measured".
void append_json_number_or_null(std::string& out, double v);

std::string json_number(double v);

// A 64-bit graph signature as fixed-width hex, e.g. "0x00000000deadbeef":
// the form journal records and residual series keys carry.
std::string hex_signature(std::uint64_t sig);

// Builder for one-line JSON object records, the format the bench binaries
// emit one measurement per line in. Integer-valued doubles print without a
// fractional part, so counters round-trip as integers.
class JsonWriter {
 public:
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::string_view value);
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonWriter& field(std::string_view key, bool value);
  // Emits `null` for NaN/infinite values instead of clamping to 0.
  JsonWriter& field_or_null(std::string_view key, double value);
  // Appends pre-rendered comma-joined fields (another writer's body()), so
  // a fragment many records share is formatted once. Empty appends nothing.
  JsonWriter& fields(std::string_view rendered);

  // The finished object, e.g. {"phase": "generate", "seconds": 0.41}.
  std::string str() const;

  // The comma-joined fields without the surrounding braces — for embedding
  // into a larger object (the journal's record envelope).
  const std::string& body() const noexcept { return body_; }

  bool empty() const noexcept { return body_.empty(); }

 private:
  std::string body_;
};

}  // namespace powerlens::obs
