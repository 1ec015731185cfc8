// Byte-level primitives of the PowerLens binary interchange (.plbin), the
// one persistence format for every artifact that crosses a process
// boundary: graphs, plans and cost tables (io/interchange.hpp) and trained
// model bundles (core::encode_model_bundle). A leaf library (pl_binary), so
// the linalg, nn and core layers encode their own objects.
//
// The wire format is pinned, not host-defined:
//   - every multi-byte integer is little-endian, assembled/split by explicit
//     shifts (no memcpy of host-order structs), so files written on any host
//     read back identically on any other;
//   - doubles travel as the IEEE-754 bit pattern in a little-endian u64
//     (std::bit_cast both ways), making round-trips bitwise exact;
//   - every record is length-prefixed and carries an FNV-1a checksum of its
//     payload. FNV-1a's per-byte step (h ^ b) * prime is a bijection on
//     u64, so *any* single-byte change to a payload is guaranteed — not just
//     likely — to change the checksum; the corruption gauntlet leans on
//     this.
//
// Record layout (header is kHeaderSize = 24 bytes):
//   offset  size  field
//        0     4  magic "PLBN"
//        4     2  format version (u16, currently 1)
//        6     2  record type (u16, RecordType)
//        8     8  payload size in bytes (u64)
//       16     8  FNV-1a-64 checksum of the payload bytes (u64)
//       24     -  payload
//
// Readers validate strictly in this order: magic, version, record type,
// payload bounds, checksum — each failure mapped to its io::Error subclass
// (error.hpp). Only a checksum-valid payload is ever decoded.
#pragma once

#include "io/error.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace powerlens::io {

inline constexpr std::array<unsigned char, 4> kMagic{'P', 'L', 'B', 'N'};
inline constexpr std::uint16_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderSize = 24;
// Cost-table payloads align their prefix-sum arrays to this boundary
// (relative to the start of the file). Every reader decodes onto the heap,
// so nothing depends on the alignment; the padding stays because dropping
// it would change format version 1's bytes.
inline constexpr std::size_t kPageAlign = 4096;

enum class RecordType : std::uint16_t {
  kGraph = 1,
  kPlan = 2,
  kCostTable = 3,
  kModelBundle = 4,
};

const char* record_type_name(RecordType type) noexcept;

// FNV-1a 64-bit over a byte range (offset basis 14695981039346656037).
std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept;

// Append-only little-endian payload builder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);  // two's-complement u64
  void f64(double v);        // IEEE-754 bit pattern
  // u64 element count + the values.
  void f64s(std::span<const double> v);
  // u32 byte length + raw bytes (no terminator).
  void str(std::string_view s);
  void bytes(std::span<const std::byte> b);
  // Zero-pads so that (file_base + size()) is a multiple of `align`.
  // `file_base` is the payload's absolute offset in the final file.
  void pad_to(std::size_t align, std::size_t file_base);

  std::size_t size() const noexcept { return buf_.size(); }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

// Bounds-checked little-endian reader; every overrun throws TruncatedError.
class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  // A Writer::f64s array; the count is bounded by count() before allocating.
  std::vector<double> f64s();
  std::string str();
  std::span<const std::byte> bytes(std::size_t n);
  // Skips padding so that (file_base + offset()) is a multiple of `align`.
  void skip_to(std::size_t align, std::size_t file_base);

  // Reads a u64 element count and rejects counts that could not possibly
  // fit in the remaining bytes at `min_bytes_each` per element — the guard
  // that keeps a forged length field from triggering a huge allocation.
  std::uint64_t count(std::size_t min_bytes_each);

  std::size_t offset() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  // Throws MalformedError unless every payload byte was consumed.
  void expect_done(std::string_view what) const;

 private:
  void need(std::size_t n) const;

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// Wraps `payload` in a checksummed record: header + payload bytes.
std::vector<std::byte> frame_record(RecordType type,
                                    std::vector<std::byte> payload);

struct RecordView {
  RecordType type = RecordType::kGraph;
  std::span<const std::byte> payload;
  std::size_t total_size = 0;  // header + payload, for multi-record files
};

// Validates the record at the head of `data` (magic, version, bounds,
// checksum) and returns a view of its payload. Trailing bytes after the
// record are allowed (multi-record streams); the caller advances by
// `total_size`.
RecordView parse_record(std::span<const std::byte> data);
// As above, but additionally requires the record type.
RecordView parse_record(std::span<const std::byte> data, RecordType expected);

// Whole-file helpers. read_file throws std::runtime_error when the path
// cannot be opened (a missing file is an environment error, not bit rot).
std::vector<std::byte> read_file(const std::string& path);
void write_file(const std::string& path, std::span<const std::byte> bytes);

}  // namespace powerlens::io
