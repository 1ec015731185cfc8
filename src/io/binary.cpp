#include "io/binary.hpp"

#include <bit>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace powerlens::io {

const char* record_type_name(RecordType type) noexcept {
  switch (type) {
    case RecordType::kGraph: return "graph";
    case RecordType::kPlan: return "plan";
    case RecordType::kCostTable: return "cost_table";
    case RecordType::kModelBundle: return "model_bundle";
  }
  return "unknown";
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::byte b : bytes) {
    h = (h ^ static_cast<std::uint64_t>(std::to_integer<unsigned char>(b))) *
        1099511628211ULL;
  }
  return h;
}

// --- Writer ---

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::f64s(std::span<const double> v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void Writer::str(std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("io::Writer: string too long");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  for (char c : s) buf_.push_back(static_cast<std::byte>(c));
}

void Writer::bytes(std::span<const std::byte> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::pad_to(std::size_t align, std::size_t file_base) {
  while ((file_base + buf_.size()) % align != 0) {
    buf_.push_back(std::byte{0});
  }
}

// --- Cursor ---

void Cursor::need(std::size_t n) const {
  if (remaining() < n) {
    throw TruncatedError("need " + std::to_string(n) + " bytes at offset " +
                         std::to_string(pos_) + ", have " +
                         std::to_string(remaining()));
  }
}

std::uint8_t Cursor::u8() {
  need(1);
  return std::to_integer<std::uint8_t>(data_[pos_++]);
}

std::uint16_t Cursor::u16() {
  const std::uint16_t lo = u8();
  const std::uint16_t hi = u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t Cursor::u32() {
  const std::uint32_t lo = u16();
  const std::uint32_t hi = u16();
  return lo | (hi << 16);
}

std::uint64_t Cursor::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

std::int64_t Cursor::i64() { return static_cast<std::int64_t>(u64()); }

double Cursor::f64() { return std::bit_cast<double>(u64()); }

std::vector<double> Cursor::f64s() {
  std::vector<double> v(count(sizeof(double)));
  for (double& x : v) x = f64();
  return v;
}

std::string Cursor::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(n, '\0');
  for (std::uint32_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>(std::to_integer<unsigned char>(data_[pos_ + i]));
  }
  pos_ += n;
  return s;
}

std::span<const std::byte> Cursor::bytes(std::size_t n) {
  need(n);
  const std::span<const std::byte> out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void Cursor::skip_to(std::size_t align, std::size_t file_base) {
  while ((file_base + pos_) % align != 0) {
    need(1);
    ++pos_;
  }
}

std::uint64_t Cursor::count(std::size_t min_bytes_each) {
  const std::uint64_t n = u64();
  if (min_bytes_each == 0) min_bytes_each = 1;
  if (n > remaining() / min_bytes_each) {
    throw TruncatedError("count " + std::to_string(n) +
                         " cannot fit in remaining " +
                         std::to_string(remaining()) + " bytes");
  }
  return n;
}

void Cursor::expect_done(std::string_view what) const {
  if (remaining() != 0) {
    throw MalformedError(std::string(what) + ": " +
                         std::to_string(remaining()) +
                         " unconsumed payload bytes");
  }
}

// --- Record framing ---

std::vector<std::byte> frame_record(RecordType type,
                                    std::vector<std::byte> payload) {
  const std::uint64_t checksum = fnv1a(payload);
  Writer header;
  for (unsigned char m : kMagic) header.u8(m);
  header.u16(kFormatVersion);
  header.u16(static_cast<std::uint16_t>(type));
  header.u64(payload.size());
  header.u64(checksum);
  std::vector<std::byte> out = header.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

RecordView parse_record(std::span<const std::byte> data) {
  if (data.size() < kMagic.size()) {
    throw TruncatedError("file shorter than the magic");
  }
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (std::to_integer<unsigned char>(data[i]) != kMagic[i]) {
      throw BadMagicError("not a .plbin record");
    }
  }
  if (data.size() < kHeaderSize) {
    throw TruncatedError("file shorter than the record header");
  }
  Cursor header(data.subspan(kMagic.size(), kHeaderSize - kMagic.size()));
  const std::uint16_t version = header.u16();
  if (version != kFormatVersion) {
    throw VersionMismatchError("format version " + std::to_string(version) +
                               ", reader speaks " +
                               std::to_string(kFormatVersion));
  }
  const std::uint16_t raw_type = header.u16();
  if (raw_type < static_cast<std::uint16_t>(RecordType::kGraph) ||
      raw_type > static_cast<std::uint16_t>(RecordType::kModelBundle)) {
    throw WrongRecordTypeError("unknown record type " +
                               std::to_string(raw_type));
  }
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (payload_size > data.size() - kHeaderSize) {
    throw TruncatedError("payload of " + std::to_string(payload_size) +
                         " bytes, only " +
                         std::to_string(data.size() - kHeaderSize) +
                         " available");
  }
  RecordView view;
  view.type = static_cast<RecordType>(raw_type);
  view.payload = data.subspan(kHeaderSize, payload_size);
  view.total_size = kHeaderSize + payload_size;
  if (fnv1a(view.payload) != checksum) {
    throw ChecksumMismatchError("payload hash does not match the header");
  }
  return view;
}

RecordView parse_record(std::span<const std::byte> data, RecordType expected) {
  RecordView view = parse_record(data);
  if (view.type != expected) {
    throw WrongRecordTypeError(std::string("expected a ") +
                               record_type_name(expected) + " record, found " +
                               record_type_name(view.type));
  }
  return view;
}

// --- Files ---

std::vector<std::byte> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    throw std::runtime_error("io: cannot open '" + path + "'");
  }
  std::vector<std::byte> bytes;
  std::byte chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    throw std::runtime_error("io: read of '" + path + "' failed");
  }
  return bytes;
}

void write_file(const std::string& path, std::span<const std::byte> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    throw std::runtime_error("io: cannot open '" + path + "' for writing");
  }
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool failed = std::fclose(f) != 0 || written != bytes.size();
  if (failed) {
    throw std::runtime_error("io: write of '" + path + "' failed");
  }
}

}  // namespace powerlens::io
