#include "common/serial.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "common/binio.hpp"

namespace prime::common {

// --- StateWriter -------------------------------------------------------------

void StateWriter::u8(std::uint8_t v) {
  out_->put(static_cast<char>(v));
}

void StateWriter::u32(std::uint32_t v) {
  unsigned char buf[4];
  store_u32(buf, v);
  out_->write(reinterpret_cast<const char*>(buf), sizeof(buf));
}

void StateWriter::u64(std::uint64_t v) {
  unsigned char buf[8];
  store_u64(buf, v);
  out_->write(reinterpret_cast<const char*>(buf), sizeof(buf));
}

void StateWriter::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void StateWriter::f64(double v) {
  unsigned char buf[8];
  store_f64(buf, v);
  out_->write(reinterpret_cast<const char*>(buf), sizeof(buf));
}

void StateWriter::boolean(bool v) { u8(v ? 1 : 0); }

void StateWriter::str(const std::string& v) {
  u64(v.size());
  out_->write(v.data(), static_cast<std::streamsize>(v.size()));
}

void StateWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

void StateWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (const std::uint64_t x : v) u64(x);
}

// --- StateReader -------------------------------------------------------------

void StateReader::read_bytes(unsigned char* out, std::size_t n) {
  in_->read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in_->gcount()) != n) {
    throw SerialError("serialised state: truncated payload (wanted " +
                      std::to_string(n) + " more bytes)");
  }
}

std::uint8_t StateReader::u8() {
  unsigned char b = 0;
  read_bytes(&b, 1);
  return b;
}

std::uint32_t StateReader::u32() {
  unsigned char buf[4];
  read_bytes(buf, sizeof(buf));
  return load_u32(buf);
}

std::uint64_t StateReader::u64() {
  unsigned char buf[8];
  read_bytes(buf, sizeof(buf));
  return load_u64(buf);
}

std::int64_t StateReader::i64() {
  return static_cast<std::int64_t>(u64());
}

double StateReader::f64() {
  unsigned char buf[8];
  read_bytes(buf, sizeof(buf));
  return load_f64(buf);
}

bool StateReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) {
    throw SerialError("serialised state: malformed boolean (byte " +
                      std::to_string(v) + ")");
  }
  return v == 1;
}

std::string StateReader::str() { return read_counted(kMaxString, "string"); }

std::string StateReader::blob() { return read_counted(kMaxBlob, "blob"); }

std::string StateReader::read_counted(std::uint64_t max, const char* what) {
  const std::uint64_t n = u64();
  if (n > max) {
    throw SerialError("serialised state: " + std::string(what) + " length " +
                      std::to_string(n) + " exceeds the " +
                      std::to_string(max) + " byte bound (corrupt payload?)");
  }
  // Grow a chunk at a time, so a corrupt length the stream cannot back
  // fails at its end instead of after allocating the claimed size.
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  std::string out;
  while (out.size() < n) {
    const std::size_t at = out.size();
    const auto take = static_cast<std::size_t>(std::min(n - at, kChunk));
    out.resize(at + take);
    in_->read(out.data() + at, static_cast<std::streamsize>(take));
    if (static_cast<std::size_t>(in_->gcount()) != take) {
      throw SerialError("serialised state: truncated " + std::string(what) +
                        " payload");
    }
  }
  return out;
}

std::vector<double> StateReader::vec_f64() {
  const std::uint64_t n = u64();
  // Each element costs 8 bytes in the stream; a count the stream cannot
  // physically hold is corruption, caught element-by-element below without
  // an eager mega-allocation only when the count is plausible.
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(n, 1u << 20)));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(f64());
  return out;
}

std::vector<std::uint64_t> StateReader::vec_u64() {
  const std::uint64_t n = u64();
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(n, 1u << 20)));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(u64());
  return out;
}

}  // namespace prime::common
