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

namespace {

/// Elements encoded or decoded per stream call by the vector codecs.
constexpr std::size_t kVecChunk = 512;

/// Count, then the elements 8 bytes each, encoded a chunk at a time into a
/// stack buffer (the count rides with the first chunk), so a Q-table costs
/// one stream write instead of one per cell.
template <typename T, typename Store>
void write_vec(std::ostream& out, const std::vector<T>& v, Store store) {
  unsigned char buf[8 + kVecChunk * 8];
  store_u64(buf, v.size());
  std::size_t used = 8;
  std::size_t at = 0;
  do {
    const std::size_t take = std::min(v.size() - at, kVecChunk);
    for (std::size_t i = 0; i < take; ++i) {
      store(buf + used + 8 * i, v[at + i]);
    }
    out.write(reinterpret_cast<const char*>(buf),
              static_cast<std::streamsize>(used + 8 * take));
    at += take;
    used = 0;
  } while (at < v.size());
}

}  // namespace

void StateWriter::vec_f64(const std::vector<double>& v) {
  write_vec(*out_, v,
            [](unsigned char* p, double x) { store_f64(p, x); });
}

void StateWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  write_vec(*out_, v,
            [](unsigned char* p, std::uint64_t x) { store_u64(p, x); });
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

template <typename T, typename Load>
std::vector<T> StateReader::read_vec(Load load) {
  const std::uint64_t n = u64();
  // Decode a chunk per stream read, growing the vector as the chunks
  // arrive: a count the stream cannot back fails at the stream's end
  // instead of after allocating the claimed size.
  std::vector<T> out;
  unsigned char buf[kVecChunk * 8];
  while (out.size() < n) {
    const std::size_t at = out.size();
    const auto take =
        static_cast<std::size_t>(std::min<std::uint64_t>(n - at, kVecChunk));
    read_bytes(buf, 8 * take);
    out.resize(at + take);
    for (std::size_t i = 0; i < take; ++i) out[at + i] = load(buf + 8 * i);
  }
  return out;
}

std::vector<double> StateReader::vec_f64() {
  return read_vec<double>([](const unsigned char* p) { return load_f64(p); });
}

std::vector<std::uint64_t> StateReader::vec_u64() {
  return read_vec<std::uint64_t>(
      [](const unsigned char* p) { return load_u64(p); });
}

}  // namespace prime::common
