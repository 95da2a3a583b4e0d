/// \file sealed.hpp
/// \brief The sealed-file envelope shared by `.ckpt` checkpoints, `.qpol`
///        policy entries and `.fsum` shard summaries.
///
/// On-disk layout (little-endian, 64 B header + sealed payload):
///
///     offset size header field
///          0    8 magic (one per format)
///          8    4 u32 format version
///         12    4 u32 header size (64)
///         16    8 u64 payload size — kSealedUnsealed until sealed
///         24   40 five u64 header words, the format's own (unused ones 0)
///
/// The payload is common::StateWriter encoding. write_sealed() puts the
/// header down with the unsealed sentinel, writes the payload, and only then
/// patches the payload size in ("sealing"); with the tmp+rename of
/// save_file_atomically, a reader sees the previous file or the new one, and
/// a torn write is detectable. read_sealed() fails closed with the format's
/// own error type, naming the file and the failed check: truncated header,
/// bad magic, unsupported version, header-size mismatch, unsealed, payload
/// size mismatch, trailing bytes. `.bt` traces have their own header (128 B,
/// a record-count seal, follow mode) and do not use this envelope.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/binio.hpp"
#include "common/serial.hpp"

namespace prime::common {

/// \brief Fixed header size; the payload starts here.
inline constexpr std::size_t kSealedHeaderSize = 64;
/// \brief Payload-size sentinel meaning "write still in progress / torn".
inline constexpr std::uint64_t kSealedUnsealed = ~std::uint64_t{0};

/// \brief The format-specific u64 header words at offsets 24, 32, ..., 56.
using SealedWords = std::array<std::uint64_t, 5>;

/// \brief One sealed format's identity.
struct SealedFormat {
  std::array<unsigned char, 8> magic;  ///< Identification bytes at offset 0.
  std::uint32_t version;               ///< The version this build reads/writes.
  const char* name;  ///< Names the format in errors ("checkpoint", ...).
};

/// \brief Write \p format's header with \p words, run \p write_payload on a
///        StateWriter over \p out, then seal. \p out must be seekable.
///        Throws \p Error when any write failed.
template <typename Error, typename WritePayload>
void write_sealed(std::ostream& out, const SealedFormat& format,
                  const SealedWords& words, WritePayload&& write_payload) {
  const std::streampos base = out.tellp();
  std::array<unsigned char, kSealedHeaderSize> header{};
  std::copy(format.magic.begin(), format.magic.end(), header.begin());
  store_u32(header.data() + 8, format.version);
  store_u32(header.data() + 12, static_cast<std::uint32_t>(kSealedHeaderSize));
  store_u64(header.data() + 16, kSealedUnsealed);
  for (std::size_t i = 0; i < words.size(); ++i) {
    store_u64(header.data() + 24 + 8 * i, words[i]);
  }
  out.write(reinterpret_cast<const char*>(header.data()), header.size());

  StateWriter w(out);
  write_payload(w);

  // Seal: patch the payload size in place only now that every byte is down.
  const std::streampos end = out.tellp();
  unsigned char sealed[8];
  store_u64(sealed, static_cast<std::uint64_t>(
                        end - base - static_cast<std::streamoff>(header.size())));
  out.seekp(base + static_cast<std::streamoff>(16));
  out.write(reinterpret_cast<const char*>(sealed), sizeof(sealed));
  out.seekp(end);
  out.flush();
  if (!out.good()) {
    throw Error(std::string(format.name) +
                ": stream write failed while sealing (disk full?)");
  }
}

/// \brief Validate \p format's header, run \p read_payload on a StateReader
///        over \p in, and check the payload filled the sealed size exactly
///        and nothing follows it. Returns the header words. Every failure
///        throws \p Error naming \p label (the file, usually) and the failed
///        check; a common::SerialError from \p read_payload is rethrown so.
template <typename Error, typename ReadPayload>
SealedWords read_sealed(std::istream& in, const SealedFormat& format,
                        const std::string& label, ReadPayload&& read_payload) {
  const std::string where = std::string(format.name) + " '" + label + "': ";
  std::array<unsigned char, kSealedHeaderSize> header{};
  in.read(reinterpret_cast<char*>(header.data()), header.size());
  if (static_cast<std::size_t>(in.gcount()) != header.size()) {
    throw Error(where + "truncated header");
  }
  if (!std::equal(format.magic.begin(), format.magic.end(), header.begin())) {
    throw Error(where + "bad magic — not a PRIME-RTM " + format.name);
  }
  const std::uint32_t version = load_u32(header.data() + 8);
  if (version != format.version) {
    throw Error(where + "unsupported version " + std::to_string(version) +
                " (this build supports " + std::to_string(format.version) +
                ")");
  }
  const std::uint32_t header_size = load_u32(header.data() + 12);
  if (header_size != kSealedHeaderSize) {
    throw Error(where + "header size mismatch (" +
                std::to_string(header_size) + ", expected " +
                std::to_string(kSealedHeaderSize) + ")");
  }
  const std::uint64_t payload = load_u64(header.data() + 16);
  if (payload == kSealedUnsealed) {
    throw Error(where +
                "unsealed — the writer never finished (torn write or "
                "crashed producer)");
  }
  SealedWords words{};
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = load_u64(header.data() + 24 + 8 * i);
  }

  const std::streampos payload_start = in.tellg();
  try {
    StateReader r(in);
    read_payload(r);
  } catch (const SerialError& e) {
    throw Error(where + e.what());
  }
  const auto consumed = static_cast<std::uint64_t>(in.tellg() - payload_start);
  if (consumed != payload) {
    throw Error(where + "payload size mismatch (header promises " +
                std::to_string(payload) + " bytes, parsed " +
                std::to_string(consumed) + ") — truncated or trailing bytes");
  }
  // Anything after the sealed payload is not ours: reject rather than ignore.
  in.peek();
  if (!in.eof()) throw Error(where + "trailing bytes after the sealed payload");
  return words;
}

/// \brief Open \p path for read_sealed(); throws \p Error naming the file
///        when it cannot be opened.
template <typename Error>
std::ifstream open_sealed(const std::string& path, const SealedFormat& format) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error(std::string(format.name) + " '" + path +
                "': cannot open for reading");
  }
  return in;
}

}  // namespace prime::common
