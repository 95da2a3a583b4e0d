/// \file test_sealed.cpp
/// \brief The sealed formats as files: golden bytes pinning every byte
///        `.ckpt`, `.qpol` and `.fsum` write for fixed-seed fixtures, the
///        load -> save byte round trip, and one corruption suite running
///        every envelope mutation against every format.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>

#include "common/binio.hpp"
#include "common/hash.hpp"
#include "common/sealed.hpp"
#include "common/serial.hpp"
#include "fleet/summary.hpp"
#include "qlib/policy.hpp"
#include "sealed_fixtures.hpp"
#include "sim/checkpoint.hpp"

namespace prime {
namespace {

using testing_util::read_bytes;
using testing_util::write_bytes;

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "sealed-tests/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::uint64_t digest(const std::string& bytes) {
  common::Fnv1a64 h;
  h.bytes(bytes.data(), bytes.size());
  return h.value();
}

/// Save \p artifact, pin the file's length and digest, then check that
/// loading it and saving it again reproduces the same bytes.
template <typename Artifact>
void expect_golden(const Artifact& artifact, const std::string& path,
                   std::size_t size, std::uint64_t fnv) {
  artifact.save_file(path);
  const std::string bytes = read_bytes(path);
  EXPECT_EQ(bytes.size(), size) << path;
  EXPECT_EQ(digest(bytes), fnv) << path;
  Artifact::load_file(path).save_file(path + ".again");
  EXPECT_EQ(read_bytes(path + ".again"), bytes) << path;
}

// Changing any of these pins changes an on-disk format: bump its version.

TEST(SealedGolden, CheckpointBytes) {
  expect_golden(testing_util::sample_checkpoint(),
                temp_dir("ckpt") + "/golden.ckpt", 608,
                0x0ad1f4e6fb80b969ULL);
}

TEST(SealedGolden, PolicyEntryBytes) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  expect_golden(testing_util::train_leaf(*platform, "rtm", 1, 2),
                temp_dir("qpol") + "/golden.qpol", 8050,
                0x0061ebee06c3e4eeULL);
}

TEST(SealedGolden, ShardSummaryBytes) {
  expect_golden(
      testing_util::sample_summary(testing_util::tiny_population()),
      temp_dir("fsum") + "/golden.fsum", 1408, 0xd47cc922a31b8ebaULL);
}

// --- One corruption suite over every format -----------------------------------

enum class Format { kCheckpoint, kPolicy, kShardSummary };

enum class Mutation {
  kTruncatedHeader,
  kBadMagic,
  kVersionSkew,
  kHeaderSizeSkew,
  kUnsealed,
  kPayloadSizeSkew,
  kTruncatedPayload,
  kTrailingBytes,
  kBlobOverCap,
};

const char* format_name(Format f) {
  switch (f) {
    case Format::kCheckpoint: return "ckpt";
    case Format::kPolicy: return "qpol";
    case Format::kShardSummary: return "fsum";
  }
  return "?";
}

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kTruncatedHeader: return "truncated_header";
    case Mutation::kBadMagic: return "bad_magic";
    case Mutation::kVersionSkew: return "version_skew";
    case Mutation::kHeaderSizeSkew: return "header_size_skew";
    case Mutation::kUnsealed: return "unsealed";
    case Mutation::kPayloadSizeSkew: return "payload_size_skew";
    case Mutation::kTruncatedPayload: return "truncated_payload";
    case Mutation::kTrailingBytes: return "trailing_bytes";
    case Mutation::kBlobOverCap: return "blob_over_cap";
  }
  return "?";
}

void PrintTo(Format f, std::ostream* os) { *os << format_name(f); }
void PrintTo(Mutation m, std::ostream* os) { *os << mutation_name(m); }

/// How the load of a file ended: the format's own error and its message,
/// or a description of anything else (accepted, a foreign exception type).
struct Outcome {
  bool format_error = false;
  std::string message;
};

template <typename Error, typename Artifact>
Outcome load_outcome(const std::string& path) {
  try {
    (void)Artifact::load_file(path);
    return {false, "accepted"};
  } catch (const Error& e) {
    return {true, e.what()};
  } catch (const std::exception& e) {
    return {false, std::string("foreign exception: ") + e.what()};
  }
}

/// One valid file per format, plus the size of the blob its payload ends
/// with (the blob's u64 length sits just before it) and its loader.
struct Subject {
  std::string bytes;
  std::size_t last_blob = 0;
  std::function<Outcome(const std::string&)> load;
};

template <typename Artifact>
std::string saved_bytes(const Artifact& artifact) {
  std::ostringstream out(std::ios::binary);
  artifact.write(out);
  return out.str();
}

const Subject& subject(Format f) {
  static const Subject ckpt = [] {
    const sim::Checkpoint ck = testing_util::sample_checkpoint();
    return Subject{saved_bytes(ck), ck.platform_state.size(),
                   load_outcome<sim::CheckpointError, sim::Checkpoint>};
  }();
  static const Subject qpol = [] {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const qlib::PolicyEntry entry =
        testing_util::train_leaf(*platform, "rtm", 1, 2);
    return Subject{saved_bytes(entry), entry.blob.size(),
                   load_outcome<qlib::QlibError, qlib::PolicyEntry>};
  }();
  static const Subject fsum = [] {
    // A policy record, so the payload ends with an accumulator blob.
    fleet::ShardSummary summary =
        testing_util::sample_summary(testing_util::tiny_population());
    fleet::CellPolicy& policy = summary.policies[1];
    policy.governor_name = "rtm";
    policy.accumulator = std::string(40, '\x5a');
    return Subject{saved_bytes(summary), policy.accumulator.size(),
                   load_outcome<fleet::FleetError, fleet::ShardSummary>};
  }();
  switch (f) {
    case Format::kCheckpoint: return ckpt;
    case Format::kPolicy: return qpol;
    case Format::kShardSummary: return fsum;
  }
  return ckpt;
}

/// A mutated file: its bytes, the byte range the mutation touched, and the
/// words the rejection must name.
struct Mutated {
  std::string bytes;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string check;
};

unsigned char* at(std::string& bytes, std::size_t offset) {
  return reinterpret_cast<unsigned char*>(bytes.data()) + offset;
}

Mutated mutate(const Subject& s, Mutation m) {
  Mutated out{s.bytes, 0, 0, ""};
  std::string& b = out.bytes;
  const std::size_t size = s.bytes.size();
  const auto span = [&](std::size_t begin, std::size_t end, const char* check) {
    out.begin = begin;
    out.end = end;
    out.check = check;
  };
  switch (m) {
    case Mutation::kTruncatedHeader:
      b.resize(common::kSealedHeaderSize / 2);
      span(b.size(), size, "truncated header");
      break;
    case Mutation::kBadMagic:
      b[0] = static_cast<char>(b[0] ^ 0x01);
      span(0, 1, "bad magic");
      break;
    case Mutation::kVersionSkew:
      common::store_u32(at(b, 8), common::load_u32(at(b, 8)) + 1);
      span(8, 12, "unsupported version");
      break;
    case Mutation::kHeaderSizeSkew:
      common::store_u32(at(b, 12), 2 * common::kSealedHeaderSize);
      span(12, 16, "header size mismatch");
      break;
    case Mutation::kUnsealed:
      common::store_u64(at(b, 16), common::kSealedUnsealed);
      span(16, 24, "unsealed");
      break;
    case Mutation::kPayloadSizeSkew:
      common::store_u64(at(b, 16), common::load_u64(at(b, 16)) - 1);
      span(16, 24, "payload size mismatch");
      break;
    case Mutation::kTruncatedPayload:
      b.resize(size - 5);
      span(b.size(), size, "truncated");
      break;
    case Mutation::kTrailingBytes:
      b += "junk";
      span(size, b.size(), "trailing bytes");
      break;
    case Mutation::kBlobOverCap: {
      const std::size_t length = size - s.last_blob - 8;
      common::store_u64(at(b, length), common::StateReader::kMaxBlob + 1);
      span(length, length + 8, "exceeds");
      break;
    }
  }
  return out;
}

class SealedCorruption
    : public testing::TestWithParam<std::tuple<Format, Mutation>> {};

TEST_P(SealedCorruption, RejectsWithTheFormatErrorNamingFileAndCheck) {
  const auto [format, mutation] = GetParam();
  const Subject& s = subject(format);
  const Mutated m = mutate(s, mutation);
  std::ostringstream where;
  where << "format " << format_name(format) << ", mutation "
        << mutation_name(mutation) << ", bytes [" << m.begin << ", " << m.end
        << ") of " << s.bytes.size();
  SCOPED_TRACE(where.str());

  const std::string path = temp_dir("corrupt") + "/" +
                           mutation_name(mutation) + "." +
                           format_name(format);
  write_bytes(path, m.bytes);
  const Outcome outcome = s.load(path);
  ASSERT_TRUE(outcome.format_error) << outcome.message;
  EXPECT_NE(outcome.message.find(path), std::string::npos) << outcome.message;
  EXPECT_NE(outcome.message.find(m.check), std::string::npos)
      << "expected '" << m.check << "' in: " << outcome.message;
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, SealedCorruption,
    testing::Combine(testing::Values(Format::kCheckpoint, Format::kPolicy,
                                     Format::kShardSummary),
                     testing::Values(Mutation::kTruncatedHeader,
                                     Mutation::kBadMagic,
                                     Mutation::kVersionSkew,
                                     Mutation::kHeaderSizeSkew,
                                     Mutation::kUnsealed,
                                     Mutation::kPayloadSizeSkew,
                                     Mutation::kTruncatedPayload,
                                     Mutation::kTrailingBytes,
                                     Mutation::kBlobOverCap)),
    [](const testing::TestParamInfo<SealedCorruption::ParamType>& info) {
      return std::string(format_name(std::get<0>(info.param))) + "_" +
             mutation_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace prime
